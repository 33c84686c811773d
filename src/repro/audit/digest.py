"""Streaming determinism digests.

Two runs of the simulator are *bit-identical* when they pop the same event
sequence: same timestamps, same callbacks, same order.  The digest folds
every processed event into one 64-bit FNV-style state, so serial vs
``-j N`` and run-vs-rerun identity reduce to comparing two short strings.

Cross-process stability is the subtle requirement: ``hash(str)`` is
randomized per interpreter (PYTHONHASHSEED), so callback names cannot be
hashed directly — a rerun in a fresh process would diverge on identical
runs.  Instead each distinct callback qualname gets a small integer token
in **first-seen order**; a deterministic event sequence assigns identical
tokens in every process.  Numeric hashes are value-stable across
processes, so folding each event as ``hash((state, time, token))`` is safe
— and the tuple hash runs entirely in C, so the audited dispatch loop can
do it inline.

:meth:`StreamDigest.token` is the one token rule.  ``Simulator.run`` folds
the engine's callbacks inline (a ``token_of`` hit, the tuple hash) and
calls it only for a callback it has not seen; :meth:`StreamDigest.mix`
folds one event the same way and is the offline path, fed telemetry event
type names by :func:`digest_events`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

#: FNV-1a 64-bit offset basis: the digest's initial state (the chaining
#: itself is the C tuple hash, not FNV)
FNV_OFFSET = 1469598103934665603
MASK64 = 0xFFFFFFFFFFFFFFFF


def render_digest(state: int, count: int) -> str:
    """The canonical rendering: ``<16-hex-digit state>:<event count>``.

    ``state`` is a raw ``hash()`` value (signed); rendering masks it to
    64 bits so the text form is uniform.
    """
    return f"{state & MASK64:016x}:{count}"


def parse_digest(text: str) -> Tuple[int, int]:
    """Invert :func:`render_digest`; raises ``ValueError`` on bad input."""
    state_hex, _, count = text.partition(":")
    return int(state_hex, 16), int(count)


class StreamDigest:
    """Order-sensitive digest of an event stream."""

    __slots__ = ("state", "count", "tokens", "token_of")

    def __init__(self) -> None:
        self.state = FNV_OFFSET
        self.count = 0
        #: qualname -> first-seen-order token (process-stable by order)
        self.tokens: Dict[str, int] = {}
        #: name, or function object (``__func__`` of a bound method), ->
        #: token, so the qualname lookup happens once per distinct callback
        #: rather than once per event.  ``tokens`` stays authoritative: two
        #: callables sharing a qualname share a token.
        self.token_of: Dict[Any, int] = {}

    def token(self, what: Union[str, Callable[..., Any]]) -> int:
        """The token of an event's name or callback, which is named by
        ``__qualname__`` (that of its type for ``functools.partial`` and
        other callable objects); a new name gets the next integer."""
        key = getattr(what, "__func__", what)
        tok = self.token_of.get(key)
        if tok is None:
            name = key if isinstance(key, str) else (
                getattr(key, "__qualname__", None)
                or getattr(type(key), "__qualname__", "?")
            )
            tok = self.token_of[key] = self.tokens.setdefault(
                name, len(self.tokens) + 1)
        return tok

    def mix(self, time: float, what: Union[str, Callable[..., Any]]) -> None:
        """Fold one event into the digest: its timestamp and the
        :meth:`token` of its name or callback."""
        self.state = hash((self.state, time, self.token(what)))
        self.count += 1

    def render(self) -> str:
        """The digest as its canonical ``<16-hex-state>:<count>`` string."""
        return render_digest(self.state, self.count)


def digest_events(records: Iterable[Dict[str, Any]]) -> str:
    """Digest a telemetry artifact's ``event`` records in file order.

    This is the *artifact-level* identity check ``repro audit diff`` uses
    when two artifacts were not audited in-process (no engine digest in
    their manifests): identical telemetry event streams — times and types —
    digest identically, divergent ones almost surely do not.
    """
    digest = StreamDigest()
    for record in records:
        digest.mix(float(record.get("time", 0.0)), str(record.get("type", "?")))
    return digest.render()


def manifest_digest(manifests: Iterable[Dict[str, Any]]) -> Optional[str]:
    """The engine digest an audited run stamped in its manifest (the first
    manifest that carries one), or None for an unaudited artifact."""
    for manifest in manifests:
        recorded = manifest.get("audit")
        if isinstance(recorded, dict) and recorded.get("digest"):
            return recorded["digest"]
    return None


def diff_digests(a: Optional[str], b: Optional[str]) -> str:
    """One-line verdict comparing two rendered digests."""
    if a is None or b is None:
        return "incomparable (a digest is missing)"
    if a == b:
        return f"identical ({a})"
    state_a, count_a = parse_digest(a)
    state_b, count_b = parse_digest(b)
    if count_a != count_b:
        return (
            f"DIVERGED: event counts differ "
            f"({count_a} vs {count_b}; {a} vs {b})"
        )
    return f"DIVERGED: same event count ({count_a}) but sequences differ"
