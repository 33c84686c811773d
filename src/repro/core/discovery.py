"""Encapsulation-header traceroute and disjoint path selection (Section 3.1).

For each active destination hypervisor the daemon sends probes whose outer
5-tuple matches data traffic except for a randomized source port, once per
TTL value.  Switches answer TTL expiry with ICMP Time-Exceeded naming the
ingress interface, and the destination hypervisor answers probes that reach
it, so each candidate source port resolves to an ordered interface trace —
the Paris-traceroute idea applied to discovering ECMP path diversity.

From the candidate set the daemon picks ``k`` source ports leading to
distinct paths with the paper's greedy heuristic: repeatedly add the path
sharing the fewest links with those already picked.

Probing repeats every ``probe_interval`` to track topology changes; on a
remapping, per-path state is preserved and only the port labels change
(handled by :meth:`repro.core.weights.WeightedPathTable.set_paths`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.net.packet import Packet
from repro.hypervisor.policy import PathTrace
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.host import Host

def next_probe_id(sim: Simulator) -> int:
    """Allocate a probe id unique across *all* probe senders of one run.

    Both the traceroute daemon and the health monitor
    (:mod:`repro.core.health`) send probes that destinations answer with
    the same ``probe_reply`` metadata; drawing ids from one shared counter
    lets each receiver claim exactly its own replies.  The counter lives
    on the :class:`~repro.sim.engine.Simulator` — not at module level —
    so a run's ids never depend on how many runs the process executed
    before it (serial and parallel sweeps must stay bit-identical).
    """
    pid = getattr(sim, "_next_probe_id", 1)
    sim._next_probe_id = pid + 1
    return pid


#: ephemeral range probes draw candidate source ports from
_PORT_LO, _PORT_HI = 49152, 65535


@dataclass
class DiscoveryConfig:
    """Tuning for the traceroute daemon."""

    k_paths: int = 4                 # paths to select per destination
    n_candidate_ports: int = 16      # random source ports probed per round
    max_ttl: int = 8                 # deepest hop probed
    probe_interval: float = 1.0      # seconds between rounds per destination
    round_timeout: float = 0.01      # seconds to wait after the last probe
    #: spacing between consecutive probes of a round.  Probes are paced (and
    #: rounds to different destinations staggered) so a burst of rounds
    #: cannot overflow the access-link queue — the paper's "probes to
    #: different destination hypervisors may be staggered" guidance.
    probe_spacing: float = 2e-6
    stagger: float = 500e-6          # max random start offset per round


class _Round:
    """State of one in-flight probing round towards one destination.

    Every round carries a hard ``deadline`` (its timeout event): probes are
    fire-and-forget, so when a mid-round ``link.fail`` flushes them the
    replies simply never arrive — the deadline still fires
    ``_finish_round``, the round resolves from whatever replies did make
    it, and the periodic reprobe chain stays alive.  A round can never be
    left stuck in ``_rounds``.
    """

    __slots__ = ("ports", "hops", "reached", "timer", "deadline",
                 "probe_events")

    def __init__(self, ports: List[int], max_ttl: int) -> None:
        self.ports = ports
        #: port -> {ttl: interface}
        self.hops: Dict[int, Dict[int, str]] = {port: {} for port in ports}
        self.reached: Set[int] = set()
        #: the timeout event guaranteeing completion (cancel-safe handle)
        self.timer = None
        #: absolute sim time the round resolves at, come what may
        self.deadline = float("inf")
        #: scheduled probe-send events, cancellable via cancel_round
        self.probe_events: List[object] = []


def select_disjoint(
    candidates: Dict[int, PathTrace], k: int
) -> List[Tuple[int, PathTrace]]:
    """Greedy selection of up to ``k`` ports with maximally disjoint paths.

    Deduplicates identical traces first (many ports hash to the same path),
    then repeatedly adds the path sharing the fewest links with the union of
    already-selected paths (ties broken by lowest port for determinism).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    unique: Dict[PathTrace, int] = {}
    for port in sorted(candidates):
        trace = candidates[port]
        unique.setdefault(trace, port)
    remaining = [(port, trace) for trace, port in unique.items()]
    selected: List[Tuple[int, PathTrace]] = []
    used_links: Set[str] = set()
    while remaining and len(selected) < k:
        best_index = min(
            range(len(remaining)),
            key=lambda i: (
                sum(1 for link in remaining[i][1] if link in used_links),
                remaining[i][0],
            ),
        )
        port, trace = remaining.pop(best_index)
        selected.append((port, trace))
        used_links.update(trace)
    return selected


class PathDiscovery:
    """Per-hypervisor traceroute daemon feeding the vswitch policy."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        rng,
        config: Optional[DiscoveryConfig] = None,
        on_update: Optional[Callable[[int, List[int], List[PathTrace]], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.rng = rng
        self.config = config if config is not None else DiscoveryConfig()
        #: called as on_update(dst_ip, ports, traces) after each round
        self.on_update = on_update
        self._rounds: Dict[int, _Round] = {}          # dst_ip -> round
        self._probe_index: Dict[int, Tuple[int, int, int]] = {}  # pid -> (dst, port, ttl)
        self._known: Dict[int, List[Tuple[int, PathTrace]]] = {}
        self._watched: Set[int] = set()
        self.rounds_completed = 0
        #: rounds that resolved with zero usable candidates (all probes or
        #: replies lost — e.g. every path through a dead fabric region)
        self.rounds_empty = 0
        self.probes_sent = 0

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def notice_destination(self, dst_ip: int) -> None:
        """Called on guest traffic; starts probing new destinations."""
        if dst_ip in self._watched or dst_ip == self.host.ip:
            return
        self._watched.add(dst_ip)
        self.start_round(dst_ip)

    def paths_for(self, dst_ip: int) -> List[Tuple[int, PathTrace]]:
        """The most recent selection towards ``dst_ip``."""
        return list(self._known.get(dst_ip, []))

    def reset(self) -> List[int]:
        """Crash-restart wipe: abort in-flight rounds, forget every learned
        selection and every watched destination.

        Returns the destinations that were watched so the caller (the
        chaos engine's ``vswitch_restart``) can re-bootstrap by calling
        :meth:`notice_destination` for each — exactly the cold-start path
        a freshly booted vswitch takes.  Reprobe events already scheduled
        by earlier rounds are harmless: ``_reprobe`` checks ``_watched``
        and ``start_round`` refuses duplicates.
        """
        for dst_ip in list(self._rounds):
            round_ = self._rounds.pop(dst_ip)
            if round_.timer is not None:
                round_.timer.cancel()
            for event in round_.probe_events:
                event.cancel()
        self._probe_index.clear()
        self._known.clear()
        watched = sorted(self._watched)
        self._watched.clear()
        return watched

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def start_round(self, dst_ip: int) -> bool:
        """Launch a (paced) probing round towards ``dst_ip``.

        Returns False (and does nothing) when a round towards ``dst_ip``
        is already in flight — callers that need a *fresh* round (e.g. the
        health monitor's targeted re-discovery) can rely on the in-flight
        one resolving by its deadline and retry after it.
        """
        if dst_ip in self._rounds:
            return False  # a round is already in flight
        cfg = self.config
        ports = self.rng.sample(range(_PORT_LO, _PORT_HI), cfg.n_candidate_ports)
        round_ = _Round(ports, cfg.max_ttl)
        self._rounds[dst_ip] = round_
        offset = self.rng.uniform(0, cfg.stagger)
        index = 0
        for port in ports:
            for ttl in range(1, cfg.max_ttl + 1):
                round_.probe_events.append(self.sim.schedule(
                    offset + index * cfg.probe_spacing,
                    self._send_probe, dst_ip, port, ttl,
                ))
                index += 1
        timeout = offset + index * cfg.probe_spacing + cfg.round_timeout
        round_.deadline = self.sim.now + timeout
        round_.timer = self.sim.schedule(timeout, self._finish_round, dst_ip)
        return True

    def round_in_flight(self, dst_ip: int) -> bool:
        """Whether a probing round towards ``dst_ip`` is currently open."""
        return dst_ip in self._rounds

    def cancel_round(self, dst_ip: int) -> bool:
        """Abort an in-flight round: cancel its timer and unsent probes.

        The periodic reprobe chain is re-armed (a cancelled round must not
        kill future discovery for a watched destination).  Returns False
        when no round was in flight.
        """
        round_ = self._rounds.pop(dst_ip, None)
        if round_ is None:
            return False
        if round_.timer is not None:
            round_.timer.cancel()
        for event in round_.probe_events:
            event.cancel()
        self._drop_probe_state(dst_ip, round_)
        if dst_ip in self._watched:
            self.sim.schedule(self.config.probe_interval, self._reprobe, dst_ip)
        return True

    def _send_probe(self, dst_ip: int, port: int, ttl: int) -> None:
        pid = next_probe_id(self.sim)
        self._probe_index[pid] = (dst_ip, port, ttl)
        key = self.host.vswitch.outer_key(dst_ip, port)
        probe = Packet(key, payload_bytes=28, created_at=self.sim.now)
        probe.ttl = ttl
        probe.meta["probe"] = pid
        probe.meta["probe_id"] = pid
        self.probes_sent += 1
        self.host.nic_send(probe)

    # ------------------------------------------------------------------
    # Reply handling (wired in Host.receive)
    # ------------------------------------------------------------------
    def on_icmp(self, packet: Packet) -> None:
        """Record a Time-Exceeded reply: one (port, ttl) hop resolved."""
        pid = packet.meta.get("probe_id")
        info = self._probe_index.get(pid)
        if info is None:
            return
        dst_ip, port, ttl = info
        round_ = self._rounds.get(dst_ip)
        if round_ is None or port not in round_.hops:
            return
        round_.hops[port][ttl] = packet.meta["hop_interface"]

    def on_probe_reply(self, packet: Packet) -> None:
        """Record that a probe reached the destination hypervisor."""
        pid = packet.meta.get("probe_reply")
        info = self._probe_index.get(pid)
        if info is None:
            return
        dst_ip, port, _ttl = info
        round_ = self._rounds.get(dst_ip)
        if round_ is not None:
            round_.reached.add(port)

    # ------------------------------------------------------------------
    # Round completion
    # ------------------------------------------------------------------
    def _finish_round(self, dst_ip: int) -> None:
        round_ = self._rounds.pop(dst_ip, None)
        if round_ is None:
            return  # already resolved or cancelled; the timer raced us
        round_.timer = None
        candidates: Dict[int, PathTrace] = {}
        for port in round_.ports:
            if port not in round_.reached:
                continue  # probes lost or blackholed; skip this port
            hops = round_.hops[port]
            trace = tuple(hops[ttl] for ttl in sorted(hops))
            if trace:
                candidates[port] = trace
        if candidates:
            selection = select_disjoint(candidates, self.config.k_paths)
            self._known[dst_ip] = selection
            if self.on_update is not None:
                ports = [port for port, _trace in selection]
                traces = [trace for _port, trace in selection]
                self.on_update(dst_ip, ports, traces)
        else:
            # Nothing usable came back (all probes flushed / blackholed):
            # keep the previous mapping rather than installing nothing, and
            # let the reprobe below try again.
            self.rounds_empty += 1
        self.rounds_completed += 1
        self._drop_probe_state(dst_ip, round_)
        # Periodic re-probing keeps the mapping fresh across failures.
        self.sim.schedule(self.config.probe_interval, self._reprobe, dst_ip)

    def _drop_probe_state(self, dst_ip: int, round_: _Round) -> None:
        """Clean the probe index of one round's entries."""
        stale = [pid for pid, (d, p, _t) in self._probe_index.items()
                 if d == dst_ip and p in round_.hops]
        for pid in stale:
            del self._probe_index[pid]

    def _reprobe(self, dst_ip: int) -> None:
        if dst_ip in self._watched:
            self.start_round(dst_ip)
