"""One declaration per knob: a config field that states its own bound,
help line and command-line flag (DESIGN.md, "One declaration per knob").

``__post_init__`` calls :func:`check`; the CLI builds its flags from
:func:`knobs`.  A knob whose default is None takes None as "unset".
"""

from __future__ import annotations

import math
from dataclasses import Field, field, fields
from typing import Any, Collection, Iterator, NamedTuple, Optional, Union


class Interval(NamedTuple):
    """A finite number above ``low`` (or at it, when ``closed``) and below
    ``high``; an ``int`` when ``integer``."""

    low: float
    closed: bool = False
    high: float = math.inf
    integer: bool = False

    def admits(self, value: Any) -> bool:
        """Whether ``value`` lies inside the interval."""
        kinds = int if self.integer else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            return False
        above = value >= self.low if self.closed else value > self.low
        return above and value < self.high and math.isfinite(value)

    def refusal(self, name: str, value: Any) -> str:
        """Why knob ``name`` cannot take ``value``."""
        kind = "an integer" if self.integer else "finite and"
        return f"{name} must be {kind} {self}, not {value!r}"

    def __str__(self) -> str:
        if self.high < math.inf:
            opening = "[" if self.closed else "("
            return f"in {opening}{self.low:g}, {self.high:g})"
        return f"{'>=' if self.closed else '>'} {self.low:g}"


class Choices(NamedTuple):
    """One of ``options``, a live table: a row added later counts."""

    noun: str
    options: Collection[str]

    def admits(self, value: Any) -> bool:
        """Whether ``value`` is one of the options."""
        return isinstance(value, str) and value in self.options

    def refusal(self, name: str, value: Any) -> str:
        """Why knob ``name`` cannot take ``value``."""
        return (f"unknown {self.noun} {value!r} "
                f"(valid {self.noun}s: {', '.join(self.options)})")

    def __str__(self) -> str:
        return "one of " + ", ".join(self.options)


POSITIVE = Interval(0.0)
NON_NEGATIVE = Interval(0.0, closed=True)
COUNT = Interval(1, closed=True, integer=True)
FRACTION = Interval(0.0, high=1.0)


def knob(default: Any, help: str, bound: Union[Interval, Choices, None] = None,
         flag: Optional[str] = None, metavar: Optional[str] = None,
         negatable: bool = False) -> Any:
    """A dataclass field declaring its ``bound`` (None: any value), its
    ``help`` line and its command-line ``flag``, if it has one
    (``metavar`` names the flag's value; a ``negatable`` flag of a boolean
    also takes ``--no-...``)."""
    return field(default=default, metadata={
        "help": help, "bound": bound, "flag": flag, "metavar": metavar,
        "negatable": negatable})


def knobs(config: Any) -> Iterator[Field]:
    """The fields of a config class (or instance) declared with :func:`knob`."""
    return (f for f in fields(config) if "help" in f.metadata)


def check(config: Any) -> None:
    """Raise ``ValueError`` naming the first knob of ``config`` whose value
    lies outside its declared bound."""
    for f in knobs(config):
        bound, value = f.metadata["bound"], getattr(config, f.name)
        if not (bound is None or bound.admits(value)
                or (value is None and f.default is None)):
            raise ValueError(bound.refusal(f.name, value))
