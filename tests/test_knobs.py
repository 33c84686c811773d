"""One declaration per knob: each config field's declared bound is what
the config checks, what its flag states and what the CLI builds on.

The tests walk the declarations, so a new knob is covered with no new
test line.
"""

import math

import pytest

from repro.cli import _KNOBS, build_parser
from repro.harness.config import ExperimentConfig
from repro.knobs import Choices, knobs
from repro.workloads.incast import IncastConfig


def _bounded():
    for config in (ExperimentConfig, IncastConfig):
        for knob in knobs(config):
            if knob.metadata["bound"] is not None:
                yield pytest.param(config, knob,
                                   id=f"{config.__name__}.{knob.name}")


def _outside(knob):
    """Values just outside the knob's bound (None is "unset" only for a
    knob whose default is None)."""
    bound = knob.metadata["bound"]
    unset = [] if knob.default is None else [None]
    if isinstance(bound, Choices):
        return ["no-such-" + bound.noun, 1] + unset
    if bound.integer:
        low = bound.low if not bound.closed else bound.low - 1
        return [low, bound.low + 0.5, True, "2"] + unset
    low = bound.low if not bound.closed else math.nextafter(bound.low, -math.inf)
    values = [low, math.nan, math.inf, -math.inf, "1"] + unset
    if bound.high < math.inf:
        values.append(bound.high)
    return values


def _inside(knob):
    """Inclusive boundary values, or the nearest admitted ones."""
    bound = knob.metadata["bound"]
    if isinstance(bound, Choices):
        values = list(bound.options)
    elif bound.closed:
        values = [bound.low]
    else:
        values = [math.nextafter(bound.low, math.inf)]
    if not isinstance(bound, Choices) and bound.high < math.inf:
        values.append(math.nextafter(bound.high, -math.inf))
    return values + ([None] if knob.default is None else [])


@pytest.mark.parametrize("config, knob", _bounded())
def test_every_declared_bound_is_checked(config, knob):
    for value in _outside(knob):
        with pytest.raises(ValueError):
            config(**{knob.name: value})
    for value in _inside(knob):
        assert getattr(config(**{knob.name: value}), knob.name) == value


def test_the_audit_knob_offers_the_auditor_modes():
    # declared apart: a run that is not audited never loads repro.audit
    from repro.audit.report import MODES

    (audit,) = [f for f in knobs(ExperimentConfig) if f.name == "audit"]
    assert tuple(audit.metadata["bound"].options) == MODES


def _leaf(parser, words):
    for word in words:
        parser = parser._subparsers._group_actions[0].choices[word]
    return parser


def test_every_generated_flag_ends_its_help_with_its_bound():
    parser = build_parser()
    flagged = set()
    for command in ("run", "sweep", "incast"):
        for action in _leaf(parser, [command])._actions:
            knob = _KNOBS.get(action.dest)
            if knob is None or knob.metadata["flag"] not in action.option_strings:
                continue
            flagged.add(knob.name)
            bound = knob.metadata["bound"]
            assert action.help.startswith(knob.metadata["help"])
            if bound is not None:
                assert action.help.endswith(f"({bound})"), action.help
    assert flagged == {name for name, knob in _KNOBS.items()
                       if knob.metadata["flag"] is not None}


#: ``repro run|sweep|incast --help`` before the flags were generated from
#: the declarations: option strings -> default
FLAGS = {
    "run": {
        "-h --help": None, "scheme": None, "--load": 0.7, "--seed": 1,
        "--jobs-per-client": 150, "--asymmetric": False, "--flow-scale": 0.1,
        "--chaos": None, "--chaos-preset": None,
        "--health --no-health": False, "--failover-delay": 0.0,
        "--audit": None, "-j --jobs": 1, "--cache-dir": None,
        "--telemetry-out": None, "--trace-out": None, "--profile": False,
    },
    "sweep": {
        "-h --help": None, "--schemes": "ecmp,edge-flowlet,clove-ecn",
        "--loads": "0.3,0.5,0.7", "--n-seeds": 1, "--load": 0.7,
        "--seed": 1, "--jobs-per-client": 150, "--asymmetric": False,
        "--flow-scale": 0.1, "--chaos": None, "--chaos-preset": None,
        "--health --no-health": False, "--failover-delay": 0.0,
        "--audit": None, "-j --jobs": 1, "--cache-dir": None,
        "--telemetry-out": None, "--trace-out": None, "--profile": False,
    },
    "incast": {
        "-h --help": None, "--scheme": "clove-ecn", "--fanouts": "1,2,4,8",
        "--requests": 8, "--bytes": 2_000_000, "--seed": 1, "-j --jobs": 1,
        "--cache-dir": None, "--telemetry-out": None, "--trace-out": None,
        "--profile": False,
    },
}


@pytest.mark.parametrize("command", FLAGS)
def test_run_sweep_incast_keep_their_flags_and_defaults(command):
    actions = _leaf(build_parser(), [command])._actions
    seen = {" ".join(action.option_strings) or action.dest:
            None if action.default == "==SUPPRESS==" else action.default
            for action in actions}
    assert seen == FLAGS[command]
    for name, default in seen.items():
        assert type(default) is type(FLAGS[command][name]), name
