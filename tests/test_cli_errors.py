"""CLI usage-error contract: bad input exits 2 with a one-line stderr
message and never a traceback; readable-but-empty input exits 1.

``main()`` returns the exit code: argparse errors and the pre-flight
loaders take the same usage-error path as the handlers, so scripts
wrapping the CLI can rely on one shape.
"""

import json

import pytest

from repro.cli import COMMANDS, build_parser, main


def _assert_clean_stderr(capsys):
    """One-line diagnostic, no traceback; returns the stderr text."""
    err = capsys.readouterr().err
    assert err.strip(), "expected a diagnostic on stderr"
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


# ----------------------------------------------------------------------
# --chaos plan files
# ----------------------------------------------------------------------
def test_missing_chaos_file_exits_2(tmp_path, capsys):
    assert main(["run", "clove-ecn", "--chaos", str(tmp_path / "absent.json")]) == 2
    assert "cannot load fault plan" in _assert_clean_stderr(capsys)


def test_malformed_chaos_file_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text("{ not json")
    assert main(["run", "clove-ecn", "--chaos", str(plan)]) == 2
    assert "cannot load fault plan" in _assert_clean_stderr(capsys)


def test_invalid_chaos_event_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"events": [{"time": -1.0, "action": "link_down",
                     "a": "L1", "b": "S1"}]}
    ))
    assert main(["run", "clove-ecn", "--chaos", str(plan)]) == 2
    _assert_clean_stderr(capsys)


def test_unknown_chaos_preset_exits_2(capsys):
    assert main(["run", "clove-ecn", "--chaos-preset", "no-such-storm"]) == 2
    _assert_clean_stderr(capsys)


# ----------------------------------------------------------------------
# Unreadable artifacts across the offline subcommands
# ----------------------------------------------------------------------
def test_telemetry_unreadable_artifact_returns_2(tmp_path, capsys):
    assert main(["telemetry", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


def test_telemetry_malformed_artifact_returns_2(tmp_path, capsys):
    artifact = tmp_path / "mangled.jsonl"
    artifact.write_text('{"kind": "counters", "values"\n')
    assert main(["telemetry", str(artifact)]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


#: lines that are valid JSON but not a well-formed artifact record
MALFORMED_RECORDS = {
    "not-an-object": [1, 2],
    "values-not-a-map": {"kind": "counters", "values": [1]},
    "span-without-id": {"kind": "span", "run": "r", "parent": 0,
                        "span": "flow", "name": "f", "start": 0.0,
                        "end": 1.0, "fields": {}},
    "string-counter": {"kind": "counters",
                       "values": {"host.tx_nic_packets{host=h1}": "7"}},
    "sim-duration-not-a-number": {"kind": "manifest", "run": "experiment",
                                  "sim_duration": "y"},
    "config-not-a-map": {"kind": "manifest", "run": "experiment",
                         "config": 3},
}


@pytest.mark.parametrize("record", MALFORMED_RECORDS.values(),
                         ids=MALFORMED_RECORDS.keys())
@pytest.mark.parametrize("command", [
    ["telemetry"], ["chaos", "report"], ["audit", "check"],
    ["trace", "summary"],
], ids=" ".join)
def test_malformed_record_is_a_corrupt_line(command, record, tmp_path,
                                            capsys):
    artifact = tmp_path / "malformed.jsonl"
    artifact.write_text(json.dumps(record) + "\n")
    assert main(command + [str(artifact)]) == 2
    err = _assert_clean_stderr(capsys)
    assert "skipped 1 corrupt line(s); no valid records" in err


#: manifest fields a reader indexes, each made the wrong type
BAD_MANIFESTS = {
    "sim-duration-not-a-number": {"sim_duration": "y"},
    "config-not-a-map": {"config": 3},
    "chaos-not-a-map": {"config": {"chaos": [1]}},
}

OFFLINE_COMMANDS = [["telemetry"], ["chaos", "report"], ["audit", "check"],
                    ["trace", "summary"]]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One tiny run's artifact per scheme: with a fault plan and without."""
    out = {}
    for name, argv in (("flap", ["clove-ecn", "--chaos-preset", "flap"]),
                       ("plain", ["ecmp"])):
        path = tmp_path_factory.mktemp("artifacts") / f"{name}.jsonl"
        assert main(["run", *argv, "--jobs-per-client", "2",
                     "--flow-scale", "0.05", "--telemetry-out",
                     str(path)]) == 0
        out[name] = path.read_text().splitlines()
    return out


@pytest.mark.parametrize("bad", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS.keys())
@pytest.mark.parametrize("run", ["flap", "plain"])
@pytest.mark.parametrize("command", OFFLINE_COMMANDS, ids=" ".join)
def test_malformed_manifest_reads_as_an_absent_one(
        artifacts, run, bad, command, tmp_path, capsys):
    """A run artifact whose manifest has a mistyped field behaves exactly
    as the same artifact without that line, plus the one-line warning."""
    lines = artifacts[run]
    (at,) = [i for i, line in enumerate(lines)
             if json.loads(line)["kind"] == "manifest"]
    manifest = {**json.loads(lines[at]), **bad}
    mangled, absent = tmp_path / "mangled.jsonl", tmp_path / "absent.jsonl"
    mangled.write_text("\n".join(
        lines[:at] + [json.dumps(manifest)] + lines[at + 1:]) + "\n")
    absent.write_text("\n".join(lines[:at] + lines[at + 1:]) + "\n")
    expected_code = main(command + [str(absent)])
    expected = capsys.readouterr()
    assert main(command + [str(mangled)]) == expected_code
    got = capsys.readouterr()
    assert got.out.replace("mangled", "absent") == expected.out
    assert "Traceback" not in got.err
    assert "skipped 1 corrupt line(s); returning partial artifact" in got.err


def test_trace_summary_unreadable_artifact_exits_2(tmp_path, capsys):
    assert main(["trace", "summary", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


def test_chaos_report_unreadable_artifact_returns_2(tmp_path, capsys):
    assert main(["chaos", "report", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


def test_audit_check_unreadable_artifact_returns_2(tmp_path, capsys):
    assert main(["audit", "check", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


def test_audit_check_without_conservation_counters_returns_2(tmp_path,
                                                             capsys):
    # a manifest and a counters line, but no host.tx_nic_packets: nothing
    # to balance is an unreadable artifact, not "PASS ... 0 checks"
    artifact = tmp_path / "foreign.jsonl"
    artifact.write_text(
        json.dumps({"kind": "manifest", "run": "experiment"}) + "\n"
        + json.dumps({"kind": "counters", "values": {"jobs.completed": 3}})
        + "\n")
    assert main(["audit", "check", str(artifact)]) == 2
    err = _assert_clean_stderr(capsys)
    assert "cannot read" in err and "host.tx_nic_packets" in err


def test_audit_check_partial_artifact_warns_on_one_line(tmp_path, capsys):
    artifact = tmp_path / "partial.jsonl"
    artifact.write_text(
        json.dumps({"kind": "counters",
                    "values": {"host.tx_nic_packets{host=h1}": 0}}) + "\n"
        + '{"kind": "event", "truncated-by-a-cra\n')
    assert main(["audit", "check", str(artifact)]) == 0
    err = _assert_clean_stderr(capsys)
    assert err.startswith("RuntimeWarning: ") and "partial artifact" in err


def test_audit_diff_unreadable_artifact_returns_2(tmp_path, capsys):
    readable = tmp_path / "a.jsonl"
    readable.write_text(json.dumps({"kind": "counters", "values": {}}) + "\n")
    assert main(["audit", "diff", str(readable),
                 str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


# ----------------------------------------------------------------------
# Every leaf that reads a file, from the command table
# ----------------------------------------------------------------------
#: the arguments that name a file the command reads
READS = ("file", "file_a", "file_b", "--chaos", "--spec", "--result")

#: values for the other positionals a reading leaf requires
POSITIONALS = {"name": "all", "flow_id": "1", "out": "{tmp}/out.json"}


def _leaf(parser, words):
    """The argparse parser of one leaf command."""
    for word in words:
        parser = parser._subparsers._group_actions[0].choices[word]
    return parser


def _absent_file_argvs():
    parser = build_parser()
    for row in COMMANDS:
        argv, reads = list(row.words), False
        for action in _leaf(parser, row.words)._actions:
            name = (action.option_strings or [action.dest])[-1]
            if name in READS:
                if action.option_strings:
                    argv.append(name)
                argv.append("{tmp}/absent")
                reads = True
            elif not action.option_strings and action.nargs != "?":
                argv.append(next(iter(action.choices)) if action.choices
                            else POSITIONALS[action.dest])
        if reads:
            yield pytest.param(argv, id=" ".join(row.words))


@pytest.mark.parametrize("argv", _absent_file_argvs())
def test_every_leaf_reading_an_absent_file_exits_2(argv, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    err = _assert_clean_stderr(capsys)
    assert err.startswith("cannot ") and repr(str(tmp_path / "absent")) in err


# ----------------------------------------------------------------------
# argparse-level usage errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [
    ["run", "no-such-scheme"],
    ["run", "clove-ecn", "--no-such-flag"],
    ["audit"],                       # subcommand required
    ["run", "clove-ecn", "--audit", "loudly"],
    ["no-such-command"],
    ["sweep", "--loads", "0.5,x"],   # list flags parse inside argparse
    ["figure", "fig4b", "--loads", "x"],
    ["incast", "--fanouts", "1,x"],
])
def test_argparse_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# Run flags that parse but describe no runnable experiment
# ----------------------------------------------------------------------
#: each crashed (``--load inf``: ZeroDivisionError, exit 1) or ran
#: something else (an empty run; a negative delay read as none) before
#: ExperimentConfig checked its fields
INVALID_RUN_FLAGS = {
    "load-inf": ["--load", "inf"],
    "load-nan": ["--load", "nan"],
    "load-zero": ["--load", "0"],
    "flow-scale-negative": ["--flow-scale", "-0.1"],
    "jobs-per-client-zero": ["--jobs-per-client", "0"],
    "jobs-per-client-negative": ["--jobs-per-client", "-3"],
    "failover-delay-negative": ["--failover-delay", "-1"],
    "failover-delay-inf": ["--failover-delay", "inf"],
}


@pytest.mark.parametrize("flags", INVALID_RUN_FLAGS.values(),
                         ids=INVALID_RUN_FLAGS.keys())
def test_run_rejects_a_config_it_cannot_run(flags, capsys):
    assert main(["run", "ecmp", *flags]) == 2
    assert _assert_clean_stderr(capsys).startswith("invalid run: ")


@pytest.mark.parametrize("flags", [
    ["--loads", "0.5,inf"],
    ["--jobs-per-client", "0"],
    ["--failover-delay", "-1"],
], ids=" ".join)
def test_sweep_rejects_a_grid_it_cannot_run(flags, capsys):
    # checked before any point runs (the first grid point here is valid)
    assert main(["sweep", "--schemes", "ecmp", *flags]) == 2
    assert _assert_clean_stderr(capsys).startswith("invalid sweep: ")


@pytest.mark.parametrize("flags", [
    ["--fanouts", "0"],
    ["--bytes", "0"],
    ["--requests", "0"],
], ids=" ".join)
def test_incast_rejects_a_point_it_cannot_run(flags, capsys):
    # checked before any point runs
    assert main(["incast", "--fanouts", "2", "--requests", "2",
                 "--bytes", "200000", *flags]) == 2
    assert _assert_clean_stderr(capsys).startswith("invalid incast: ")


_MPTCP = {"scheme": "mptcp", "jobs_per_client": 2}
_CLOVE = {"scheme": "clove-ecn", "jobs_per_client": 2, "clients_per_leaf": 2}
#: an incast scenario (``kind`` is the scenario's, the rest its base)
_INCAST = {"kind": "incast", "n_requests": 1, "total_bytes": 100_000}


@pytest.mark.parametrize("base", [
    {"scheme": "no-such-scheme"},
    {"scheme": "ecmp", "jobs_per_client": 0},
    {"scheme": "ecmp", "load": -0.5},
    {**_MPTCP, "mptcp_subflows": 0},
    {**_MPTCP, "connections_per_client": 0},
    {**_MPTCP, "clients_per_leaf": 0},
    {**_MPTCP, "min_rto": -1},
    {**_MPTCP, "warmup": -1},
    {**_MPTCP, "max_sim_time": 0},
    {**_CLOVE, "flowlet_gap_rtt": -1},
    {**_CLOVE, "weight_reduction": 5},
    {**_CLOVE, "pairing": "bogus"},
    {**_CLOVE, "audit": "bogus"},
    {**_CLOVE, "congestion_expiry_rtt": -1},
    {**_CLOVE, "ecn_relay_interval_rtt": -1},
    {**_CLOVE, "flowlet_gap_rtt": float("nan")},
    {**_INCAST, "scheme": "mptcp", "fanout": 2, "mptcp_subflows": 0},
    {**_INCAST, "fanout": 0},
    {**_CLOVE, "discovery": {"k_paths": 0}},
    {**_CLOVE, "health": True, "health_config": {"dead_after": 0}},
], ids=["unknown-scheme", "jobs-per-client-zero", "load-negative",
        "mptcp-subflows-zero", "connections-per-client-zero",
        "clients-per-leaf-zero", "min-rto-negative", "warmup-negative",
        "max-sim-time-zero", "flowlet-gap-negative",
        "weight-reduction-above-one", "unknown-pairing", "unknown-audit-mode",
        "congestion-expiry-negative", "ecn-relay-interval-negative",
        "flowlet-gap-nan", "incast-mptcp-subflows-zero", "incast-fanout-zero",
        "discovery-dict", "health-config-dict"])
def test_suite_spec_with_a_point_it_cannot_run_exits_2(base, tmp_path,
                                                       capsys):
    base = dict(base)
    kind = base.pop("kind", "experiment")
    spec = tmp_path / "spec.json"
    # an incast-only suite gates the one metric its points produce
    metrics = {"metrics": ["goodput_bps"]} if kind == "incast" else {}
    spec.write_text(json.dumps({"name": "bad", "seeds": [1], **metrics,
                                "scenarios": [
        {"name": "s", "kind": kind, "base": base}]}))
    assert main(["suite", "run", "--spec", str(spec)]) == 2
    assert "cannot load suite spec" in _assert_clean_stderr(capsys)


# ----------------------------------------------------------------------
# `repro figure` takes only what it uses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flags", [
    ["--audit", "strict"],
    ["--health"],
    ["--asymmetric"],
    ["--flow-scale", "0.05"],
    ["--failover-delay", "0.5"],
    ["--chaos-preset", "flap"],
    ["--loads", "0.3"],
    ["--jobs-per-client", "3"],
])
def test_figure_rejects_the_run_flags_it_never_applied(flags, capsys):
    assert main(["figure", "fig4b", *flags]) == 2
    assert "unrecognized arguments" in _assert_clean_stderr(capsys)


def test_unknown_figure_exits_2_with_the_valid_list(capsys):
    assert main(["figure", "fig99"]) == 2
    err = _assert_clean_stderr(capsys)
    assert "fig99" in err and "fig4b" in err and "all" in err
