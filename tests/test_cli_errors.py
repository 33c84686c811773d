"""CLI usage-error contract: bad input exits 2 with a one-line stderr
message and never a traceback; readable-but-empty input exits 1.

``main()`` returns the exit code for handled errors; argparse and the
pre-flight loaders raise ``SystemExit`` instead — both shapes are pinned
here so scripts wrapping the CLI can rely on them.
"""

import json

import pytest

from repro.cli import main


def _exit_code(excinfo):
    code = excinfo.value.code
    return code if isinstance(code, int) else 1


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
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "clove-ecn", "--chaos", str(tmp_path / "absent.json")])
    assert _exit_code(excinfo) == 2
    assert "cannot load fault plan" in _assert_clean_stderr(capsys)


def test_malformed_chaos_file_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text("{ not json")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "clove-ecn", "--chaos", str(plan)])
    assert _exit_code(excinfo) == 2
    assert "cannot load fault plan" in _assert_clean_stderr(capsys)


def test_invalid_chaos_event_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"events": [{"time": -1.0, "action": "link_down",
                     "a": "L1", "b": "S1"}]}
    ))
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "clove-ecn", "--chaos", str(plan)])
    assert _exit_code(excinfo) == 2
    _assert_clean_stderr(capsys)


def test_unknown_chaos_preset_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "clove-ecn", "--chaos-preset", "no-such-storm"])
    assert _exit_code(excinfo) == 2
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


def test_trace_summary_unreadable_artifact_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "summary", str(tmp_path / "absent.jsonl")])
    assert _exit_code(excinfo) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


def test_chaos_report_unreadable_artifact_returns_2(tmp_path, capsys):
    assert main(["chaos", "report", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


def test_audit_check_unreadable_artifact_returns_2(tmp_path, capsys):
    assert main(["audit", "check", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


def test_audit_diff_unreadable_artifact_returns_2(tmp_path, capsys):
    readable = tmp_path / "a.jsonl"
    readable.write_text(json.dumps({"kind": "counters", "values": {}}) + "\n")
    assert main(["audit", "diff", str(readable),
                 str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in _assert_clean_stderr(capsys)


# ----------------------------------------------------------------------
# argparse-level usage errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [
    ["run", "no-such-scheme"],
    ["run", "clove-ecn", "--no-such-flag"],
    ["audit"],                       # subcommand required
    ["audit", "run", "clove-ecn", "--audit", "loudly"],
    ["no-such-command"],
    ["sweep", "--loads", "0.5,x"],   # list flags parse inside argparse
    ["figure", "fig4b", "--loads", "x"],
    ["incast", "--fanouts", "1,x"],
])
def test_argparse_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert _exit_code(excinfo) == 2
    assert "Traceback" not in capsys.readouterr().err
