"""Tests for the ``repro-pdr fleet`` subcommand."""

import contextlib
import io
import json

import pytest

from repro.experiments.cli import main


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


ARGS = ["fleet", "--boards", "2", "--seed", "1", "--duration-ms", "8"]


def test_fleet_reports_slos_and_exits_zero():
    code, out = run_cli(ARGS)
    assert code == 0
    assert "Fleet report" in out
    assert "latency_us: p50" in out and "p99" in out
    assert "rejected" in out
    assert "utilisation" in out


def test_fleet_json_out_is_byte_identical_serial_vs_jobs2(tmp_path):
    first = tmp_path / "serial.json"
    second = tmp_path / "jobs2.json"
    code_a, _ = run_cli(ARGS + ["--out", str(first)])
    code_b, _ = run_cli(ARGS + ["--jobs", "2", "--out", str(second)])
    assert code_a == code_b == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["schema"] == "repro.fleet/v1"
    assert doc["slos"]["p99_latency_us"] is not None


def test_fleet_slo_breach_exits_one(capsys):
    code, _ = run_cli(ARGS + ["--max-p99-latency-us", "0.001"])
    assert code == 1
    assert "SLO breach" in capsys.readouterr().err


def test_fleet_cannot_combine_with_other_experiments():
    with pytest.raises(SystemExit):
        main(["fleet", "table1"])


@pytest.mark.parametrize(
    "command", [ARGS, ["contention"], ["bench", "--check"], ["report"]]
)
@pytest.mark.parametrize(
    "flags", [["--metrics-out", "m.json"], ["--profile"], ["--trace-dump"]]
)
def test_subcommands_without_telemetry_reject_its_flags(
    command, flags, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command + flags)
    assert exc.value.code == 2
    assert f"does not support {flags[0]}" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


CHAOS_ARGS = ARGS + ["--chaos", "--kill-boards", "1", "--chaos-intensity", "3"]


def test_fleet_chaos_reports_health_and_exits_zero():
    code, out = run_cli(CHAOS_ARGS)
    assert code == 0
    assert "availability" in out
    assert "| board |" in out  # the per-board health timeline table
    assert "dead" in out  # the scheduled kill shows up


def test_fleet_chaos_json_byte_identical_serial_vs_jobs2(tmp_path):
    first = tmp_path / "serial.json"
    second = tmp_path / "jobs2.json"
    code_a, _ = run_cli(CHAOS_ARGS + ["--out", str(first)])
    code_b, _ = run_cli(CHAOS_ARGS + ["--jobs", "2", "--out", str(second)])
    assert code_a == code_b == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["spec"]["chaos"] is True
    assert doc["health"]  # timelines serialised
    assert doc["slos"]["availability"] is not None


def test_fleet_verify_reports_invariant_checks():
    code, out = run_cli(ARGS + ["--verify"])
    assert code == 0
    assert "verify:" in out
    assert "0 violation(s)" in out


def test_fleet_chaos_availability_breach_exits_one(capsys):
    code, _ = run_cli(CHAOS_ARGS + ["--min-availability", "1.1"])
    assert code == 1
    assert "SLO breach" in capsys.readouterr().err


def test_fleet_min_availability_ignored_without_chaos():
    code, _ = run_cli(ARGS + ["--min-availability", "1.1"])
    assert code == 0
