"""Chaos-fleet integration: determinism, board death, failover, rejoin.

Seed 17 is the repo's demonstration campaign (EXPERIMENTS E16): one of
four boards is killed permanently mid-run and another quarantines on
consecutive deadline breaches, then rejoins through a successful
half-open circuit-breaker probe.  Seed 19 exercises the crash path — a
chaos fault wedges a board's simulation, which the fleet treats as a
board death and fails over.  Reports are cached per spec because a
chaos campaign costs seconds, not milliseconds.
"""

import functools

from repro.fleet import FleetSpec, run_fleet
from repro.fleet.health import DEAD, QUARANTINED
from repro.fleet.report import TERMINAL_SERVED, render_json

REJOIN_SPEC = FleetSpec(
    boards=4,
    seed=17,
    duration_ms=14.0,
    chaos=True,
    chaos_intensity=6,
    kill_boards=1,
)
CRASH_SPEC = FleetSpec(
    boards=4,
    seed=19,
    duration_ms=12.0,
    chaos=True,
    chaos_intensity=4,
    kill_boards=1,
)


@functools.lru_cache(maxsize=None)
def cached_report(spec):
    return run_fleet(spec)


def test_chaos_serial_vs_jobs2_and_rerun_byte_identity():
    serial = render_json(run_fleet(REJOIN_SPEC, jobs=1))
    parallel = render_json(run_fleet(REJOIN_SPEC, jobs=2))
    assert serial == parallel
    assert serial == render_json(cached_report(REJOIN_SPEC))


def test_board_kill_loses_no_requests():
    report = cached_report(REJOIN_SPEC)
    assert report.offered == report.admitted + report.rejected
    assert len(report.outcomes) == report.admitted
    states = {entry["board"]: entry["state"] for entry in report.health}
    assert DEAD in states.values()  # the scheduled kill landed
    assert report.slos.failovers > 0
    assert report.rounds > 1
    # Retry budget absorbed the board loss entirely at this scale.
    assert report.slos.availability == 1.0
    assert report.slos.exhausted_rate == 0.0
    # Dead boards serve nothing after their death: the failed-over
    # requests all terminate served on surviving boards.
    assert all(
        outcome.terminal == TERMINAL_SERVED for outcome in report.outcomes
    )


def test_quarantined_board_rejoins_via_half_open_probe():
    report = cached_report(REJOIN_SPEC)
    rejoined = [
        entry
        for entry in report.health
        if "probe_ok_rejoined" in [e["reason"] for e in entry["events"]]
    ]
    assert rejoined
    # The rejoin follows a quarantine and a half-open promotion, in order.
    events = rejoined[0]["events"]
    reasons = [event["reason"] for event in events]
    assert reasons.index("breaker_half_open") < reasons.index(
        "probe_ok_rejoined"
    )
    states = [event["state"] for event in events]
    assert QUARANTINED in states
    # And the board ends the campaign back in service.
    assert rejoined[0]["state"] != QUARANTINED


def test_failover_latency_penalty_is_measured():
    report = cached_report(REJOIN_SPEC)
    retried = [o for o in report.outcomes if o.attempts > 1]
    assert retried
    assert report.slos.failover_latency_penalty_us is not None
    assert report.slos.failover_latency_penalty_us > 0


def test_crashed_board_counts_as_dead_and_fails_over():
    report = cached_report(CRASH_SPEC)
    crash_reasons = [
        event["reason"]
        for entry in report.health
        for event in entry["events"]
        if event["reason"].startswith("crash")
    ]
    assert crash_reasons  # a fault wedged the board's simulation
    assert report.offered == report.admitted + report.rejected
    assert len(report.outcomes) == report.admitted
    assert report.slos.availability == 1.0


def test_verify_attaches_invariant_monitor():
    spec = FleetSpec(
        boards=2, seed=1, duration_ms=8.0, chaos=True, chaos_intensity=2,
        verify=True,
    )
    report = cached_report(spec)
    assert report.verify is not None
    assert report.verify["checks"] > 0
    assert report.verify["violations"] == []


def test_plain_fleet_has_no_health_or_failover_fields():
    report = cached_report(FleetSpec(boards=2, seed=1, duration_ms=8.0))
    assert report.rounds == 1
    assert report.health == []
    assert report.verify is None
    assert report.slos.failovers == 0


def test_chaos_spec_validation():
    import pytest

    with pytest.raises(ValueError):
        FleetSpec(boards=2, kill_boards=1)  # kill requires chaos
    with pytest.raises(ValueError):
        FleetSpec(boards=2, chaos=True, kill_boards=3)  # beyond fleet
    with pytest.raises(ValueError):
        FleetSpec(boards=2, chaos=True, chaos_intensity=-1)
    with pytest.raises(ValueError):
        FleetSpec(boards=2, seu_per_ms=0.5)  # SEUs require chaos
    FleetSpec(boards=2, chaos=True, seu_per_ms=0.5)
