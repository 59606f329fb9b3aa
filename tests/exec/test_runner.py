"""SweepRunner behaviour: ordering, parallel/serial identity, stats."""

import pytest

from repro.exec import ResultCache, SweepRunner, SweepSpec, default_jobs

from .points_for_tests import boom, describe, slow_square, square


def test_serial_map_preserves_order():
    runner = SweepRunner()
    values = runner.map("squares", square, [{"x": i} for i in range(8)])
    assert values == [i * i for i in range(8)]


def test_parallel_matches_serial():
    spec = SweepSpec.map("squares", square, [{"x": i} for i in range(8)])
    serial = SweepRunner(jobs=1).run(spec)
    parallel = SweepRunner(jobs=2).run(spec)
    assert parallel.values == serial.values
    assert parallel.jobs == 2


def test_jobs_zero_means_auto():
    assert SweepRunner(jobs=0).jobs == default_jobs()
    with pytest.raises(ValueError):
        SweepRunner(jobs=-1)


def test_kwargs_reach_point_functions():
    runner = SweepRunner()
    (value,) = runner.map(
        "describe", describe, [{"x": 3, "scale": 2.0, "tag": "t"}]
    )
    assert value == {"x": 3, "scale": 2.0, "tag": "t", "value": 6.0}


def test_stats_record_events_and_wall_clock():
    runner = SweepRunner()
    result = runner.run(
        SweepSpec.map("slow", slow_square, [{"x": 4}], labels=["four"])
    )
    (stat,) = result.stats
    assert stat.label == "four"
    assert stat.cached is False
    assert stat.events == 400
    assert stat.wall_s >= 0.0
    assert stat.to_dict()["events"] == 400
    assert result.simulated == 1 and result.cache_hits == 0
    assert runner.history == [result]


def test_point_failure_carries_label_serial_and_parallel():
    spec = SweepSpec.map("boom", boom, [{"x": 1}, {"x": 2}], labels=["p1", "p2"])
    with pytest.raises(ValueError, match="boom"):
        SweepRunner(jobs=1).run(spec)
    with pytest.raises(RuntimeError, match="p1"):
        SweepRunner(jobs=2).run(spec)


def test_parallel_with_cache_matches_serial(tmp_path):
    spec = SweepSpec.map("squares", square, [{"x": i} for i in range(6)])
    serial = SweepRunner(jobs=1).run(spec)
    cached_runner = SweepRunner(
        jobs=2, cache=ResultCache(str(tmp_path / "cache"))
    )
    first = cached_runner.run(spec)
    second = cached_runner.run(spec)
    assert first.values == serial.values
    assert second.values == serial.values
    assert first.cache_hits == 0 and first.simulated == 6
    assert second.cache_hits == 6 and second.simulated == 0


def test_config_mapping_survives_runner_canonicalisation():
    """The runner hands a ``config`` dict to the point as ``(key, value)``
    pairs; ``reconfigure_point`` must accept that form and build the same
    system as the dict it came from."""
    from repro.experiments.points import asp_descriptor, reconfigure_point
    from repro.fabric import FirFilterAsp

    workload = asp_descriptor(FirFilterAsp([1, 2]))
    params = {
        "region": "RP1",
        "freq_mhz": 200.0,
        "temp_c": 40.0,
        "workload": workload,
        "config": {"telemetry": False},
    }
    (result,) = SweepRunner().map("telemetry-off", reconfigure_point, [params])
    direct = reconfigure_point(**params)
    assert result.crc_valid
    assert result.latency_us == direct.latency_us
