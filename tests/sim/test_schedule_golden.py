"""Pinned kernel schedules of five representative reconfigurations.

The hot path may get cheaper per event, but it must dispatch the very
same schedule: the same number of events, the same processes, the same
heap depth, and bit-identical results and telemetry (every float sum
included).  Four cases run on a fresh system with no monitor attached;
the fifth attaches an :class:`~repro.verify.InvariantMonitor` and arms a
chaos fault plan, so the dispatch loop is pinned with and without the
per-event monitor call.  Each case pins:

* ``events_processed``, ``processes_spawned`` and ``heap_high_water``;
* the sha256 of the canonical JSON of the result record plus
  ``system.metrics.to_dict()`` closed at the final timestamp;
* for the monitored case, also ``monitor.checks``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.axi import AxiTrafficGenerator
from repro.chaos import ChaosInjector, build_fault_plan
from repro.core import PdrSystem, PdrSystemConfig
from repro.experiments.table1 import WORKLOAD_ASP
from repro.fabric import Aes128Asp, FirFilterAsp, MatMulAsp
from repro.verify import InvariantMonitor


def _table1_point(freq_mhz):
    def run():
        system = PdrSystem()
        system.set_die_temperature(40.0)
        return system, system.reconfigure("RP1", WORKLOAD_ASP, freq_mhz)

    return run


def _contention_open_tenant1():
    system = PdrSystem(
        PdrSystemConfig(
            dram_page_policy="open", dram_refresh_mode="engine", dram_trp_ns=50.0
        )
    )
    system.set_die_temperature(40.0)
    generators = [
        AxiTrafficGenerator(
            system.sim,
            system.interconnect,
            master="cpu",
            rate_mb_s=50.0,
            pattern="sequential",
            base_addr=0x1C00_0000,
            span_bytes=8 * 1024 * 1024,
            seed=11,
        ),
        AxiTrafficGenerator(
            system.sim,
            system.interconnect,
            master="tenant",
            rate_mb_s=1000.0,
            pattern="reverse",
            base_addr=0x1800_0000,
            span_bytes=64 * 1024 * 1024,
            write_fraction=0.5,
            seed=1,
        ),
    ]
    for generator in generators:
        generator.start()
    result = system.reconfigure("RP1", WORKLOAD_ASP, 200.0)
    for generator in generators:
        generator.stop()
    return system, result


def _sg_batch_of_three():
    system = PdrSystem()
    system.set_die_temperature(40.0)
    jobs = [
        ("RP1", FirFilterAsp([1, 2])),
        ("RP2", Aes128Asp([1, 2, 3, 4])),
        ("RP3", MatMulAsp(2)),
    ]
    return system, system.reconfigure_batch(jobs, 200.0)


#: case -> (run, (events_processed, processes_spawned, heap_high_water, sha256))
GOLDEN = {
    "table1-200MHz-40C": (
        _table1_point(200.0),
        (7296, 524, 4, "f0349e296fbeaec6d06e18b6bb2a3c7a6518176f6deddc4d28aea5866d9b55ff"),
    ),
    "crc-invalid-360MHz-40C": (
        _table1_point(360.0),
        (7299, 525, 4, "3d4e4d1eac0e317ab31b7ccb1cc5db70404a42cc97fe633735d559dc0512a443"),
    ),
    "contention-open-tenant1": (
        _contention_open_tenant1,
        (17540, 528, 6, "dcf062f51727a1478de8dbb025a0e62f6e9d9fbfe1179b429df6af38ee523980"),
    ),
    "sg-batch-3": (
        _sg_batch_of_three,
        (21925, 1569, 3, "c21c32aae7941bf9ff7b86e489240ebc05554cb5f31cd31948281a652a1a2779"),
    ),
}


def _record_digest(system, result):
    record = {
        "result": dataclasses.asdict(result),
        "metrics": system.metrics.to_dict(end_ns=system.sim.now),
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(run):
    system, result = run()
    assert system.sim.monitor is None
    return (
        system.sim.events_processed,
        system.sim.processes_spawned,
        system.sim.heap_high_water,
        _record_digest(system, result),
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_schedule_is_pinned(case):
    run, expected = GOLDEN[case]
    assert _fingerprint(run) == expected


def test_monitored_chaos_schedule_is_pinned():
    """A 200 MHz point with the invariant monitor on every kernel event
    and a seeded plan delivering a DRAM latency spike, a DRAM bit flip
    and a brownout mid-transfer."""
    system = PdrSystem()
    system.set_die_temperature(40.0)
    monitor = InvariantMonitor().attach(system)
    injector = ChaosInjector(system, build_fault_plan(1, 700.0, 3))
    injector.arm()
    result = system.reconfigure("RP1", WORKLOAD_ASP, 200.0)
    injector.disarm()
    monitor.detach()
    assert injector.injected_by_kind() == {
        "brownout": 1, "dram_bitflip": 1, "dram_latency": 1,
    }
    assert monitor.violations == []
    assert (
        system.sim.events_processed,
        system.sim.processes_spawned,
        system.sim.heap_high_water,
        monitor.checks,
        _record_digest(system, result),
    ) == (
        7305,
        527,
        7,
        25997,
        "94de6053771cb8e9629eaf90fc18ccbb021c30488c24102cebab6242efd87922",
    )
