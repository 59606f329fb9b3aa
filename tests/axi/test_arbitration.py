"""Round-robin arbitration fairness tests."""

import pytest

from repro.axi import AxiHpPort, AxiInterconnect
from repro.dram import BankDramController, DramDevice
from repro.sim import Simulator


def _rig():
    sim = Simulator()
    device = DramDevice()
    interconnect = AxiInterconnect(sim, BankDramController(sim, device))
    return sim, interconnect


def test_round_robin_alternates_between_masters():
    sim, interconnect = _rig()
    service_order = []

    def flood(sim, master, count):
        for i in range(count):
            yield interconnect.read(0x1000 * i, 256, master=master)
            service_order.append(master)

    sim.process(flood(sim, "a", 6))
    sim.process(flood(sim, "b", 6))
    sim.run()
    # After warm-up, service strictly alternates: never two in a row from
    # the same master while both have work queued.
    middle = service_order[1:-1]
    runs = max(
        len(list(1 for _ in group))
        for group in _group_runs(middle)
    )
    assert runs <= 2
    assert interconnect.per_master_transactions == {"a": 6, "b": 6}


def _group_runs(sequence):
    current = []
    for item in sequence:
        if current and current[-1] != item:
            yield current
            current = []
        current.append(item)
    if current:
        yield current


def test_fair_bandwidth_split_under_contention():
    """Two saturating masters each get ~half the memory bandwidth."""
    sim, interconnect = _rig()
    finish = {}

    def flood(sim, master):
        for i in range(32):
            yield interconnect.read(i * 1024, 1024, master=master)
        finish[master] = sim.now

    sim.process(flood(sim, "hp0"))
    sim.process(flood(sim, "hp1"))
    sim.run()
    assert finish["hp0"] == pytest.approx(finish["hp1"], rel=0.05)


def test_single_master_unaffected_by_rr_machinery():
    """Solo traffic must still hit the calibrated ~816 MB/s rate."""
    sim, interconnect = _rig()
    port = AxiHpPort(sim, interconnect, name="hp0")
    state = {}

    def reader(sim):
        start = sim.now
        for i in range(64):
            yield port.read(i * 1024, 1024)
        state["rate"] = 64 * 1024 / (sim.now - start) * 1e3

    sim.process(reader(sim))
    sim.run()
    assert state["rate"] == pytest.approx(816.0, rel=0.03)


def test_late_joining_master_gets_service_promptly():
    sim, interconnect = _rig()
    times = {}

    def hog(sim):
        for i in range(64):
            yield interconnect.read(i * 1024, 1024, master="hog")

    def latecomer(sim):
        yield sim.timeout(20_000.0)
        start = sim.now
        yield interconnect.read(0, 256, master="late")
        times["wait"] = sim.now - start

    sim.process(hog(sim))
    sim.process(latecomer(sim))
    sim.run()
    # Bounded wait: at most ~two in-flight hog bursts, not the whole queue.
    assert times["wait"] < 5_000.0
