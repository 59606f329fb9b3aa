"""Unit tests for the bank-aware DDR controller.

Covers the bank-machine latency table (hit/miss/conflict x page
policy), both refresh modes, the round-robin command multiplexer with
per-master ledgers, the queue-wait counter, fault hooks, and device
snapshot round-trips of the extended bank/row state.
"""

import pytest

from repro.dram import (
    BankDramController,
    BankTiming,
    DdrTiming,
    DramDevice,
    MemoryRequest,
)
from repro.sim import Simulator

ROW = DdrTiming().row_bytes
BANKS = DdrTiming().banks


def _drive(sim, steps):
    """Run ``steps`` (a generator function of sim) to completion."""
    sim.process(steps(sim))
    sim.run()


def _timed_read(sim, controller, addr, size=64, master="m0"):
    state = {}

    def driver(sim):
        start = sim.now
        yield controller.read(addr, size, master=master)
        state["ns"] = sim.now - start

    _drive(sim, driver)
    return state["ns"]


# ------------------------------------------------------------ latency table --
def test_hit_miss_conflict_latencies_open_page():
    sim = Simulator()
    timing = BankTiming(tcas_ns=200.0, trcd_ns=100.0, trp_ns=50.0)
    controller = BankDramController(
        sim, DramDevice(), timing=timing, refresh_mode="off"
    )
    transfer = controller.device.transfer_ns(64)
    # Cold bank: ACTIVATE + CAS.
    assert _timed_read(sim, controller, 0) == pytest.approx(
        timing.miss_ns + transfer
    )
    # Same row: CAS only.
    assert _timed_read(sim, controller, 64) == pytest.approx(
        timing.hit_ns + transfer
    )
    # Different row, same bank: PRECHARGE + ACTIVATE + CAS.
    conflict_addr = ROW * BANKS
    assert _timed_read(sim, controller, conflict_addr) == pytest.approx(
        timing.conflict_ns + transfer
    )
    assert controller.device.row_hits == 1
    assert controller.device.row_misses == 1
    assert controller.device.row_conflicts == 1


def test_closed_page_never_hits_and_never_conflicts():
    sim = Simulator()
    timing = BankTiming(tcas_ns=200.0, trcd_ns=100.0, trp_ns=50.0)
    controller = BankDramController(
        sim, DramDevice(), timing=timing, page_policy="closed", refresh_mode="off"
    )
    transfer = controller.device.transfer_ns(64)
    for addr in (0, 64, ROW * BANKS, 0):
        assert _timed_read(sim, controller, addr) == pytest.approx(
            timing.miss_ns + transfer
        )
    assert controller.device.row_hits == 0
    assert controller.device.row_conflicts == 0
    assert controller.device.row_misses == 4
    for bank in range(BANKS):
        assert controller.device.open_row(bank) is None


def test_constructor_validates_policy_and_mode():
    sim = Simulator()
    with pytest.raises(ValueError):
        BankDramController(sim, page_policy="ajar")
    with pytest.raises(ValueError):
        BankDramController(sim, refresh_mode="sometimes")


# ------------------------------------------------------------------ refresh --
def test_engine_refresh_stalls_requests_in_every_window():
    sim = Simulator()
    timing = BankTiming(trefi_ns=1000.0, trfc_ns=100.0)
    controller = BankDramController(
        sim, DramDevice(), timing=timing, refresh_mode="engine"
    )

    def driver(sim):
        # Arrive exactly when refresh 1 becomes due: full tRFC stall.
        yield sim.timeout(1000.0)
        start = sim.now
        yield controller.read(0, 64)
        assert sim.now - start == pytest.approx(
            100.0 + timing.miss_ns + controller.device.transfer_ns(64)
        )

    _drive(sim, driver)
    assert controller.refreshes_completed == 1
    assert controller.refresh_stall_ns == pytest.approx(100.0)


def test_engine_refresh_covers_every_trefi_window_after_sync():
    sim = Simulator()
    timing = BankTiming(trefi_ns=500.0, trfc_ns=60.0)
    controller = BankDramController(
        sim, DramDevice(), timing=timing, refresh_mode="engine"
    )

    def driver(sim):
        for step in range(10):
            yield controller.read(step * 64, 64)
            yield sim.timeout(700.0)

    _drive(sim, driver)
    controller.sync_refresh()
    assert controller.refreshes_completed == int(sim.now // timing.trefi_ns)


def test_engine_refresh_in_idle_gap_costs_nothing_later():
    """Refreshes that ran during idle are done; the next burst only pays
    the remainder of an in-progress refresh, never the backlog."""
    sim = Simulator()
    timing = BankTiming(trefi_ns=1000.0, trfc_ns=100.0)
    controller = BankDramController(
        sim, DramDevice(), timing=timing, refresh_mode="engine"
    )

    def driver(sim):
        yield sim.timeout(10_500.0)  # 10 refreshes due, all ran while idle
        start = sim.now
        yield controller.read(0, 64)
        assert sim.now - start == pytest.approx(
            timing.miss_ns + controller.device.transfer_ns(64)
        )

    _drive(sim, driver)
    assert controller.refreshes_completed == 10
    assert controller.refresh_stall_ns == 0.0


def test_lazy_refresh_matches_legacy_accounting():
    sim = Simulator()
    timing = BankTiming(trefi_ns=1000.0, trfc_ns=100.0)
    controller = BankDramController(sim, DramDevice(), timing=timing)

    def driver(sim):
        yield sim.timeout(3500.0)  # 3 intervals elapsed
        start = sim.now
        yield controller.read(0, 64)
        # Lazy rule: exactly one tRFC charged, however many intervals.
        assert sim.now - start == pytest.approx(
            100.0 + timing.miss_ns + controller.device.transfer_ns(64)
        )

    _drive(sim, driver)
    assert controller.refreshes_completed == 3
    assert controller.refresh_stall_ns == pytest.approx(100.0)


def test_refresh_off_never_stalls():
    sim = Simulator()
    controller = BankDramController(
        sim, DramDevice(), timing=BankTiming(trefi_ns=10.0), refresh_mode="off"
    )

    def driver(sim):
        yield sim.timeout(1e6)
        yield controller.read(0, 64)

    _drive(sim, driver)
    assert controller.refreshes_completed == 0
    assert controller.refresh_stall_ns == 0.0


# -------------------------------------------------------------- multiplexer --
def test_round_robin_interleaves_masters():
    sim = Simulator()
    controller = BankDramController(sim, DramDevice(), refresh_mode="off")
    order = []

    def master(sim, name, count):
        for index in range(count):
            yield controller.read(index * 64, 64, master=name)
            order.append(name)

    sim.process(master(sim, "a", 4))
    sim.process(master(sim, "b", 4))
    sim.run()
    # Closed-loop masters with equal work alternate under round-robin.
    runs, longest = 1, 1
    for previous, current in zip(order, order[1:]):
        runs = runs + 1 if previous == current else 1
        longest = max(longest, runs)
    assert longest <= 2
    assert controller.masters["a"].requests == 4
    assert controller.masters["b"].requests == 4


def test_per_master_ledger_sums_to_controller_totals():
    sim = Simulator()
    controller = BankDramController(sim, DramDevice(), refresh_mode="off")

    def master(sim, name, count, write):
        for index in range(count):
            addr = index * 1024
            if write:
                yield controller.write(addr, bytes(1024), master=name)
            else:
                yield controller.read(addr, 1024, master=name)

    sim.process(master(sim, "reader", 5, False))
    sim.process(master(sim, "writer", 3, True))
    sim.run()
    ledgers = controller.masters
    assert ledgers["reader"].bytes == 5 * 1024
    assert ledgers["writer"].bytes == 3 * 1024
    total = controller.bytes_read + controller.bytes_written
    assert sum(ledger.bytes for ledger in ledgers.values()) == total
    assert sum(ledger.wait_ns for ledger in ledgers.values()) == pytest.approx(
        controller.queue_wait_ns
    )


def test_contended_masters_accumulate_queue_wait():
    sim = Simulator()
    controller = BankDramController(sim, DramDevice(), refresh_mode="off")

    def master(sim, name):
        for index in range(6):
            yield controller.read(index * 1024, 1024, master=name)

    sim.process(master(sim, "a"))
    sim.process(master(sim, "b"))
    sim.run()
    # Both submit at t=0; whoever is served second waited a full service.
    assert controller.queue_wait_ns > 0.0
    metric = controller.metrics.to_dict()["ddrc.queue_wait_ns"]
    assert metric["value"] == pytest.approx(controller.queue_wait_ns)


# -------------------------------------------------------------- fault hooks --
def test_fault_latency_hook_slows_request():
    sim = Simulator()
    controller = BankDramController(sim, DramDevice(), refresh_mode="off")
    controller.fault_latency_ns = lambda request: 5000.0
    base = BankTiming().miss_ns + controller.device.transfer_ns(64)
    assert _timed_read(sim, controller, 0) == pytest.approx(base + 5000.0)


def test_fault_read_tamper_hook_corrupts_data():
    sim = Simulator()
    controller = BankDramController(sim, DramDevice(), refresh_mode="off")
    controller.fault_read_tamper = lambda request, data: b"\xff" * len(data)
    got = {}

    def driver(sim):
        yield controller.write(0, b"\x00" * 16)
        got["data"] = yield controller.read(0, 16)

    _drive(sim, driver)
    assert got["data"] == b"\xff" * 16


def test_chaos_injector_arms_on_bank_controller():
    from repro.chaos import ChaosInjector, build_fault_plan
    from repro.core import PdrSystem

    system = PdrSystem()
    assert isinstance(system.dram_controller, BankDramController)
    plan = build_fault_plan(fault_seed=3, horizon_us=100.0, fault_count=4)
    injector = ChaosInjector(system, plan)
    injector.arm()
    assert system.dram_controller.fault_latency_ns is not None
    assert system.dram_controller.fault_read_tamper is not None


# ----------------------------------------------------------------- snapshot --
def test_device_capture_restore_roundtrips_bank_state():
    device = DramDevice()
    device.store(0x100, b"payload")
    device.bank_access(0, 64, "open")
    device.bank_access(ROW * BANKS, 64, "open")  # conflict in bank 0
    device.bank_access(0, 64, "open")            # conflict back
    state = device.capture_state()
    clone = DramDevice()
    clone.restore_state(state)
    assert clone.load(0x100, 7) == b"payload"
    assert clone.row_hits == device.row_hits
    assert clone.row_misses == device.row_misses
    assert clone.row_conflicts == device.row_conflicts == 2
    assert clone.open_row(0) == device.open_row(0)
    assert clone.capture_state() == state


def test_memory_request_carries_master_tag():
    request = MemoryRequest(addr=0, size=64, master="tenant")
    assert request.master == "tenant"
    assert MemoryRequest(addr=0, size=64).master == "m0"
