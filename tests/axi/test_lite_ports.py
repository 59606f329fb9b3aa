"""Tests for AXI-Lite register files, the interconnect and the Zynq ports."""

import pytest

from repro.axi import (
    AxiAcpPort,
    AxiHpPort,
    AxiInterconnect,
    AxiLiteError,
    AxiLiteRegisterFile,
)
from repro.dram import BankDramController, DramDevice
from repro.sim import ClockDomain, Simulator


# ----------------------------------------------------------------- AXI-Lite --
@pytest.fixture()
def regs():
    sim = Simulator()
    clock = ClockDomain(sim, 100.0)
    return sim, AxiLiteRegisterFile(sim, clock)


def test_define_and_peek(regs):
    _sim, file = regs
    file.define(0x0, reset=0xABCD)
    assert file.peek(0x0) == 0xABCD


def test_unaligned_and_duplicate_offsets_rejected(regs):
    _sim, file = regs
    with pytest.raises(ValueError):
        file.define(0x3)
    file.define(0x4)
    with pytest.raises(ValueError):
        file.define(0x4)


def test_timed_read_write(regs):
    sim, file = regs
    file.define(0x8)
    done = {}

    def driver(sim):
        yield file.write(0x8, 0x1234)
        value = yield file.read(0x8)
        done["value"] = value
        done["time"] = sim.now

    sim.process(driver(sim))
    sim.run()
    assert done["value"] == 0x1234
    # Two 5-cycle accesses at 100 MHz = 100 ns.
    assert done["time"] == pytest.approx(100.0)


def test_write_hook_and_read_hook(regs):
    sim, file = regs
    seen = []
    file.define(0xC, on_write=seen.append)
    file.define(0x10, on_read=lambda: 0x5A)

    def driver(sim):
        yield file.write(0xC, 7)

    sim.process(driver(sim))
    sim.run()
    assert seen == [7]
    assert file.peek(0x10) == 0x5A


def test_read_only_register(regs):
    _sim, file = regs
    file.define(0x14, read_only=True)
    with pytest.raises(AxiLiteError):
        file.write(0x14, 1)


def test_unknown_offset_rejected(regs):
    _sim, file = regs
    with pytest.raises(AxiLiteError):
        file.read(0x40)


# ----------------------------------------------------- interconnect + ports --
def _memory_system():
    sim = Simulator()
    device = DramDevice()
    controller = BankDramController(sim, device)
    interconnect = AxiInterconnect(sim, controller)
    return sim, device, interconnect


def test_interconnect_read_returns_data():
    sim, device, interconnect = _memory_system()
    device.store(0x100, b"\xde\xad\xbe\xef")
    got = {}

    def reader(sim):
        got["data"] = yield interconnect.read(0x100, 4)

    sim.process(reader(sim))
    sim.run()
    assert got["data"] == b"\xde\xad\xbe\xef"


def test_interconnect_write_then_read():
    sim, _device, interconnect = _memory_system()
    got = {}

    def driver(sim):
        yield interconnect.write(0x2000, b"hello world!")
        got["data"] = yield interconnect.read(0x2000, 12)

    sim.process(driver(sim))
    sim.run()
    assert got["data"] == b"hello world!"


def test_interconnect_serialises_masters():
    """Two concurrent 1 KiB reads take about twice one read's time."""
    sim, _device, interconnect = _memory_system()
    finish = {}

    def reader(sim, tag):
        yield interconnect.read(0x0, 1024)
        finish[tag] = sim.now

    sim.process(reader(sim, "a"))
    sim.process(reader(sim, "b"))
    sim.run()
    assert finish["b"] > finish["a"] * 1.8


def test_hp_port_calibrated_burst_rate():
    """The HP read path must match the paper-derived ~816 MB/s for
    sequential 1 KiB bursts (DESIGN.md section 5)."""
    sim, _device, interconnect = _memory_system()
    port = AxiHpPort(sim, interconnect)
    state = {}

    def reader(sim):
        start = sim.now
        total = 128 * 1024
        addr = 0
        while addr < total:
            yield port.read(addr, 1024)
            addr += 1024
        state["rate"] = total / (sim.now - start) * 1e3  # MB/s

    sim.process(reader(sim))
    sim.run()
    assert state["rate"] == pytest.approx(816.0, rel=0.03)


def test_hp_port_raw_bandwidth():
    sim, _device, interconnect = _memory_system()
    port = AxiHpPort(sim, interconnect)
    assert port.raw_bandwidth_bytes_per_ns == pytest.approx(1.2)  # 1200 MB/s


def test_acp_port_rejects_bulk_transfers():
    sim, _device, interconnect = _memory_system()
    acp = AxiAcpPort(sim, interconnect)
    with pytest.raises(ValueError, match="cache"):
        acp.read(0, AxiAcpPort.CACHE_BYTES + 1)


def test_acp_port_low_latency_small_reads():
    """ACP beats HP for small transfers (the cache-hit path)."""
    sim, device, interconnect = _memory_system()
    device.store(0, bytes(256))
    acp = AxiAcpPort(sim, interconnect)
    hp = AxiHpPort(sim, interconnect)
    times = {}

    def run(sim):
        start = sim.now
        yield acp.read(0, 256)
        times["acp"] = sim.now - start
        start = sim.now
        yield hp.read(0, 256)
        times["hp"] = sim.now - start

    sim.process(run(sim))
    sim.run()
    assert times["acp"] < times["hp"]
