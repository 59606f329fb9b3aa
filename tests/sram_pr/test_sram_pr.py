"""Tests for the §VI proposed SRAM-based PR environment."""

import dataclasses

import pytest

from repro.fabric import Aes128Asp, FirFilterAsp, MatMulAsp
from repro.sim import Simulator
from repro.sram_pr import (
    BitstreamDecompressor,
    QdrSram,
    SramMemoryController,
    SramPrSystem,
    SramSlot,
    THEORETICAL_THROUGHPUT_MB_S,
)


# --------------------------------------------------------------------- SRAM --
def test_sram_write_read_roundtrip():
    sim = Simulator()
    sram = QdrSram(sim)
    got = {}

    def driver(sim):
        yield sram.write_burst(10, [0xAAAA, 0xBBBB])
        got["words"] = yield sram.read_burst(10, 2)

    sim.process(driver(sim))
    sim.run()
    assert got["words"] == [0xAAAA, 0xBBBB]


def test_sram_port_bandwidth_is_papers_estimate():
    """One port must stream at 1237.5 MB/s (550 MHz x 36 bit / 2)."""
    sim = Simulator()
    sram = QdrSram(sim)
    state = {}

    def driver(sim):
        start = sim.now
        yield sram.read_burst(0, 256 * 1024)  # 1 MiB
        state["rate"] = 256 * 1024 * 4 / (sim.now - start) * 1e3  # MB/s

    sim.process(driver(sim))
    sim.run()
    assert state["rate"] == pytest.approx(THEORETICAL_THROUGHPUT_MB_S, rel=0.001)


def test_sram_ports_are_independent():
    """A write and a read overlap fully (dual independent DDR ports)."""
    sim = Simulator()
    sram = QdrSram(sim)
    finish = {}

    def writer(sim):
        yield sram.write_burst(0, [0] * 65536)
        finish["write"] = sim.now

    def reader(sim):
        yield sram.read_burst(100_000, 65536)
        finish["read"] = sim.now

    sim.process(writer(sim))
    sim.process(reader(sim))
    sim.run()
    # Both finish at ~the single-port time: no serialisation.
    assert finish["write"] == pytest.approx(finish["read"], rel=0.01)


def test_sram_capacity_enforced():
    sim = Simulator()
    sram = QdrSram(sim)
    with pytest.raises(ValueError):
        sram.read_burst(0, sram.capacity_words + 1)
    with pytest.raises(ValueError):
        sram.write_burst(-1, [0])


# -------------------------------------------------------------- decompressor --
def test_decompressor_roundtrip_and_stats():
    from repro.bitstream import compress_words

    decomp = BitstreamDecompressor()
    words = [0] * 1000 + list(range(50))
    compressed = compress_words(words)
    assert decomp.decode(compressed) == words
    assert decomp.streams_decoded == 1
    assert decomp.lifetime_ratio > 10


def test_decompressor_validate():
    from repro.bitstream import compress_words

    good = compress_words([1, 2, 3])
    assert BitstreamDecompressor.validate(good)
    assert not BitstreamDecompressor.validate([0xBAD, 1, 2])


# ------------------------------------------------------------------ memctrl --
def test_memctrl_slot_lifecycle():
    sim = Simulator()
    ctrl = SramMemoryController(sim)
    slot = SramSlot("img", word_count=4, compressed=False, region="RP1", region_crc=0)

    def driver(sim):
        yield sim.process(ctrl.fill(slot, [1, 2, 3, 4]))

    sim.run_until(sim.process(driver(sim)))
    assert ctrl.slot_valid
    assert ctrl.fills_completed == 1
    ctrl.invalidate()
    assert not ctrl.slot_valid


def test_memctrl_rejects_oversized_image():
    sim = Simulator()
    ctrl = SramMemoryController(sim)
    huge = SramSlot(
        "huge",
        word_count=ctrl.sram.capacity_words + 1,
        compressed=False,
        region="RP1",
        region_crc=0,
    )
    with pytest.raises(ValueError, match="compress"):
        ctrl.begin_fill(huge)


def test_memctrl_incomplete_fill_rejected():
    sim = Simulator()
    ctrl = SramMemoryController(sim)
    slot = SramSlot("img", word_count=8, compressed=False, region="RP1", region_crc=0)
    ctrl.begin_fill(slot)
    ctrl.write_chunk([1, 2, 3])
    with pytest.raises(RuntimeError, match="incomplete"):
        ctrl.finish_fill()


def test_memctrl_read_requires_valid_slot():
    sim = Simulator()
    ctrl = SramMemoryController(sim)
    with pytest.raises(RuntimeError, match="valid"):
        list(ctrl.read_slot())


# ------------------------------------------------------------- full system --
@pytest.fixture(scope="module")
def system():
    return SramPrSystem()


def test_uncompressed_hits_theoretical_throughput(system):
    result = system.reconfigure("RP1", Aes128Asp([5, 6, 7, 8]), compress=False)
    assert result.crc_valid
    assert result.activation.config_ok
    assert result.throughput_mb_s == pytest.approx(
        THEORETICAL_THROUGHPUT_MB_S, rel=0.005
    )


def test_activation_functionally_configures_region(system):
    system.reconfigure("RP2", FirFilterAsp([3, 2, 1]), compress=False)
    assert system.run_asp("RP2", [1, 0, 0, 0]) == [3, 2, 1, 0]


def test_compression_beats_sram_bandwidth(system):
    result = system.reconfigure("RP3", FirFilterAsp([4, 4]), compress=True)
    assert result.crc_valid
    assert result.activation.compressed
    assert result.activation.compression_ratio > 1.3
    assert result.throughput_mb_s > THEORETICAL_THROUGHPUT_MB_S
    # ... but never beyond the 550 MHz ICAP hard-macro ceiling.
    assert result.throughput_mb_s <= 2200.0 * 1.01


def test_proposed_faster_than_fig2_system(system):
    """The paper: 'almost double the one measured' vs the Fig. 2 system's
    ~790 MB/s ceiling."""
    result = system.reconfigure("RP4", Aes128Asp([1, 0, 0, 1]), compress=False)
    assert result.throughput_mb_s / 790.14 > 1.5


def test_slot_is_one_shot(system):
    system.reconfigure("RP1", FirFilterAsp([1]), compress=False)
    with pytest.raises(RuntimeError):
        # A second activation without a new preload must fail: the slot
        # holds one bitstream at a time (paper SectionVI).
        system.sim.run_until(
            system.sim.process(system.pr_controller.activate())
        )


def test_preload_overlaps_with_activation_timing(system):
    """Preload (DRAM-bound, ~816 MB/s) is slower than activation
    (1237.5 MB/s) — exactly why hiding it behind compute matters."""
    result = system.reconfigure("RP2", Aes128Asp([2, 2, 2, 2]), compress=False)
    assert result.preload_us > result.activation_latency_us


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "compressed"])
def test_random_asp_roundtrips_through_proposed_system(compress):
    """Arbitrary ASP parameters survive the full SectionVI pipeline:
    build -> (compress) -> DRAM -> SRAM -> (decompress) -> ICAP -> fabric."""
    from repro.fabric import VectorScaleAsp

    system = SramPrSystem()
    for seed in (0x1234, 0xBEEF, 0x7FFF_FFFF):
        asp = VectorScaleAsp(scale=seed & 0xFFFF, offset=seed >> 16)
        result = system.reconfigure("RP1", asp, compress=compress)
        assert result.crc_valid, hex(seed)
        assert system.run_asp("RP1", [1, 2]) == asp.process([1, 2])


def test_activation_results_are_pinned():
    """Preload (DRAM → SRAM) and activation timings of three cycles.

    ``preload_us`` crosses the PS DRAM controller, so this pins the
    memory path the scheduler's staging reads take.  The kernel event
    count is not pinned: it belongs to the controller's queueing.
    """
    system = SramPrSystem()
    cycles = [
        ("RP1", FirFilterAsp([1, 2, 3, 4]), True),
        ("RP2", Aes128Asp([1, 2, 3, 4]), False),
        ("RP3", MatMulAsp(2), True),
    ]
    results = [
        dataclasses.asdict(system.reconfigure(region, asp, compress=compress))
        for region, asp, compress in cycles
    ]

    def expected(region, preload_us, latency_us, sram_words, compressed):
        return {
            "region": region,
            "preload_us": preload_us,
            "crc_valid": True,
            "activation": {
                "region": region,
                "latency_us": latency_us,
                "bitstream_words": 131847,
                "sram_words": sram_words,
                "compressed": compressed,
                "config_ok": True,
            },
        }

    assert results == [
        expected("RP1", 292.81132424242463, 246.34161616161612, 75982, True),
        expected("RP2", 505.6985161616063, 426.2013712121154, 131847, False),
        expected("RP3", 294.70546565657713, 247.18962525252184, 76469, True),
    ]
