"""Differential test: bulk ``ConfigPort.feed_words`` vs per-word ``feed_word``.

``feed_word`` is the reference.  Every stream below is split into bursts
and fed both ways; after every burst the two ports must agree on every
observable — flags, packet/payload state, FAR, the FDRI pipeline, the
counters, the CRC accumulator and the configuration memory.  Streams
mix real builder bitstreams (clean, and corrupted by the over-clock
fault injector), junk before sync, hand-built packet runs to FAR, CMD,
IDCODE, CRC and unmapped registers, and words wider than 32 bits.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitstream import (
    BitstreamBuilder,
    Command,
    ConfigRegister,
    DeviceLayout,
    FrameAddress,
    NOOP_WORD,
    OP_WRITE,
    RegionSpec,
    SYNC_WORD,
    make_z7020_layout,
    type1,
    type2,
)
from repro.bitstream.device import ColumnType
from repro.fabric import ConfigMemory, FirFilterAsp, encode_asp_frames
from repro.icap import ConfigPort
from repro.core import TABLE1_BITSTREAM_BYTES
from repro.experiments.table1 import WORKLOAD_ASP
from repro.timing import PDR_DATA_PATH, default_timing_model
from repro.timing.failures import make_word_corruptor

#: A small device so the per-word reference stays quick: one row per
#: half, four columns, two regions of 64 and 92 frames.
SMALL_LAYOUT = DeviceLayout(
    rows=1,
    columns=[ColumnType.IOB, ColumnType.CLB, ColumnType.BRAM, ColumnType.CLB],
    regions={
        "RA": RegionSpec("RA", row=0, col_start=1, col_end=2),
        "RB": RegionSpec("RB", row=1, col_start=1, col_end=3),
    },
    idcode=make_z7020_layout().idcode,
)

_FAR = int(ConfigRegister.FAR)
_CMD = int(ConfigRegister.CMD)
_IDCODE = int(ConfigRegister.IDCODE)
_CRC = int(ConfigRegister.CRC)
_FDRI = int(ConfigRegister.FDRI)
#: Registers with no side effect beyond the CRC fold (two of them
#: unmapped in the register map).
_PLAIN_REGISTERS = (int(ConfigRegister.COR0), int(ConfigRegister.MASK), 21, 22, 31)


def _build(layout, region, asp, pad_to_bytes=None):
    frames = encode_asp_frames(layout.region_frame_count(region), asp)
    builder = BitstreamBuilder(layout)
    return tuple(builder.build_partial(region, frames, pad_to_bytes=pad_to_bytes).words)


@lru_cache(maxsize=None)
def _small_bitstream(region: str, taps: tuple):
    return _build(SMALL_LAYOUT, region, FirFilterAsp(list(taps)))


@lru_cache(maxsize=None)
def _table1_bitstream():
    """The stream every Table I point loads: the Table I ASP on RP1."""
    return _build(make_z7020_layout(), "RP1", WORKLOAD_ASP, TABLE1_BITSTREAM_BYTES)


def _observe(port: ConfigPort) -> dict:
    return {
        "synced": port.synced,
        "desynced": port.desynced,
        "wcfg_active": port.wcfg_active,
        "crc_error": port.crc_error,
        "idcode_error": port.idcode_error,
        "last_register": port._last_register,
        "payload_register": port._payload_register,
        "payload_remaining": port._payload_remaining,
        "far_index": port._far_index,
        "frame_buffer": bytes(port._frame_buffer),
        "held_frame": port._held_frame,
        "words_consumed": port.words_consumed,
        "frames_committed": port.frames_committed,
        "crc_value": port.crc.value,
        "crc_words_folded": port.crc.words_folded,
        "crc_latched": port.crc.error,
    }


def _memory(port: ConfigPort) -> bytes:
    return port.memory.read_frames_packed(0, port.layout.total_frames)


def _split(words, sizes):
    bursts, index, cycle = [], 0, 0
    while index < len(words):
        size = sizes[cycle % len(sizes)]
        bursts.append(list(words[index : index + size]))
        index += size
        cycle += 1
    return bursts


def assert_bulk_matches_reference(layout, bursts) -> ConfigPort:
    bulk = ConfigPort(ConfigMemory(layout))
    reference = ConfigPort(ConfigMemory(layout))
    for number, burst in enumerate(bursts):
        bulk.feed_words(burst)
        for word in burst:
            reference.feed_word(word)
        assert _observe(bulk) == _observe(reference), f"diverged after burst {number}"
    assert _memory(bulk) == _memory(reference)
    return bulk


# -- stream pieces -----------------------------------------------------------
_words32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

#: Ways to push a word outside 32 bits (the port keeps the low 32):
#: keep it, set bit 32, add high garbage, or make it negative.
_WIDENINGS = ("keep", "bit32", "high", "negative")


def _widen(word: int, how: str) -> int:
    if how == "bit32":
        return word | (1 << 32)
    if how == "high":
        return word + (7 << 40)
    if how == "negative":
        return word - (1 << 32)
    return word


def _far_words(layout):
    valid = st.integers(0, layout.total_frames - 1).map(
        lambda index: layout.frame_address(index).encode()
    )
    return st.one_of(valid, _words32)


@st.composite
def _packet_run(draw, layout):
    """One hand-built write packet (type 1, or type 1 + type 2) and payload."""
    register = draw(st.sampled_from((_FAR, _CMD, _IDCODE, _CRC, _FDRI) + _PLAIN_REGISTERS))
    count = draw(st.integers(0, 300))
    if register == _FAR:
        payload = draw(st.lists(_far_words(layout), min_size=count, max_size=count))
    elif register == _CMD:
        payload = draw(
            st.lists(st.sampled_from([int(c) for c in Command]), min_size=count, max_size=count)
        )
    elif register == _IDCODE:
        good = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        payload = [layout.idcode if ok else layout.idcode ^ 1 for ok in good]
    else:
        payload = draw(st.lists(_words32, min_size=count, max_size=count))
    if payload and draw(st.booleans()):
        payload = [_widen(word, draw(st.sampled_from(_WIDENINGS))) for word in payload]
    if count <= 0x7FF and draw(st.booleans()):
        return [type1(OP_WRITE, register, count)] + payload
    return [type1(OP_WRITE, register, 0), type2(OP_WRITE, count)] + payload


@st.composite
def _stream(draw):
    layout = SMALL_LAYOUT
    pieces = []
    if draw(st.booleans()):
        pieces.append(draw(st.lists(_words32, max_size=40)))  # junk before sync
    region = draw(st.sampled_from(sorted(layout.regions)))
    taps = tuple(draw(st.lists(st.integers(-64, 64), min_size=1, max_size=4)))
    bitstream = list(_small_bitstream(region, taps))
    if draw(st.booleans()):
        corruptor = make_word_corruptor(
            draw(st.sampled_from([318.0, 325.0, 340.0, 360.0, 420.0])),
            315.0,
            draw(st.sampled_from([40.0, 70.0, 100.0])),
            region,
            draw(st.integers(0, 3)),
        )
        bitstream = corruptor(bitstream)
    pieces.append(bitstream)
    for _ in range(draw(st.integers(0, 4))):
        run = draw(_packet_run(layout))
        if draw(st.booleans()):
            run = [SYNC_WORD, NOOP_WORD] + run
        pieces.insert(draw(st.integers(0, len(pieces))), run)
    words = [word for piece in pieces for word in piece]
    for _ in range(draw(st.integers(0, 6))):
        if not words:
            break
        index = draw(st.integers(0, len(words) - 1))
        words[index] = _widen(words[index], draw(st.sampled_from(_WIDENINGS)))
    if draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), SYNC_WORD | (1 << 33))
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=8))
    return _split(words, sizes)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_stream())
def test_bulk_feed_matches_per_word_reference(bursts):
    assert_bulk_matches_reference(SMALL_LAYOUT, bursts)


@pytest.mark.parametrize(
    "freq_mhz, temp_c",
    [(320.0, 80.0), (360.0, 40.0), (360.0, 70.0)],
    ids=["far-run", "plain-register-run", "unsynced"],
)
def test_paper_overclock_points_match_reference(freq_mhz, temp_c):
    """The three over-clocked Table I points whose corrupted streams leave
    the FDRI path for good (a ~132 k-word FAR payload, payloads to
    unmapped registers, a corrupted sync word), fed as the system feeds
    them: the Table I bitstream in DMA-sized bursts."""
    words = _table1_bitstream()
    fmax = default_timing_model().path(PDR_DATA_PATH).fmax_mhz(temp_c)
    corrupt = make_word_corruptor(freq_mhz, fmax, temp_c)
    bursts = [corrupt(burst) for burst in _split(words, [256])]
    port = assert_bulk_matches_reference(make_z7020_layout(), bursts)
    assert port.words_consumed == len(words)
    assert port.has_error or not port.desynced


def test_clean_bitstream_matches_reference_at_every_burst_size():
    words = _small_bitstream("RB", (3, -1))
    for size in (1, 2, 7, 101, 256, len(words)):
        port = assert_bulk_matches_reference(SMALL_LAYOUT, _split(words, [size]))
        assert port.desynced and not port.has_error
        assert port.frames_committed == SMALL_LAYOUT.region_frame_count("RB")


@pytest.mark.parametrize("register", [_FAR, _CMD, _IDCODE, _CRC, _FDRI, 21])
@pytest.mark.parametrize("how", ["bit32", "negative"])
def test_wide_payload_words_match_reference(register, how):
    """Every payload kind keeps the low 32 bits of wider words."""
    layout = SMALL_LAYOUT
    payload = {
        _FAR: [layout.frame_address(3).encode(), 0x00FFFFFF, layout.frame_address(7).encode()],
        _CMD: [int(Command.WCFG), int(Command.NULL), int(Command.RCRC)],
        _IDCODE: [layout.idcode, layout.idcode ^ 2, layout.idcode],
    }.get(register, [0x12345678, 0x9ABCDEF0, 0x0F0F0F0F, 0x1])
    payload = payload * 8
    words = [SYNC_WORD, type1(OP_WRITE, register, 0), type2(OP_WRITE, len(payload))]
    words += [_widen(word, how) for word in payload]
    for size in (1, 5, len(words)):
        assert_bulk_matches_reference(layout, _split(words, [size]))


def test_idcode_run_with_one_bad_word_latches_error():
    layout = SMALL_LAYOUT
    payload = [layout.idcode] * 20
    payload[11] ^= 0x10
    words = [SYNC_WORD, type1(OP_WRITE, _IDCODE, len(payload))] + payload
    port = assert_bulk_matches_reference(layout, [words])
    assert port.idcode_error


def test_frame_index_of_word_matches_frame_index():
    layout = make_z7020_layout()
    probes = [layout.frame_address(i).encode() for i in range(0, layout.total_frames, 97)]
    probes += [0x00FFFFFF, 1 << 23, 0x7F, 0xFFFFFFFF, 79 << 7, (1 << 22) | (2 << 17)]
    for word in probes:
        try:
            expected = layout.frame_index(FrameAddress.decode(word))
        except ValueError:
            expected = -1
        assert layout.frame_index_of_word(word) == expected


def test_sync_scan_counts_skipped_words():
    port = ConfigPort(ConfigMemory(SMALL_LAYOUT))
    port.feed_words([0xFFFFFFFF] * 1000)
    assert not port.synced and port.words_consumed == 1000
    port.feed_words([1, 2, SYNC_WORD, NOOP_WORD])
    assert port.synced and port.words_consumed == 1004
