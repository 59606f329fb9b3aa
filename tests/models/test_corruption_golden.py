"""Pinned over-clock corruption pattern.

The word corruptor's xorshift generator is inlined for speed.  These
tests pin its output on the paper's two failure regimes — saturated
(360 MHz against a 315 MHz fmax, at 40 °C) and marginal (320 MHz against
the same fmax, at 80 °C) — and check the inlined loop against :func:`_xorshift32`
step by step, so the corruption pattern (and with it every CRC-invalid
Table I result) cannot drift.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.crc import crc32c_words
from repro.timing.failures import (
    _salt_words,
    _xorshift32,
    corruption_rate,
    make_word_corruptor,
)

#: A fixed word vector and the uneven bursts it is fed in.
WORDS = [(i * 2654435761 + 12345) & 0xFFFFFFFF for i in range(6000)]
BURSTS = [1, 7, 256, 33, 1000, 2, 511, 4096]


def _feed(corrupt, words, sizes):
    out, index, cycle = [], 0, 0
    while index < len(words):
        size = sizes[cycle % len(sizes)]
        out += corrupt(words[index : index + size])
        index += size
        cycle += 1
    return out


def _reference_corruptor(freq_mhz, fmax_mhz, temp_c, region="", attempt=0):
    """The corruptor spelled out with one :func:`_xorshift32` call per step."""
    threshold = int(corruption_rate(freq_mhz, fmax_mhz) * 0xFFFFFFFF)
    seed = crc32c_words(
        [
            int(freq_mhz * 1000) & 0xFFFFFFFF,
            int(temp_c * 1000) & 0xFFFFFFFF,
            attempt,
            *_salt_words(region),
        ]
    ) or 0x1234ABCD
    state_box = [seed]

    def corrupt(words):
        state = state_box[0]
        out = list(words)
        for i in range(len(out)):
            state = _xorshift32(state)
            if state < threshold:
                state = _xorshift32(state)
                out[i] ^= state or 0x1
        state_box[0] = state
        return out

    return corrupt


@pytest.mark.parametrize(
    "point, digest, corrupted",
    [
        (
            (360.0, 315.0, 40.0),
            "928a001f2b1029cc795c116b5aa28ee62680c21a45141ebe37025b46050654b5",
            4447,
        ),
        (
            (320.0, 315.0, 80.0),
            "b87f945c1d1f8f870478e40f89d5389837ad8c8b3bd06fa1f9759c656c2d80f1",
            46,
        ),
    ],
    ids=["360MHz-40C", "320MHz-80C"],
)
def test_corruption_output_is_pinned(point, digest, corrupted):
    out = _feed(make_word_corruptor(*point), WORDS, BURSTS)
    assert len(out) == len(WORDS)
    assert hashlib.sha256(struct.pack(f"<{len(out)}I", *out)).hexdigest() == digest
    assert sum(a != b for a, b in zip(WORDS, out)) == corrupted


@pytest.mark.parametrize("point", [(360.0, 315.0, 40.0), (320.0, 315.0, 80.0)])
def test_inlined_generator_matches_xorshift_reference(point):
    fast = make_word_corruptor(*point)
    reference = _reference_corruptor(*point)
    index, cycle = 0, 0
    while index < len(WORDS):
        burst = WORDS[index : index + BURSTS[cycle % len(BURSTS)]]
        assert fast(burst) == reference(burst)
        index += len(burst)
        cycle += 1


@settings(max_examples=40, deadline=None)
@given(
    freq=st.floats(316.0, 480.0),
    temp=st.sampled_from([40.0, 60.0, 80.0, 100.0]),
    attempt=st.integers(0, 5),
    region=st.sampled_from(["", "RP1", "RP4"]),
    sizes=st.lists(st.integers(1, 64), min_size=1, max_size=5),
)
def test_inlined_generator_matches_reference_anywhere(freq, temp, attempt, region, sizes):
    fast = make_word_corruptor(freq, 315.0, temp, region, attempt)
    reference = _reference_corruptor(freq, 315.0, temp, region, attempt)
    words = WORDS[:300]
    assert _feed(fast, words, sizes) == _feed(reference, words, sizes)
