"""Application-Specific Processors (ASPs) and their frame encoding.

The paper's motivation is swapping ASPs — crypto engines, filters, etc. —
into reconfigurable partitions on demand.  In this reproduction the ASPs
are *functional*: the frames written into a partition encode which ASP it
implements and its parameters, and :func:`decode_asp` +
:func:`instantiate_asp` turn the partition's configuration memory back
into an executable model.  Reconfiguring a region really changes what it
computes, which the integration tests verify end to end.

Frame encoding (region frame 0):

====  ===========================================
word  meaning
====  ===========================================
0     ``ASP_MAGIC`` (0x41535031, "ASP1")
1     ASP kind id (:class:`AspKind`)
2     parameter word count ``P``
3..   ``P`` parameter words (may spill into subsequent frames)
====  ===========================================

Remaining frame words carry deterministic pseudo-random "routing/LUT"
content derived from the parameters, so different ASPs produce genuinely
different (and realistically compressible) bitstreams.
"""

from __future__ import annotations

import struct

from typing import List, Optional, Sequence, Tuple

from ..bitstream.crc import crc32c_words
from ..bitstream.device import FRAME_WORDS

__all__ = [
    "ASP_MAGIC",
    "AspKind",
    "Asp",
    "PassthroughAsp",
    "FirFilterAsp",
    "Aes128Asp",
    "MatMulAsp",
    "Crc32Asp",
    "encode_asp_frames",
    "encode_asp_packed",
    "decode_asp",
    "instantiate_asp",
    "AspDecodeError",
]

ASP_MAGIC = 0x41535031  # "ASP1"

_MASK32 = 0xFFFFFFFF


class AspDecodeError(ValueError):
    """The region's frames do not contain a well-formed ASP header."""


class AspKind:
    """ASP kind identifiers carried in the configuration frames."""

    PASSTHROUGH = 0
    FIR_FILTER = 1
    AES128 = 2
    MATMUL = 3
    CRC32 = 4
    SHA256 = 5
    VECTOR_SCALE = 6

    NAMES = {
        PASSTHROUGH: "passthrough",
        FIR_FILTER: "fir-filter",
        AES128: "aes-128",
        MATMUL: "matmul",
        CRC32: "crc32",
        SHA256: "sha-256",
        VECTOR_SCALE: "vector-scale",
    }


class Asp:
    """Base class: a functional model with a word-stream interface."""

    kind: int = -1

    def process(self, words: Sequence[int]) -> List[int]:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return AspKind.NAMES.get(self.kind, f"kind{self.kind}")

    def params(self) -> List[int]:
        """Parameter words as encoded into the configuration frames."""
        raise NotImplementedError


class PassthroughAsp(Asp):
    """Identity datapath (useful as a 'blank but valid' configuration)."""

    kind = AspKind.PASSTHROUGH

    def process(self, words: Sequence[int]) -> List[int]:
        return [w & _MASK32 for w in words]

    def params(self) -> List[int]:
        return []


class FirFilterAsp(Asp):
    """Integer FIR filter: y[n] = sum_k c[k] * x[n-k].

    Coefficients and samples are 32-bit two's-complement words; outputs are
    truncated back to 32 bits (as a fixed-point hardware datapath would).
    """

    kind = AspKind.FIR_FILTER

    def __init__(self, coefficients: Sequence[int]):
        if not coefficients:
            raise ValueError("FIR filter needs at least one coefficient")
        self.coefficients = [int(c) for c in coefficients]

    @staticmethod
    def _signed(word: int) -> int:
        word &= _MASK32
        return word - (1 << 32) if word & 0x80000000 else word

    def process(self, words: Sequence[int]) -> List[int]:
        samples = [self._signed(w) for w in words]
        out = []
        for n in range(len(samples)):
            acc = 0
            for k, coeff in enumerate(self.coefficients):
                if n - k < 0:
                    break
                acc += self._signed(coeff) * samples[n - k]
            out.append(acc & _MASK32)
        return out

    def params(self) -> List[int]:
        return [len(self.coefficients)] + [c & _MASK32 for c in self.coefficients]


class Aes128Asp(Asp):
    """AES-128 ECB encryption engine (the paper's 'crypto engine' ASP).

    The key is the four parameter words; :meth:`process` consumes multiples
    of four words (16-byte blocks) and returns the encrypted blocks.
    """

    kind = AspKind.AES128

    def __init__(self, key_words: Sequence[int]):
        if len(key_words) != 4:
            raise ValueError("AES-128 key must be exactly 4 words")
        self.key_words = [k & _MASK32 for k in key_words]
        key = b"".join(k.to_bytes(4, "big") for k in self.key_words)
        self._round_keys = _aes_key_schedule(key)

    def process(self, words: Sequence[int]) -> List[int]:
        if len(words) % 4:
            raise ValueError("AES input must be a multiple of 4 words")
        out: List[int] = []
        for i in range(0, len(words), 4):
            block = b"".join((w & _MASK32).to_bytes(4, "big") for w in words[i : i + 4])
            cipher = _aes_encrypt_block(block, self._round_keys)
            out.extend(
                int.from_bytes(cipher[j : j + 4], "big") for j in range(0, 16, 4)
            )
        return out

    def params(self) -> List[int]:
        return list(self.key_words)


class MatMulAsp(Asp):
    """n×n integer matrix multiply: input is A then B row-major, output A·B."""

    kind = AspKind.MATMUL

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("matrix dimension must be >= 1")
        self.n = int(n)

    def process(self, words: Sequence[int]) -> List[int]:
        n = self.n
        if len(words) != 2 * n * n:
            raise ValueError(f"matmul({n}) needs {2 * n * n} input words")
        a = [words[i * n : (i + 1) * n] for i in range(n)]
        b = [words[n * n + i * n : n * n + (i + 1) * n] for i in range(n)]
        out = []
        for i in range(n):
            for j in range(n):
                out.append(sum(a[i][k] * b[k][j] for k in range(n)) & _MASK32)
        return out

    def params(self) -> List[int]:
        return [self.n]


class Crc32Asp(Asp):
    """CRC-32C offload engine: digests the whole input into one word."""

    kind = AspKind.CRC32

    def process(self, words: Sequence[int]) -> List[int]:
        return [crc32c_words([w & _MASK32 for w in words])]

    def params(self) -> List[int]:
        return []


class Sha256Asp(Asp):
    """SHA-256 hash engine: digests the word stream into eight words.

    Words are hashed in big-endian byte order (the natural AXI-Stream
    framing for a hardware hash core).
    """

    kind = AspKind.SHA256

    def process(self, words: Sequence[int]) -> List[int]:
        import hashlib

        data = b"".join((w & _MASK32).to_bytes(4, "big") for w in words)
        digest = hashlib.sha256(data).digest()
        return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 32, 4)]

    def params(self) -> List[int]:
        return []


class VectorScaleAsp(Asp):
    """Fixed-point vector scale-and-offset: y = (a * x + b) mod 2^32.

    The simplest useful streaming datapath (gain + bias), configured by
    two parameter words.
    """

    kind = AspKind.VECTOR_SCALE

    def __init__(self, scale: int, offset: int = 0):
        self.scale = int(scale) & _MASK32
        self.offset = int(offset) & _MASK32

    def process(self, words: Sequence[int]) -> List[int]:
        return [((w & _MASK32) * self.scale + self.offset) & _MASK32 for w in words]

    def params(self) -> List[int]:
        return [self.scale, self.offset]


# --------------------------------------------------------------------------
# Frame encode / decode
# --------------------------------------------------------------------------
def _xorshift32(state: int) -> int:
    state &= _MASK32
    state ^= (state << 13) & _MASK32
    state ^= state >> 17
    state ^= (state << 5) & _MASK32
    return state & _MASK32


try:  # optional: vectorised fill when numpy is present (bit-identical)
    import numpy as _np
except ImportError:  # pragma: no cover - depends on environment
    _np = None


# -- GF(2) linear-operator helpers for the vectorised fill -------------------
# xorshift32 is linear over GF(2), so k steps compose into one 32x32 bit
# matrix, carried here as 32 basis images and applied via 4 x 256 lookup
# tables (the same representation the CRC fast path uses).
def _lin_tables(imgs: List[int]) -> List[List[int]]:
    tables = []
    for part in range(4):
        base = imgs[8 * part : 8 * part + 8]
        tab = [0] * 256
        for v in range(1, 256):
            lsb = v & -v
            tab[v] = tab[v ^ lsb] ^ base[lsb.bit_length() - 1]
        tables.append(tab)
    return tables


def _lin_apply(tabs: List[List[int]], x: int) -> int:
    return (
        tabs[0][x & 0xFF]
        ^ tabs[1][(x >> 8) & 0xFF]
        ^ tabs[2][(x >> 16) & 0xFF]
        ^ tabs[3][x >> 24]
    )


def _lin_compose(a_imgs: List[int], b_imgs: List[int]) -> List[int]:
    ta = _lin_tables(a_imgs)
    return [_lin_apply(ta, x) for x in b_imgs]


_XS_JUMP_CACHE: dict = {}


def _xorshift_jump_tables(steps: int) -> List[List[int]]:
    """Lookup tables advancing a xorshift32 state by ``steps`` steps."""
    cached = _XS_JUMP_CACHE.get(steps)
    if cached is not None:
        return cached
    imgs = [1 << b for b in range(32)]  # identity
    sq = [_xorshift32(1 << b) for b in range(32)]
    exp = steps
    while exp:
        if exp & 1:
            imgs = _lin_compose(sq, imgs)
        exp >>= 1
        if exp:
            sq = _lin_compose(sq, sq)
    tables = _lin_tables(imgs)
    _XS_JUMP_CACHE[steps] = tables
    return tables


def _fill_packed_numpy(header: List[int], words_total: int, seed: int) -> bytes:
    """Vectorised equivalent of the scalar fill loop in encode_asp_packed,
    returned as packed little-endian bytes.

    The walk consumes one xorshift state per word, plus one more for every
    written word (states divisible by 4 trigger a second advance whose
    result is stored).  The orbit itself is generated as 2048 parallel
    streams — seeded via a jump operator, advanced in lock-step — and the
    data-dependent consume-1-or-2 pattern is resolved without a scalar
    loop: within each run of trigger-eligible states, inspections
    alternate, so run-start indices plus parity give the inspected set.
    """
    n = words_total - len(header)
    m = 2 * n + 64  # worst case: every word triggers the second advance
    streams = 2048
    length = -(-m // streams)
    jump = _xorshift_jump_tables(length)
    starts = [0] * streams
    state = seed
    for j in range(streams):
        starts[j] = state
        state = _lin_apply(jump, state)
    orbit = _np.empty((length, streams), dtype=_np.uint32)
    orbit[0] = starts
    for t in range(1, length):
        x = orbit[t - 1]
        y = x ^ (x << 13)
        y ^= y >> 17
        y ^= y << 5
        orbit[t] = y
    flat = orbit.T.reshape(-1)[:m]

    walk = flat[1:]  # flat[0] is the seed; the first word inspects f(seed)
    mask = (walk & 3) == 0
    idx = _np.arange(walk.size)
    run_start = mask.copy()
    run_start[1:] &= ~mask[:-1]
    rs = _np.where(run_start, idx, 0)
    _np.maximum.accumulate(rs, out=rs)
    triggers = mask & (((idx - rs) & 1) == 0)  # inspected & divisible by 4
    prev_trigger = _np.empty_like(mask)
    prev_trigger[0] = False
    prev_trigger[1:] = triggers[:-1]
    inspected = _np.where(mask, triggers, ~prev_trigger)
    ranks = _np.cumsum(inspected)  # 1-based word number per position
    write_at = _np.nonzero(triggers & (ranks <= n))[0]
    out = _np.zeros(words_total, dtype="<u4")
    out[len(header) + ranks[write_at] - 1] = walk[write_at + 1]
    out[: len(header)] = header
    return out.tobytes()


_ENCODE_CACHE: dict = {}


def encode_asp_frames(frame_count: int, asp: Asp) -> List[List[int]]:
    """Frames for a region of ``frame_count`` frames implementing ``asp``.

    Frame 0 carries the header and parameters; the rest is deterministic
    pseudo-random fill (~25 % non-zero) seeded by the parameters, standing
    in for LUT/routing configuration.  The word lists are unpacked from
    :func:`encode_asp_packed`, the form builds use.

    Encoding is deterministic, so results are memoised; treat the returned
    frames as read-only.
    """
    cache_key = (frame_count, asp.kind, tuple(asp.params()))
    cached = _ENCODE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    words_total = frame_count * FRAME_WORDS
    words = list(struct.unpack(f"<{words_total}I", encode_asp_packed(frame_count, asp)))
    frames = [words[i : i + FRAME_WORDS] for i in range(0, words_total, FRAME_WORDS)]
    _ENCODE_CACHE[cache_key] = frames
    return frames


_ENCODE_PACKED_CACHE: dict = {}


def encode_asp_packed(frame_count: int, asp: Asp) -> bytes:
    """The frames of :func:`encode_asp_frames` as one packed little-endian
    byte string (``FRAME_WORDS`` words per frame, in frame order).

    The byte form the configuration-memory slab stores and bitstream
    builds consume: the vectorised fill writes it directly, with no
    per-word list in between.  Memoised; treat the result as read-only.
    """
    params = asp.params()
    cache_key = (frame_count, asp.kind, tuple(params))
    cached = _ENCODE_PACKED_CACHE.get(cache_key)
    if cached is not None:
        return cached
    header = [ASP_MAGIC, asp.kind, len(params)] + [p & _MASK32 for p in params]
    if len(header) > frame_count * FRAME_WORDS:
        raise ValueError("parameters do not fit in the region")

    words_total = frame_count * FRAME_WORDS
    # Deterministic sparse fill after the header region, vectorised when
    # numpy is available (bit-identical to the scalar loop; the property
    # tests compare both).
    seed = crc32c_words([asp.kind] + params) or 0xDEADBEEF
    if _np is not None and words_total - len(header) >= 4096:
        packed = _fill_packed_numpy(header, words_total, seed)
    else:
        words = header + [0] * (words_total - len(header))
        # The xorshift steps are inlined: this loop runs >130 k times per
        # region encode and a call per step doubles its cost.
        state = seed
        mask = _MASK32  # localise: three global loads per word add ~20 %
        for i in range(len(header), words_total):
            state ^= (state << 13) & mask
            state ^= state >> 17
            state = (state ^ (state << 5)) & mask
            if not state & 3:  # ~25 % of words configured (state % 4 == 0)
                state ^= (state << 13) & mask
                state ^= state >> 17
                state = (state ^ (state << 5)) & mask
                words[i] = state
        packed = struct.pack(f"<{words_total}I", *words)
    _ENCODE_PACKED_CACHE[cache_key] = packed
    return packed


def decode_asp(frames: Sequence[Sequence[int]]) -> Optional[Tuple[int, List[int]]]:
    """Extract ``(kind, params)`` from region frames.

    Returns ``None`` for an all-blank (never configured) region and raises
    :class:`AspDecodeError` for frames that are non-blank but malformed —
    which is what a functional 'hang' after a corrupted reconfiguration
    looks like.
    """
    if not frames:
        return None
    flat: List[int] = []
    for frame in frames[:2]:  # header + possible parameter spill
        flat.extend(frame)
    if all(w == 0 for w in flat) and all(
        w == 0 for frame in frames for w in frame
    ):
        return None
    if flat[0] != ASP_MAGIC:
        raise AspDecodeError(
            f"region is configured but has no ASP header "
            f"(word0={flat[0]:#010x})"
        )
    kind = flat[1]
    count = flat[2]
    if kind not in AspKind.NAMES:
        raise AspDecodeError(f"unknown ASP kind {kind}")
    if count > len(flat) - 3:
        raise AspDecodeError(f"parameter count {count} overruns header frames")
    return kind, flat[3 : 3 + count]


def instantiate_asp(kind: int, params: Sequence[int]) -> Asp:
    """Build the functional model for a decoded ``(kind, params)`` pair."""
    if kind == AspKind.PASSTHROUGH:
        return PassthroughAsp()
    if kind == AspKind.FIR_FILTER:
        if not params or params[0] != len(params) - 1:
            raise AspDecodeError(f"bad FIR parameter block {params!r}")
        return FirFilterAsp(params[1:])
    if kind == AspKind.AES128:
        if len(params) != 4:
            raise AspDecodeError(f"AES key must be 4 words, got {len(params)}")
        return Aes128Asp(params)
    if kind == AspKind.MATMUL:
        if len(params) != 1:
            raise AspDecodeError(f"matmul takes 1 parameter, got {len(params)}")
        return MatMulAsp(params[0])
    if kind == AspKind.CRC32:
        return Crc32Asp()
    if kind == AspKind.SHA256:
        return Sha256Asp()
    if kind == AspKind.VECTOR_SCALE:
        if len(params) != 2:
            raise AspDecodeError(f"vector-scale takes 2 parameters, got {len(params)}")
        return VectorScaleAsp(params[0], params[1])
    raise AspDecodeError(f"unknown ASP kind {kind}")


# --------------------------------------------------------------------------
# AES-128 primitives (encryption only; tables derived, not hard-coded)
# --------------------------------------------------------------------------
def _gf_mul(a: int, b: int) -> int:
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Multiplicative inverse in GF(2^8) followed by the AES affine transform.
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = []
    for x in range(256):
        b = inverse[x]
        value = 0x63
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
            ) & 1
            value ^= bit << i
        sbox.append(value)
    # The affine constant 0x63 is already folded in via initialisation.
    return sbox


_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _aes_key_schedule(key: bytes) -> List[bytes]:
    words = [key[i : i + 4] for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = bytes(
                _SBOX[temp[(j + 1) % 4]] ^ (_RCON[i // 4 - 1] if j == 0 else 0)
                for j in range(4)
            )
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[r * 4 : r * 4 + 4]) for r in range(11)]


def _aes_encrypt_block(block: bytes, round_keys: List[bytes]) -> bytes:
    # Row-major state: state[r*4 + c] = input byte r + 4c (FIPS-197 layout).
    state = [block[r + 4 * c] for r in range(4) for c in range(4)]
    state = _add_round_key(state, round_keys[0])
    for round_index in range(1, 10):
        state = _sub_bytes(state)
        state = _shift_rows(state)
        state = _mix_columns(state)
        state = _add_round_key(state, round_keys[round_index])
    state = _sub_bytes(state)
    state = _shift_rows(state)
    state = _add_round_key(state, round_keys[10])
    return bytes(state[r * 4 + c] for c in range(4) for r in range(4))


def _sub_bytes(state: List[int]) -> List[int]:
    return [_SBOX[b] for b in state]


def _shift_rows(state: List[int]) -> List[int]:
    out = list(state)
    for row in range(1, 4):
        cols = [state[row * 4 + ((c + row) % 4)] for c in range(4)]
        for c in range(4):
            out[row * 4 + c] = cols[c]
    return out


def _mix_columns(state: List[int]) -> List[int]:
    out = [0] * 16
    for c in range(4):
        col = [state[r * 4 + c] for r in range(4)]
        out[0 * 4 + c] = _gf_mul(col[0], 2) ^ _gf_mul(col[1], 3) ^ col[2] ^ col[3]
        out[1 * 4 + c] = col[0] ^ _gf_mul(col[1], 2) ^ _gf_mul(col[2], 3) ^ col[3]
        out[2 * 4 + c] = col[0] ^ col[1] ^ _gf_mul(col[2], 2) ^ _gf_mul(col[3], 3)
        out[3 * 4 + c] = _gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ _gf_mul(col[3], 2)
    return out


def _add_round_key(state: List[int], round_key: bytes) -> List[int]:
    # round_key is 16 bytes in column order (word i = column i).
    return [state[r * 4 + c] ^ round_key[c * 4 + r] for r in range(4) for c in range(4)]
