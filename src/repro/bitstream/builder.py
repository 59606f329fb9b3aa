"""Partial-bitstream construction.

:class:`BitstreamBuilder` emits a 7-series-style configuration stream for
one reconfigurable partition: sync header, IDCODE check, CRC reset, a FAR
write targeting the first frame of the region, a single large type-2 FDRI
write carrying every frame (plus the flush pad frame), the final CRC word
and the DESYNC trailer.  The stream is optionally NOOP-padded to an exact
byte size, as vendor tools do.

The builder computes the configuration CRC exactly the way the simulated
device (:mod:`repro.icap.primitive`) folds it, so a built bitstream always
passes the device's CRC check unless it is corrupted in flight.
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, List, Optional, Sequence

from .crc import ConfigCrc
from .device import FRAME_WORDS, DeviceLayout
from .packets import (
    BUS_WIDTH_DETECT_WORD,
    BUS_WIDTH_SYNC_WORD,
    DUMMY_WORD,
    NOOP_WORD,
    OP_WRITE,
    SYNC_WORD,
    type1,
    type2,
)
from .registers import Command, ConfigRegister

__all__ = ["Bitstream", "BitstreamBuilder"]

#: An ``array`` type code with 4-byte items (for the per-word byte swap).
_WORD_CODE = "I" if array("I").itemsize == 4 else "L"
_NOOP_BE = struct.pack(">I", NOOP_WORD)


class Bitstream:
    """A built configuration stream plus its provenance metadata.

    The stream lives as big-endian packed bytes, the form staged in DRAM
    and read by the DMA; ``words`` is unpacked on first read.  Built
    bitstreams are immutable in practice (mutations go through
    :meth:`corrupted`, which copies), so both forms are memoised.
    Construct from ``words`` or from ``packed`` bytes.
    """

    def __init__(
        self,
        words: Optional[List[int]] = None,
        region_name: str = "",
        frame_count: int = 0,
        description: str = "",
        meta: Optional[Dict[str, object]] = None,
        packed: Optional[bytes] = None,
    ):
        if (words is None) == (packed is None):
            raise ValueError("exactly one of words / packed is required")
        if packed is not None and len(packed) % 4:
            raise ValueError(f"bitstream byte length {len(packed)} not word aligned")
        self._words = words
        self._packed_be = packed
        self.region_name = region_name
        self.frame_count = frame_count
        self.description = description
        self.meta: Dict[str, object] = {} if meta is None else meta

    @property
    def words(self) -> List[int]:
        """The stream as a list of 32-bit words (unpacked on first read)."""
        if self._words is None:
            packed = self._packed_be
            self._words = list(struct.unpack(f">{len(packed) // 4}I", packed))
        return self._words

    @property
    def word_count(self) -> int:
        if self._packed_be is not None:
            return len(self._packed_be) // 4
        return len(self._words)

    @property
    def size_bytes(self) -> int:
        return self.word_count * 4

    def to_bytes(self) -> bytes:
        """Serialise big-endian per word (configuration stream order)."""
        if self._packed_be is None:
            self._packed_be = struct.pack(f">{len(self._words)}I", *self._words)
        return self._packed_be

    @classmethod
    def from_bytes(
        cls, data: bytes, region_name: str = "", description: str = ""
    ) -> "Bitstream":
        return cls(
            packed=bytes(data),
            region_name=region_name,
            frame_count=0,
            description=description,
        )

    def corrupted(self, word_index: int, flip_mask: int = 0x1) -> "Bitstream":
        """A copy with one word XOR-flipped (for fault-injection tests)."""
        if not 0 <= word_index < self.word_count:
            raise IndexError(f"word index {word_index} out of range")
        words = list(self.words)
        words[word_index] ^= flip_mask
        return Bitstream(
            words=words,
            region_name=self.region_name,
            frame_count=self.frame_count,
            description=f"{self.description} (corrupted @{word_index})",
            meta=dict(self.meta),
        )


def _swap_words(packed: bytes) -> bytes:
    """Little-endian packed words as big-endian (a per-word byte swap)."""
    words = array(_WORD_CODE)
    words.frombytes(packed)
    words.byteswap()
    return words.tobytes()


class BitstreamBuilder:
    """Builds partial bitstreams for a given device layout."""

    def __init__(self, layout: DeviceLayout):
        self.layout = layout

    def build_full(
        self,
        frame_data: Optional[Sequence[Sequence[int]]] = None,
        description: str = "",
    ) -> Bitstream:
        """Build a full-device (static) bitstream.

        Writes every frame of the device starting at FAR 0.  Full
        bitstreams are what the PCAP loads at boot (the ICAP cannot load
        them — it is itself part of the PL).  ``frame_data`` defaults to
        an all-blank device.
        """
        total = self.layout.total_frames
        if frame_data is None:
            frame_data = [[0] * FRAME_WORDS for _ in range(total)]
        if len(frame_data) != total:
            raise ValueError(
                f"device has {total} frames, got {len(frame_data)}"
            )
        for i, frame in enumerate(frame_data):
            if len(frame) != FRAME_WORDS:
                raise ValueError(
                    f"frame {i} has {len(frame)} words, expected {FRAME_WORDS}"
                )

        crc = ConfigCrc()
        words: List[int] = []

        def emit(word: int) -> None:
            words.append(word & 0xFFFFFFFF)

        def write_reg(register: ConfigRegister, value: int) -> None:
            emit(type1(OP_WRITE, int(register), 1))
            emit(value)
            crc.update(int(register), value)

        for _ in range(8):
            emit(DUMMY_WORD)
        emit(BUS_WIDTH_SYNC_WORD)
        emit(BUS_WIDTH_DETECT_WORD)
        emit(DUMMY_WORD)
        emit(DUMMY_WORD)
        emit(SYNC_WORD)
        emit(NOOP_WORD)
        write_reg(ConfigRegister.CMD, int(Command.RCRC))
        crc.reset()
        emit(NOOP_WORD)
        emit(NOOP_WORD)
        write_reg(ConfigRegister.IDCODE, self.layout.idcode)
        write_reg(ConfigRegister.CMD, int(Command.WCFG))
        emit(NOOP_WORD)
        write_reg(ConfigRegister.FAR, self.layout.frame_address(0).encode())
        emit(NOOP_WORD)

        data_words: List[int] = []
        for frame in frame_data:
            data_words.extend(w & 0xFFFFFFFF for w in frame)
        data_words.extend([0] * FRAME_WORDS)  # flush pad frame
        emit(type1(OP_WRITE, int(ConfigRegister.FDRI), 0))
        emit(type2(OP_WRITE, len(data_words)))
        words.extend(data_words)
        crc.update_run(int(ConfigRegister.FDRI), data_words)

        expected_crc = crc.value
        emit(type1(OP_WRITE, int(ConfigRegister.CRC), 1))
        emit(expected_crc)
        emit(NOOP_WORD)
        write_reg(ConfigRegister.CMD, int(Command.DGHIGH_LFRM))
        emit(NOOP_WORD)
        write_reg(ConfigRegister.CMD, int(Command.START))
        write_reg(ConfigRegister.CMD, int(Command.DESYNC))
        for _ in range(4):
            emit(NOOP_WORD)

        return Bitstream(
            words=words,
            region_name="<full-device>",
            frame_count=total,
            description=description or "full static configuration",
            meta={"expected_crc": expected_crc, "full": True},
        )

    def build_partial(
        self,
        region_name: str,
        frame_data: Optional[Sequence[Sequence[int]]] = None,
        pad_to_bytes: Optional[int] = None,
        description: str = "",
        frame_data_packed: Optional[bytes] = None,
    ) -> Bitstream:
        """Build a partial bitstream writing ``frame_data`` into a region.

        Parameters
        ----------
        region_name:
            Target reconfigurable partition (must exist in the layout).
        frame_data:
            One word-list per frame of the region, each exactly
            :data:`FRAME_WORDS` long, in FDRI auto-increment order.
        pad_to_bytes:
            If given, append NOOP words after DESYNC until the stream is
            exactly this many bytes (must be word-aligned and not smaller
            than the unpadded stream).
        frame_data_packed:
            Alternative to ``frame_data``: the same frame content as one
            packed little-endian byte string (``FRAME_WORDS`` words per
            frame, auto-increment order) — the form the slab config
            memory and the ASP encoder cache already hold, skipping the
            per-word flatten/pack on the hot build path.
        """
        first_index, region_frame_count = self.layout.region_span(region_name)
        first_far = self.layout.frame_address(first_index)
        if (frame_data is None) == (frame_data_packed is None):
            raise ValueError(
                "exactly one of frame_data / frame_data_packed is required"
            )
        if frame_data_packed is not None:
            expected = region_frame_count * FRAME_WORDS * 4
            if len(frame_data_packed) != expected:
                raise ValueError(
                    f"region {region_name} needs {expected} packed bytes, "
                    f"got {len(frame_data_packed)}"
                )
        else:
            if len(frame_data) != region_frame_count:
                raise ValueError(
                    f"region {region_name} has {region_frame_count} frames, "
                    f"got {len(frame_data)} frames of data"
                )
            for i, frame in enumerate(frame_data):
                if len(frame) != FRAME_WORDS:
                    raise ValueError(
                        f"frame {i} has {len(frame)} words, expected {FRAME_WORDS}"
                    )

        crc = ConfigCrc()
        words: List[int] = []

        def emit(word: int) -> None:
            words.append(word & 0xFFFFFFFF)

        def write_reg(register: ConfigRegister, value: int) -> None:
            emit(type1(OP_WRITE, int(register), 1))
            emit(value)
            crc.update(int(register), value)

        # ---- header: dummy pad, bus-width detect, sync -------------------
        for _ in range(8):
            emit(DUMMY_WORD)
        emit(BUS_WIDTH_SYNC_WORD)
        emit(BUS_WIDTH_DETECT_WORD)
        emit(DUMMY_WORD)
        emit(DUMMY_WORD)
        emit(SYNC_WORD)
        emit(NOOP_WORD)

        # ---- preamble: reset CRC, check device, enter write config -------
        write_reg(ConfigRegister.CMD, int(Command.RCRC))
        crc.reset()  # RCRC resets the accumulator (after folding itself)
        emit(NOOP_WORD)
        emit(NOOP_WORD)
        write_reg(ConfigRegister.IDCODE, self.layout.idcode)
        write_reg(ConfigRegister.CMD, int(Command.WCFG))
        emit(NOOP_WORD)
        write_reg(ConfigRegister.FAR, first_far.encode())
        emit(NOOP_WORD)

        # ---- frame data: type1 FDRI (count 0) + type2 with all frames ----
        # One pad frame flushes the device's frame buffer.  The payload
        # stays packed bytes end to end: little-endian for the CRC run,
        # byte-swapped into the big-endian stream.
        if frame_data_packed is not None:
            packed_le = frame_data_packed + bytes(FRAME_WORDS * 4)
        else:
            data_words = []
            for frame in frame_data:
                data_words.extend(frame)
            data_words.extend([0] * FRAME_WORDS)
            try:
                packed_le = struct.pack(f"<{len(data_words)}I", *data_words)
            except struct.error:
                data_words = [w & 0xFFFFFFFF for w in data_words]
                packed_le = struct.pack(f"<{len(data_words)}I", *data_words)
        data_count = len(packed_le) // 4

        emit(type1(OP_WRITE, int(ConfigRegister.FDRI), 0))
        emit(type2(OP_WRITE, data_count))
        # The payload stays packed; ``emit`` now collects the trailer.
        head, words = words, []
        crc.update_run(
            int(ConfigRegister.FDRI), None, packed=packed_le, remember_run=True
        )

        # ---- trailer: CRC check, last frame, desync -----------------------
        expected_crc = crc.value
        emit(type1(OP_WRITE, int(ConfigRegister.CRC), 1))
        emit(expected_crc)
        emit(NOOP_WORD)
        emit(NOOP_WORD)
        write_reg(ConfigRegister.CMD, int(Command.DGHIGH_LFRM))
        emit(NOOP_WORD)
        emit(NOOP_WORD)
        write_reg(ConfigRegister.CMD, int(Command.DESYNC))
        for _ in range(4):
            emit(NOOP_WORD)

        # ---- optional exact-size padding -----------------------------------
        size = (len(head) + data_count + len(words)) * 4
        pad_words = 0
        if pad_to_bytes is not None:
            if pad_to_bytes % 4:
                raise ValueError(f"pad_to_bytes={pad_to_bytes} not word aligned")
            if pad_to_bytes < size:
                raise ValueError(
                    f"pad_to_bytes={pad_to_bytes} smaller than stream "
                    f"({size} bytes)"
                )
            pad_words = (pad_to_bytes - size) // 4

        packed_be = b"".join((
            struct.pack(f">{len(head)}I", *head),
            _swap_words(packed_le),
            struct.pack(f">{len(words)}I", *words),
            _NOOP_BE * pad_words,
        ))
        return Bitstream(
            packed=packed_be,
            region_name=region_name,
            frame_count=region_frame_count,
            description=description or f"partial for {region_name}",
            meta={
                "expected_crc": expected_crc,
                "first_far": first_far.encode(),
                "data_words": data_count,
            },
        )
