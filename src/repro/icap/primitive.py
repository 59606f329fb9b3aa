"""The device configuration port state machine.

This is the logic behind both the ICAP and the PCAP: it consumes a
configuration word stream (after bus-width detection and sync), decodes
type-1/type-2 packets, executes register writes — including FDRI frame
writes into the configuration memory with FAR auto-increment — folds the
configuration CRC, and reports the error/done flags the rest of the
system reacts to.

Like the real silicon, the FDRI path holds one frame in a pipeline
register: frame *k* commits when frame *k+1* completes, so the trailing
pad frame that every bitstream carries is never written to the array.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..bitstream.crc import ConfigCrc
from ..bitstream.device import FRAME_BYTES, FRAME_WORDS
from ..bitstream.far import FrameAddress
from ..bitstream.packets import NOOP_WORD, SYNC_WORD, decode_header
from ..bitstream.registers import Command, ConfigRegister
from ..fabric.config_memory import ConfigMemory

__all__ = ["ConfigPort"]

_WORD_STRUCT = struct.Struct("<I")

_CRC = int(ConfigRegister.CRC)
_FAR = int(ConfigRegister.FAR)
_FDRI = int(ConfigRegister.FDRI)
_CMD = int(ConfigRegister.CMD)
_IDCODE = int(ConfigRegister.IDCODE)


class ConfigPort:
    """Configuration engine bound to a config memory.

    :meth:`feed_word` is the word-at-a-time reference; :meth:`feed_words`
    is the bulk form every caller uses, identical word for word.
    """

    def __init__(self, memory: ConfigMemory):
        self.memory = memory
        self.layout = memory.layout
        self.crc = ConfigCrc()
        self.reset()

    def reset(self) -> None:
        """Return to the pre-sync state (as after PROG or power-up)."""
        self.synced = False
        self.desynced = False
        self.wcfg_active = False
        self.crc_error = False
        self.idcode_error = False
        self._last_register: Optional[int] = None
        self._payload_register: Optional[int] = None
        self._payload_remaining = 0
        self._far_index: Optional[int] = None
        # The FDRI pipeline moves packed little-endian frame bytes: one
        # partially-filled frame buffer plus the held (pipeline) frame.
        self._frame_buffer = bytearray()
        self._held_frame: Optional[bytes] = None
        self.frames_committed = 0
        self.words_consumed = 0
        self.crc.reset()

    # -- status ------------------------------------------------------------
    @property
    def has_error(self) -> bool:
        return self.crc_error or self.idcode_error

    # -- stream input -----------------------------------------------------------
    def feed_word(self, word: int) -> None:
        """Consume one 32-bit configuration word."""
        word &= 0xFFFFFFFF
        self.words_consumed += 1

        if not self.synced:
            if word == SYNC_WORD:
                self.synced = True
                self.desynced = False
            return

        if self._payload_remaining:
            self._payload_remaining -= 1
            self._handle_write(self._payload_register, word)
            return

        if word == NOOP_WORD:
            return
        try:
            header = decode_header(word)
        except ValueError:
            # Unknown packet type: a corrupted stream.  Hardware would
            # raise a status flag; we latch it as a CRC-class error.
            self.crc_error = True
            return
        if header.packet_type == 1:
            self._last_register = header.register_addr
            register = header.register_addr
        else:
            if self._last_register is None:
                self.crc_error = True
                return
            register = self._last_register
        if header.word_count and header.is_write:
            self._payload_register = register
            self._payload_remaining = header.word_count

    def feed_words(self, words) -> None:
        """Consume a word sequence (a list or tuple) in bulk.

        Behaviour is word-for-word identical to calling :meth:`feed_word`
        per word, which stays the reference.  Every stream state runs in
        bulk: the pre-sync scan, and payload runs to FDRI, FAR, IDCODE
        and every register without side effects.  Only packet headers
        and CRC/CMD payload words — each of which can change the port
        state — go through :meth:`feed_word`.
        """
        index = 0
        total = len(words)
        while index < total:
            if not self.synced:
                index = self._skip_to_sync(words, index, total)
                continue
            remaining = self._payload_remaining
            register = self._payload_register
            if not remaining or register == _CRC or register == _CMD:
                self.feed_word(words[index])
                index += 1
                continue
            count = min(remaining, total - index)
            chunk = words[index : index + count]
            index += count
            self._payload_remaining = remaining - count
            self.words_consumed += count
            if register == _FDRI:
                try:
                    packed = struct.pack(f"<{count}I", *chunk)
                except struct.error:
                    chunk = [w & 0xFFFFFFFF for w in chunk]
                    packed = struct.pack(f"<{count}I", *chunk)
                self.crc.update_run(_FDRI, chunk, packed=packed)
                self._fdri_run(packed)
                continue
            if min(chunk) < 0 or max(chunk) > 0xFFFFFFFF:
                chunk = [w & 0xFFFFFFFF for w in chunk]
            self.crc.update_run_uncached(register, chunk)
            if register == _FAR:
                self._far_run(chunk)
            elif register == _IDCODE:
                if chunk.count(self.layout.idcode) != count:
                    self.idcode_error = True

    def _skip_to_sync(self, words, index: int, total: int) -> int:
        """Bulk pre-sync scan: consume words up to and including the next
        sync word and return the index after it (``total`` if none)."""
        try:
            found = words.index(SYNC_WORD, index)
        except ValueError:
            found = total
        skipped = words[index:found]
        if skipped and (min(skipped) < 0 or max(skipped) > 0xFFFFFFFF):
            # A word wider than 32 bits can mask down to the sync word.
            for offset, word in enumerate(skipped):
                if word & 0xFFFFFFFF == SYNC_WORD:
                    found = index + offset
                    break
        if found == total:
            self.words_consumed += total - index
            return total
        self.words_consumed += found - index + 1
        self.synced = True
        self.desynced = False
        return found + 1

    def _far_run(self, chunk) -> None:
        """Bulk FAR writes: only the last valid address survives, and any
        invalid one latches the (sticky) CRC-class error."""
        frame_index_of_word = self.layout.frame_index_of_word
        if not self.crc_error:
            for word in chunk:
                if frame_index_of_word(word) < 0:
                    self.crc_error = True
                    break
        for word in reversed(chunk):
            far_index = frame_index_of_word(word)
            if far_index >= 0:
                self._far_index = far_index
                break

    def _fdri_run(self, packed: bytes) -> None:
        """Bulk equivalent of per-word :meth:`_fdri_word` on packed bytes."""
        if not self.wcfg_active or self.idcode_error:
            return
        buffer = self._frame_buffer
        buffer += packed
        while len(buffer) >= FRAME_BYTES:
            completed = bytes(buffer[:FRAME_BYTES])
            del buffer[:FRAME_BYTES]
            if self._held_frame is not None:
                self._commit_frame(self._held_frame)
            self._held_frame = completed

    # -- register semantics -------------------------------------------------
    def _handle_write(self, register: Optional[int], word: int) -> None:
        if register is None:  # pragma: no cover - guarded in feed_word
            return
        if register == int(ConfigRegister.CRC):
            if not self.crc.check(word):
                self.crc_error = True
            return

        self.crc.update(register, word)

        if register == int(ConfigRegister.IDCODE):
            if word != self.layout.idcode:
                self.idcode_error = True
        elif register == int(ConfigRegister.FAR):
            try:
                self._far_index = self.layout.frame_index(FrameAddress.decode(word))
            except ValueError:
                self.crc_error = True
        elif register == int(ConfigRegister.FDRI):
            self._fdri_word(word)
        elif register == int(ConfigRegister.CMD):
            self._command(word)

    def _fdri_word(self, word: int) -> None:
        if not self.wcfg_active or self.idcode_error:
            return  # writes are ignored until WCFG, or after an ID failure
        self._frame_buffer += _WORD_STRUCT.pack(word)
        if len(self._frame_buffer) < FRAME_BYTES:
            return
        completed = bytes(self._frame_buffer)
        self._frame_buffer = bytearray()
        if self._held_frame is not None:
            self._commit_frame(self._held_frame)
        self._held_frame = completed

    def _commit_frame(self, frame: bytes) -> None:
        if self._far_index is None:
            self.crc_error = True
            return
        if self._far_index >= self.layout.total_frames:
            self.crc_error = True  # ran off the end of the device
            return
        self.memory.write_frame_packed(self._far_index, frame)
        self._far_index += 1
        self.frames_committed += 1

    # -- read-back (FDRO) -----------------------------------------------------
    def read_frames(self, far_index: int, frame_count: int) -> list:
        """Execute an FDRO read-back: RCFG + FAR + type-1 FDRO read.

        Returns the words the FDRO would stream out.  As in hardware, the
        first frame of the output is a pipeline pad frame (dummy words) —
        the caller discards it — followed by ``frame_count`` real frames
        in auto-increment order.
        """
        if frame_count < 1:
            raise ValueError("must read at least one frame")
        if not 0 <= far_index < self.layout.total_frames:
            raise ValueError(f"read-back start frame {far_index} out of range")
        if far_index + frame_count > self.layout.total_frames:
            raise ValueError("read-back runs off the end of the device")
        words = [0] * FRAME_WORDS  # the FDRO pipeline pad frame
        for index in range(far_index, far_index + frame_count):
            words.extend(self.memory.read_frame(index))
        return words

    def read_frames_packed(self, far_index: int, frame_count: int) -> bytes:
        """Packed-bytes :meth:`read_frames`: pad frame + frame data as
        little-endian bytes (the scrubber's bulk read-back path)."""
        if frame_count < 1:
            raise ValueError("must read at least one frame")
        if not 0 <= far_index < self.layout.total_frames:
            raise ValueError(f"read-back start frame {far_index} out of range")
        if far_index + frame_count > self.layout.total_frames:
            raise ValueError("read-back runs off the end of the device")
        return bytes(FRAME_BYTES) + self.memory.read_frames_packed(
            far_index, frame_count
        )

    @staticmethod
    def strip_readback_pad(words: list) -> list:
        """Drop the FDRO pad frame from a read-back word stream."""
        if len(words) < FRAME_WORDS:
            raise ValueError("read-back stream shorter than the pad frame")
        return words[FRAME_WORDS:]

    @staticmethod
    def strip_readback_pad_packed(data: bytes) -> bytes:
        """Drop the FDRO pad frame from a packed read-back byte stream."""
        if len(data) < FRAME_BYTES:
            raise ValueError("read-back stream shorter than the pad frame")
        return data[FRAME_BYTES:]

    def _command(self, command: int) -> None:
        if command == int(Command.RCRC):
            self.crc.reset()
            self.crc_error = False
        elif command == int(Command.WCFG):
            self.wcfg_active = True
            self._frame_buffer = bytearray()
            self._held_frame = None
        elif command == int(Command.DGHIGH_LFRM):
            # End of frame data: the held (pad) frame is discarded.
            self.wcfg_active = False
            self._held_frame = None
            self._frame_buffer = bytearray()
        elif command == int(Command.DESYNC):
            self.synced = False
            self.desynced = True
            self.wcfg_active = False
            self._held_frame = None
            self._frame_buffer = bytearray()
