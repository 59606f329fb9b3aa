"""AXI DMA engine (MM2S: memory to stream).

Models the Xilinx AXI DMA in direct register mode, clocked by the
over-clockable PL clock.  The read engine is a classic non-overlapped
burst loop: reserve stream-FIFO space, spend the command-issue overhead,
fetch one burst through an HP port, push it onto the AXI4-Stream.  Its
measured behaviour is what the paper's Fig. 5 knee comes from:

* below ~200 MHz the stream side (4 bytes x f) is the bottleneck;
* above it, the per-burst memory path (interconnect + DDR latency +
  HP-port streaming + the command gap paid in *over-clocked* cycles)
  saturates around 790 MB/s.

Xilinx guarantees this block to 150 MHz; the paper drives it to 310 MHz.
The engine itself has no notion of failure — the timing model decides
when an over-clocked control path stops delivering the completion
interrupt (see :mod:`repro.timing`).
"""

from __future__ import annotations

import struct
from typing import Optional

from ..axi.ports import AxiHpPort
from ..axi.stream import AxiStream, StreamBurst
from ..obs import MetricsRegistry
from ..sim import ClockDomain, Interrupt, InterruptLine, Simulator

from .registers import (
    DMACR_IOC_IRQ_EN,
    DMACR_RESET,
    DMACR_RS,
    DMASR_DMA_INT_ERR,
    DMASR_HALTED,
    DMASR_IDLE,
    DMASR_IOC_IRQ,
    MM2S_DMACR,
    MM2S_DMASR,
    MM2S_LENGTH,
    MM2S_SA,
)

__all__ = ["AxiDmaEngine", "S2mmDmaEngine"]


class AxiDmaEngine:
    """MM2S DMA: DRAM -> AXI4-Stream mover."""

    #: Default max bytes per memory read burst (256 beats x 4-byte words).
    MAX_BURST_BYTES = 1024
    #: Default cycles (in the DMA's own clock domain) to issue each read
    #: command: datamover command word, address handshake, re-arbitration.
    CMD_OVERHEAD_CYCLES = 10

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        port: AxiHpPort,
        stream: AxiStream,
        name: str = "dma",
        max_burst_bytes: int = MAX_BURST_BYTES,
        cmd_overhead_cycles: int = CMD_OVERHEAD_CYCLES,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_burst_bytes < 4 or max_burst_bytes % 4:
            raise ValueError("burst size must be a positive multiple of 4 bytes")
        if cmd_overhead_cycles < 0:
            raise ValueError("command overhead cannot be negative")
        self.sim = sim
        self.clock = clock
        self.port = port
        self.stream = stream
        self.name = name
        self.max_burst_bytes = max_burst_bytes
        self.cmd_overhead_cycles = cmd_overhead_cycles
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self._m_bursts = self.metrics.counter(f"{name}.bursts_issued")
        self._m_bytes = self.metrics.counter(f"{name}.bytes_moved")
        self._m_cmd_cycles = self.metrics.counter(f"{name}.cmd_overhead_cycles")
        self._m_transfers = self.metrics.counter(f"{name}.transfers_completed")
        self._m_transfer_us = self.metrics.histogram(f"{name}.transfer_us")
        self._m_mb_s = self.metrics.histogram(f"{name}.achieved_mb_s")
        #: Completion interrupt (IOC).  The PDR system may replace
        #: :meth:`_raise_ioc` behaviour via ``suppress_completion_irq`` to
        #: model a control-path timing failure.
        self.ioc_irq = InterruptLine(sim, name=f"{name}.ioc")
        self.suppress_completion_irq = False
        self._control = DMACR_RS | DMACR_IOC_IRQ_EN
        self._status = DMASR_IDLE
        self._source_addr = 0
        self.bytes_moved = 0
        self.transfers_completed = 0
        self.resets_issued = 0
        self.axi_errors = 0
        self._m_resets = self.metrics.counter(f"{name}.resets")
        self._m_axi_errors = self.metrics.counter(f"{name}.axi_errors")
        self._active: Optional[object] = None
        #: Outstanding stream-space reservation of the in-flight transfer
        #: (event, words), handed back on reset so an aborted producer
        #: cannot leak FIFO space.
        self._reservation: Optional[tuple] = None
        #: Optional :class:`~repro.verify.InvariantMonitor` checking the
        #: start/complete/reset state-machine transitions.
        self.monitor = None

    # -- register interface (as the PS driver sees it) -----------------------
    def reg_write(self, offset: int, value: int) -> None:
        if offset == MM2S_DMACR:
            if value & DMACR_RESET:
                self._reset()
                return
            self._control = value
            if value & DMACR_RS:
                self._status &= ~DMASR_HALTED
            else:
                self._status |= DMASR_HALTED
        elif offset == MM2S_DMASR:
            if value & DMASR_IOC_IRQ:  # write-1-to-clear
                self._status &= ~DMASR_IOC_IRQ
                self.ioc_irq.deassert()
        elif offset == MM2S_SA:
            self._source_addr = value
        elif offset == MM2S_LENGTH:
            if value:
                self._start(self._source_addr, value)
        else:
            raise ValueError(f"{self.name}: no register at offset {offset:#x}")

    def reg_read(self, offset: int) -> int:
        if offset == MM2S_DMACR:
            return self._control
        if offset == MM2S_DMASR:
            return self._status
        if offset == MM2S_SA:
            return self._source_addr
        if offset == MM2S_LENGTH:
            return 0
        raise ValueError(f"{self.name}: no register at offset {offset:#x}")

    @property
    def idle(self) -> bool:
        return bool(self._status & DMASR_IDLE)

    @property
    def running(self) -> bool:
        return bool(self._control & DMACR_RS) and not (self._status & DMASR_HALTED)

    # -- engine ------------------------------------------------------------------
    def _reset(self) -> None:
        """Soft reset (DMACR.Reset): halt the engine, kill any transfer.

        The real block abandons the in-flight datamover command on reset;
        here the transfer process is interrupted and its outstanding
        stream-space reservation is handed back so the FIFO accounting
        stays exact.  Words already pushed onto the stream remain queued —
        the ICAP abort path is responsible for quiescing the consumer.
        """
        active = self._active
        if active is not None and getattr(active, "is_alive", False):
            active.interrupt("dma-reset")
        self._active = None
        if self._reservation is not None:
            event, words = self._reservation
            self._reservation = None
            self.stream.cancel_reserve(event, words)
        self._control = 0
        self._status = DMASR_HALTED | DMASR_IDLE
        self.resets_issued += 1
        self._m_resets.inc()
        self.ioc_irq.deassert()
        if self.monitor is not None:
            self.monitor.on_dma_reset(self)

    def _start(self, addr: int, length: int) -> None:
        if not self.running:
            raise RuntimeError(f"{self.name}: LENGTH written while halted")
        if self._active is not None and not self._status & DMASR_IDLE:
            raise RuntimeError(f"{self.name}: transfer already in progress")
        self._status &= ~DMASR_IDLE
        self._active = self.sim.process(
            self._run(addr, length), name=f"{self.name}.mm2s"
        )
        if self.monitor is not None:
            self.monitor.on_dma_start(self)

    def _run(self, addr: int, length: int):
        started_ns = self.sim.now
        remaining = length
        cursor = addr
        pushed_bytes = 0
        stream = self.stream
        clock = self.clock
        port = self.port
        cmd_cycles = self.cmd_overhead_cycles
        m_cmd_cycles = self._m_cmd_cycles
        m_bursts = self._m_bursts
        m_bytes = self._m_bytes
        while remaining:
            burst_bytes = min(self.max_burst_bytes, remaining)
            burst_words = (burst_bytes + 3) // 4
            reserve = stream.reserve(burst_words)
            self._reservation = (reserve, burst_words)
            yield reserve
            # Command issue overhead is paid in the over-clocked domain:
            # faster clock, smaller gap — until the memory path dominates.
            yield clock.wait_cycles(cmd_cycles)
            m_cmd_cycles.inc(cmd_cycles)
            try:
                data = yield port.read(cursor, burst_bytes)
            except Interrupt:
                # A DMACR soft reset interrupted the burst; ``_reset``
                # owns the cleanup (it already cancelled the reservation).
                raise
            except Exception:
                # AXI error response mid-transfer: the datamover latches
                # DMAIntErr and halts.  No completion interrupt will ever
                # arrive — the firmware's IRQ-timeout recovery path takes
                # it from here (DMA soft reset + ICAP abort).  Hand back
                # the outstanding FIFO reservation so the accounting
                # stays exact for the abort drain.
                if self._reservation is not None:
                    self._reservation = None
                    stream.cancel_reserve(reserve, burst_words)
                self._status |= DMASR_HALTED | DMASR_DMA_INT_ERR
                self._active = None
                self.axi_errors += 1
                self._m_axi_errors.inc()
                return
            words = struct.unpack(f">{len(data) // 4}I", data)
            is_last = remaining == burst_bytes
            stream.push(StreamBurst(words, is_last))
            self._reservation = None
            pushed_bytes += len(words) * 4
            cursor += burst_bytes
            remaining -= burst_bytes
            self.bytes_moved += burst_bytes
            m_bursts.inc()
            m_bytes.inc(burst_bytes)

        # Completion means the stream slave accepted the last beat: wait
        # for the FIFO to drain fully before declaring the transfer done.
        drain = self.stream.reserve(self.stream.fifo_words)
        self._reservation = (drain, self.stream.fifo_words)
        yield drain
        self._reservation = None
        self.stream.release(self.stream.fifo_words)
        self._active = None

        self._status |= DMASR_IDLE
        self.transfers_completed += 1
        self._m_transfers.inc()
        if self.monitor is not None:
            self.monitor.on_dma_complete(self, length, pushed_bytes)
        duration_us = (self.sim.now - started_ns) / 1e3
        self._m_transfer_us.observe(duration_us)
        if duration_us > 0:
            self._m_mb_s.observe(length / duration_us)  # B/us == MB/s
        if (self._control & DMACR_IOC_IRQ_EN) and not self.suppress_completion_irq:
            self._status |= DMASR_IOC_IRQ
            self.ioc_irq.assert_()


class S2mmDmaEngine:
    """S2MM DMA: AXI4-Stream -> DRAM mover (the write direction).

    The Fig. 1 framework uses this to return ASP results to memory: the
    engine is armed with a destination buffer, then drains the stream
    burst by burst, writing each through an HP port, until TLAST or the
    buffer fills.  Like the MM2S engine it runs in the over-clockable
    domain and pays a per-burst command overhead.
    """

    CMD_OVERHEAD_CYCLES = 10

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        port: AxiHpPort,
        stream: AxiStream,
        name: str = "dma_s2mm",
        cmd_overhead_cycles: int = CMD_OVERHEAD_CYCLES,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if cmd_overhead_cycles < 0:
            raise ValueError("command overhead cannot be negative")
        self.sim = sim
        self.clock = clock
        self.port = port
        self.stream = stream
        self.name = name
        self.cmd_overhead_cycles = cmd_overhead_cycles
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self._m_bursts = self.metrics.counter(f"{name}.bursts_issued")
        self._m_bytes = self.metrics.counter(f"{name}.bytes_moved")
        self._m_cmd_cycles = self.metrics.counter(f"{name}.cmd_overhead_cycles")
        self._m_transfers = self.metrics.counter(f"{name}.transfers_completed")
        self._m_transfer_us = self.metrics.histogram(f"{name}.transfer_us")
        self._m_mb_s = self.metrics.histogram(f"{name}.achieved_mb_s")
        self.ioc_irq = InterruptLine(sim, name=f"{name}.ioc")
        self.suppress_completion_irq = False
        self.bytes_received = 0
        self.transfers_completed = 0
        self._idle = True

    @property
    def idle(self) -> bool:
        return self._idle

    def arm(self, dest_addr: int, max_bytes: int) -> None:
        """Arm a receive into ``[dest_addr, dest_addr + max_bytes)``.

        Completion (TLAST seen or buffer full) pulses the IOC interrupt;
        the number of bytes actually landed accumulates in
        ``bytes_received``.
        """
        if max_bytes < 4:
            raise ValueError("receive buffer must hold at least one word")
        if not self._idle:
            raise RuntimeError(f"{self.name}: receive already in progress")
        self._idle = False
        self.sim.process(self._run(dest_addr, max_bytes), name=f"{self.name}.s2mm")

    def _run(self, dest_addr: int, max_bytes: int):
        started_ns = self.sim.now
        cursor = dest_addr
        remaining = max_bytes
        while remaining > 0:
            burst = yield self.stream.pop()
            yield self.clock.wait_cycles(self.cmd_overhead_cycles)
            self._m_cmd_cycles.inc(self.cmd_overhead_cycles)
            data = struct.pack(f">{len(burst.words)}I", *burst.words)
            if len(data) > remaining:
                data = data[:remaining]
            yield self.port.write(cursor, data)
            self.stream.release(len(burst.words))
            cursor += len(data)
            remaining -= len(data)
            self.bytes_received += len(data)
            self._m_bursts.inc()
            self._m_bytes.inc(len(data))
            if burst.last:
                break
        self._idle = True
        self.transfers_completed += 1
        self._m_transfers.inc()
        duration_us = (self.sim.now - started_ns) / 1e3
        self._m_transfer_us.observe(duration_us)
        received = cursor - dest_addr
        if duration_us > 0:
            self._m_mb_s.observe(received / duration_us)  # B/us == MB/s
        if not self.suppress_completion_irq:
            self.ioc_irq.pulse()
