"""The AXI4-Stream ICAP controller (the block of refs [8]/[9]).

Consumes 32-bit words from an :class:`~repro.axi.stream.AxiStream` at one
word per clock cycle — the ICAPE2 primitive's rate, which over-clocking
raises — and feeds them to the :class:`~repro.icap.primitive.ConfigPort`.

Over-clocking failure injection happens here: an optional *word corruptor*
(installed by the PDR system from the timing model's verdict) mangles
words between the stream and the configuration engine, modelling the
data-path timing violations that make the paper's ≥320 MHz runs fail
their CRC.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Optional

from ..axi.stream import AxiStream
from ..fabric.config_memory import ConfigMemory
from ..obs import MetricsRegistry
from ..sim import ClockDomain, InterruptLine, Signal, Simulator

from .primitive import ConfigPort

__all__ = ["IcapController"]


class IcapController:
    """Timed stream-to-ICAP bridge."""

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        memory: ConfigMemory,
        stream: AxiStream,
        name: str = "icap",
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.clock = clock
        self.stream = stream
        self.name = name
        self.port = ConfigPort(memory)
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self._m_words = self.metrics.counter(f"{name}.words_consumed")
        self._m_bursts = self.metrics.counter(f"{name}.bursts_consumed")
        self._m_stall_cycles = self.metrics.counter(f"{name}.stall_cycles")
        self._m_corrupted = self.metrics.counter(f"{name}.corrupted_words")
        self._m_transfers = self.metrics.counter(f"{name}.transfers")
        self._m_aborts = self.metrics.counter(f"{name}.aborts")
        self._m_lockup_cycles = self.metrics.counter(f"{name}.lockup_cycles")
        #: High while a configuration stream is being consumed.
        self.busy = Signal(sim, initial=False, name=f"{name}.busy")
        #: Rises when the stream desyncs (configuration done).
        self.done = Signal(sim, initial=False, name=f"{name}.done")
        #: Asserted if the configuration engine latched an error.
        self.error_irq = InterruptLine(sim, name=f"{name}.error")
        #: Optional fault injector: words -> words (set by the PDR system
        #: when the timing model says the data path is past its fmax).
        self.word_corruptor: Optional[Callable[[List[int]], List[int]]] = None
        #: Optional fault hook (installed by :mod:`repro.chaos`):
        #: extra cycles the ICAPE2 holds busy before accepting the next
        #: burst (a transient busy lock-up).  Backpressure propagates to
        #: the DMA through the stream FIFO, so the transfer stretches but
        #: no words are lost.
        self.fault_lockup_cycles: Optional[Callable[[], int]] = None
        self.words_consumed = 0
        self.aborted_transfers = 0
        #: Latched at the *end* of :meth:`abort` (stale in-flight words are
        #: legitimately drained during the abort itself); cleared when
        #: :meth:`begin_transfer` re-arms.  While latched, any word reaching
        #: the configuration port is a protocol violation.
        self._aborted = False
        #: Optional :class:`~repro.verify.InvariantMonitor` checking the
        #: busy/done protocol on every consumed burst.
        self.monitor = None
        sim.process(self._consume(), name=f"{name}.consumer", daemon=True)

    @property
    def aborted(self) -> bool:
        """True between a completed abort and the next ``begin_transfer``."""
        return self._aborted

    def begin_transfer(self) -> None:
        """Arm the controller for a new configuration stream."""
        self.port.reset()
        self.done.set(False)
        self._aborted = False
        self._m_transfers.inc()

    #: Abort quiesce polls before giving up (a wedged producer bug, not a
    #: timing failure — the producer must be halted before aborting).
    ABORT_POLL_LIMIT = 100_000

    def abort(self):
        """Abort an in-flight transfer (process generator).

        The producer (DMA) must already be halted.  Whatever it pushed
        before dying is consumed and discarded at stream rate — the
        configuration port is reset *afterwards*, so stale words cannot
        leave a partially decoded packet state behind — then the busy and
        done flags are cleared so the scrubber's busy gate reopens.
        """
        polls = 0
        while self.stream.queued_bursts or self.stream.free_words < self.stream.fifo_words:
            polls += 1
            if polls > self.ABORT_POLL_LIMIT:
                raise RuntimeError(
                    f"{self.name}: abort cannot quiesce the stream "
                    f"(producer still running?)"
                )
            yield self.clock.wait_cycles(16)
        self.port.reset()
        self.busy.set(False)
        self.done.set(False)
        self.aborted_transfers += 1
        self._aborted = True
        self._m_aborts.inc()

    def _consume(self):
        sim = self.sim
        clock = self.clock
        stream = self.stream
        port = self.port
        busy = self.busy
        done = self.done
        m_words = self._m_words
        m_bursts = self._m_bursts
        while True:
            wait_started_ns = sim.now
            burst = yield stream.pop()
            if busy.value:
                # Mid-transfer wait for the next burst: the stream side
                # starved the ICAP — count it in over-clock cycles.
                self._m_stall_cycles.inc(
                    clock.ns_to_cycles(sim.now - wait_started_ns)
                )
            busy.set(True)
            # busy and done are mutually exclusive: an SG descriptor
            # chain starts its next bitstream without a begin_transfer,
            # so the previous segment's desync flag drops here.
            done.set(False)
            if self.fault_lockup_cycles is not None:
                lockup = max(0, int(self.fault_lockup_cycles()))
                if lockup:
                    self._m_lockup_cycles.inc(lockup)
                    yield clock.wait_cycles(lockup)
            words = burst.words
            count = len(words)
            # One word per clock cycle through the ICAP.
            yield clock.wait_cycles(count)
            if self.word_corruptor is not None:
                original = words
                words = self.word_corruptor(words)
                self._m_corrupted.inc(sum(map(operator.ne, original, words)))
            if self.monitor is not None:
                self.monitor.on_icap_words(self, len(words))
            port.feed_words(words)
            self.words_consumed += len(words)
            m_words.inc(len(words))
            m_bursts.inc()
            stream.release(count)
            if burst.last:
                busy.set(False)
                if port.desynced:
                    done.set(True)
                if port.has_error:
                    self.error_irq.assert_()
