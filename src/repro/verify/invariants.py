"""Runtime invariant monitor for the simulated PDR platform.

Every hardware model in this repository exposes an optional ``monitor``
attribute (``None`` by default — a single identity check on the hot
path).  :meth:`InvariantMonitor.attach` wires one monitor into every
component of a :class:`~repro.core.PdrSystem`; from then on each kernel
step, stream operation, DMA transition and ICAP word batch is checked
against the invariants below, and the check/violation totals are
published as ``verify.*`` metrics in the system's registry.

Invariants checked
------------------

kernel
    Event time is monotonically non-decreasing; a processed event never
    fires twice; the heap never drains while non-daemon processes still
    wait (no lost wakeups — checked at quiescence).
stream (:class:`~repro.axi.stream.AxiStream`)
    Word conservation: every word pushed is either still queued or was
    consumed; reservation accounting is exact
    (``granted - released == occupancy``) and never negative; the FIFO
    occupancy stays within ``[0, fifo_words]``; burst conservation on
    the underlying channel (``put == got + level``).
dma (:class:`~repro.dma.engine.AxiDmaEngine`)
    Legal state-machine transitions only (start from idle, reset lands
    in ``HALTED|IDLE`` with no reservation and the IRQ deasserted); on
    completion the bytes pushed onto the stream equal the programmed
    transfer length exactly.
icap (:class:`~repro.icap.controller.IcapController`)
    Words are only consumed while ``busy`` is high; ``busy`` and
    ``done`` are never high simultaneously; no configuration words are
    fed after an abort until the next ``begin_transfer`` re-arms.
config memory
    After a *successful* reconfiguration the region's frames are
    bit-identical to the golden ASP encoding, and the firmware's timed
    phase spans sum to ``latency_us`` within 1 µs.
governor (:class:`~repro.resilience.FrequencyGovernor`)
    ``authorise`` never grants more than requested (and never a
    non-positive frequency); the per-(region, temperature-bucket)
    quarantine floor is monotonically non-increasing — learning can
    only tighten the clamp, never relax it.
dram (:class:`~repro.dram.BankDramController`)
    Bank-machine protocol: a row-buffer *hit* requires that exact row to
    have been open (ACTIVATE before any CAS), a *miss* requires the bank
    precharged, a *conflict* requires a different row open; after the
    access exactly the accessed row is open under the open-page policy
    and none under closed-page (never two rows open in one bank).
    Refresh stalls are non-negative and conserved: the monitor's running
    sum of observed stalls equals the ``refresh_stall_ns`` counter.  At
    quiescence the per-master ledger sums to the controller totals
    (bytes and queue-wait conservation), and in engine refresh mode one
    refresh has completed for every elapsed tREFI window.

Violations raise :class:`InvariantViolation` by default; the fuzzer runs
with ``raise_on_violation=False`` and collects them instead, so a broken
scenario can still be shrunk to a minimal reproducer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["InvariantMonitor", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A runtime invariant of the simulated platform was violated."""


class InvariantMonitor:
    """Cheap always-on assertion probes over a running simulation.

    One monitor instance watches one system (or one hand-assembled set
    of components).  ``checks`` counts every probe evaluated;
    ``violations`` keeps the human-readable record of each failure in
    detection order.
    """

    def __init__(self, raise_on_violation: bool = True):
        self.raise_on_violation = raise_on_violation
        self.checks = 0
        self.violations: List[str] = []
        self.system = None
        self._metrics_checks = None
        self._metrics_violations = None
        #: (region, temp_bucket) -> lowest quarantine floor ever seen.
        self._clamp_floor: Dict[Tuple[str, int], float] = {}
        #: id(controller) -> running sum of observed refresh stalls, for
        #: the stall-conservation check against ``refresh_stall_ns``.
        self._dram_stall_sum: Dict[int, float] = {}
        self._attached: List[object] = []

    # -- lifecycle ----------------------------------------------------------
    def attach(self, system) -> "InvariantMonitor":
        """Wire this monitor into every component of a ``PdrSystem``."""
        self.system = system
        metrics = system.metrics
        self._metrics_checks = metrics.counter("verify.checks")
        self._metrics_violations = metrics.counter("verify.violations")
        for component in (
            system.sim,
            system.stream,
            system.dma,
            system.icap,
            system.dram_controller,
        ):
            component.monitor = self
            self._attached.append(component)
        return self

    def attach_governor(self, governor) -> "InvariantMonitor":
        """Additionally watch a resilience frequency governor."""
        governor.monitor = self
        self._attached.append(governor)
        return self

    def detach(self) -> None:
        for component in self._attached:
            component.monitor = None
        self._attached.clear()

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- bookkeeping ---------------------------------------------------------
    def _count(self, probes: int = 1) -> None:
        self.checks += probes
        if self._metrics_checks is not None:
            self._metrics_checks.inc(probes)

    def violate(self, invariant: str, message: str) -> None:
        """Record (and by default raise) one invariant violation."""
        record = f"{invariant}: {message}"
        self.violations.append(record)
        if self._metrics_violations is not None:
            self._metrics_violations.inc()
        if self.raise_on_violation:
            raise InvariantViolation(record)

    # -- kernel -----------------------------------------------------------------
    def on_kernel_event(self, sim, when: float, event) -> None:
        """Called by the kernel for every popped heap entry."""
        self._count(2)
        if when < sim.now:
            self.violate(
                "kernel.time_monotonic",
                f"event scheduled at {when}ns fires at now={sim.now}ns",
            )
        if getattr(event, "_processed", False):
            self.violate(
                "kernel.single_fire",
                f"already-processed event {event!r} fired again",
            )

    def check_kernel_quiescent(self, sim) -> None:
        """No lost wakeups: an empty heap must mean no waiting processes."""
        self._count()
        if sim._live_processes > 0 and not sim._heap:
            self.violate(
                "kernel.no_lost_wakeups",
                f"heap drained with {sim._live_processes} non-daemon "
                f"process(es) still waiting",
            )

    # -- AXI stream ---------------------------------------------------------------
    def on_stream_op(self, stream) -> None:
        """Called by ``AxiStream`` after every accounting mutation."""
        self._count(5)
        occupancy = stream.fifo_words - stream.free_words
        if not 0 <= occupancy <= stream.fifo_words:
            self.violate(
                "stream.occupancy_bounds",
                f"{stream.name}: occupancy {occupancy} outside "
                f"[0, {stream.fifo_words}]",
            )
        granted = stream.stat_granted_words
        released = stream.stat_released_words
        if granted - released != occupancy:
            self.violate(
                "stream.reservation_accounting",
                f"{stream.name}: granted {granted} - released {released} "
                f"!= occupancy {occupancy}",
            )
        if released > granted:
            self.violate(
                "stream.reservation_negative",
                f"{stream.name}: released {released} words but only "
                f"{granted} were ever granted",
            )
        if stream.total_words != stream.stat_consumed_words + stream.stat_queued_words:
            self.violate(
                "stream.word_conservation",
                f"{stream.name}: produced {stream.total_words} != consumed "
                f"{stream.stat_consumed_words} + queued "
                f"{stream.stat_queued_words}",
            )
        channel = stream._bursts
        if channel.total_put != channel.total_got + channel.level:
            self.violate(
                "stream.burst_conservation",
                f"{stream.name}: bursts put {channel.total_put} != got "
                f"{channel.total_got} + queued {channel.level}",
            )

    # -- DMA engine ----------------------------------------------------------------
    def on_dma_start(self, engine) -> None:
        self._count()
        if engine.idle or engine._active is None:
            self.violate(
                "dma.start_transition",
                f"{engine.name}: transfer started but engine reads idle",
            )

    def on_dma_complete(self, engine, length: int, pushed_bytes: int) -> None:
        self._count(2)
        if pushed_bytes != length:
            self.violate(
                "dma.descriptor_bytes",
                f"{engine.name}: programmed {length} bytes but pushed "
                f"{pushed_bytes} onto the stream",
            )
        if not engine.idle:
            self.violate(
                "dma.complete_transition",
                f"{engine.name}: transfer completed but engine not idle",
            )

    def on_dma_reset(self, engine) -> None:
        self._count()
        if (
            not engine.idle
            or engine.running
            or engine._reservation is not None
            or engine.ioc_irq.asserted
        ):
            self.violate(
                "dma.reset_transition",
                f"{engine.name}: soft reset did not land in HALTED|IDLE "
                f"with reservation and IRQ cleared",
            )

    # -- ICAP ----------------------------------------------------------------------
    def on_icap_words(self, controller, words: int) -> None:
        self._count(3)
        if not controller.busy.value:
            self.violate(
                "icap.busy_protocol",
                f"{controller.name}: consumed {words} words while not busy",
            )
        if controller.aborted:
            self.violate(
                "icap.no_write_while_aborted",
                f"{controller.name}: {words} words fed after abort without "
                f"begin_transfer re-arming",
            )
        if controller.busy.value and controller.done.value:
            self.violate(
                "icap.busy_done_exclusive",
                f"{controller.name}: busy and done asserted simultaneously",
            )

    # -- DRAM bank machines ---------------------------------------------------------
    def on_dram_access(
        self, controller, request, bank: int, row: int,
        outcome: str, open_before, stall_ns: float,
    ) -> None:
        """Called by ``BankDramController`` for every classified access."""
        self._count(4)
        name = controller.name
        if outcome == "hit" and open_before != row:
            self.violate(
                "dram.activate_before_cas",
                f"{name}: bank {bank} row {row} read as a hit but the open "
                f"row was {open_before}",
            )
        elif outcome == "miss" and open_before is not None:
            if controller.page_policy != "closed":
                self.violate(
                    "dram.miss_requires_precharged",
                    f"{name}: bank {bank} classified miss with row "
                    f"{open_before} still open",
                )
        elif outcome == "conflict" and open_before in (None, row):
            self.violate(
                "dram.conflict_requires_other_row",
                f"{name}: bank {bank} classified conflict but the open row "
                f"was {open_before} (target {row})",
            )
        open_after = controller.device.open_row(bank)
        if controller.page_policy == "closed":
            if open_after is not None:
                self.violate(
                    "dram.closed_page_precharge",
                    f"{name}: bank {bank} row {open_after} left open under "
                    f"the closed-page policy",
                )
        elif open_after != row:
            self.violate(
                "dram.single_open_row",
                f"{name}: bank {bank} open row is {open_after} immediately "
                f"after accessing row {row}",
            )
        if stall_ns < 0:
            self.violate(
                "dram.refresh_stall_sign",
                f"{name}: negative refresh stall {stall_ns} ns",
            )
        total = self._dram_stall_sum.get(id(controller), 0.0) + stall_ns
        self._dram_stall_sum[id(controller)] = total
        if abs(total - controller.refresh_stall_ns) > 1e-6:
            self.violate(
                "dram.refresh_stall_conservation",
                f"{name}: observed stalls sum to {total} ns but the "
                f"refresh_stall_ns counter reads {controller.refresh_stall_ns}",
            )

    def check_dram_quiescent(self, controller, now_ns: float) -> None:
        """Ledger + refresh-coverage conservation on an idle controller."""
        ledgers = getattr(controller, "masters", None)
        if ledgers is None:
            return
        self._count(2)
        ledger_bytes = sum(ledger.bytes for ledger in ledgers.values())
        moved = controller.bytes_read + controller.bytes_written
        if ledger_bytes != moved:
            self.violate(
                "dram.master_ledger_conservation",
                f"{controller.name}: per-master ledgers sum to "
                f"{ledger_bytes} bytes but the controller moved {moved}",
            )
        ledger_wait = sum(ledger.wait_ns for ledger in ledgers.values())
        if abs(ledger_wait - controller.queue_wait_ns) > 1e-6:
            self.violate(
                "dram.queue_wait_conservation",
                f"{controller.name}: per-master waits sum to {ledger_wait} "
                f"ns but queue_wait_ns reads {controller.queue_wait_ns}",
            )
        if getattr(controller, "refresh_mode", None) == "engine":
            self._count()
            controller.sync_refresh(now_ns)
            due = int(now_ns // controller.timing.trefi_ns)
            if controller.refreshes_completed != due:
                self.violate(
                    "dram.refresh_every_trefi",
                    f"{controller.name}: {controller.refreshes_completed} "
                    f"refreshes completed by {now_ns} ns but {due} tREFI "
                    f"window(s) have elapsed",
                )

    # -- system-level post-conditions ---------------------------------------------
    def check_result(self, system, region: str, asp, result) -> None:
        """Post-conditions of one completed reconfiguration attempt."""
        self._count(2)
        if result.succeeded:
            from ..fabric import encode_asp_frames

            golden = encode_asp_frames(
                system.layout.region_frame_count(region), asp
            )
            if not system.memory.region_equals(region, golden):
                self.violate(
                    "memory.golden_frames",
                    f"{region}: CRC read-back passed but frame contents "
                    f"differ from the golden {asp.name} encoding",
                )
        if result.latency_us is not None:
            timed = result.timed_phase_sum_us
            if timed is None or abs(timed - result.latency_us) > 1.0:
                self.violate(
                    "fw.phase_sum",
                    f"{region}: timed phases sum to {timed} µs but "
                    f"latency_us is {result.latency_us} µs (tolerance 1 µs)",
                )

    def check_quiescent(self, system) -> None:
        """Between transfers the engines must be verifiably idle."""
        self._count(3)
        if not system.dma.idle:
            self.violate("dma.quiescent", "DMA engine busy between transfers")
        if system.icap.busy.value:
            self.violate("icap.quiescent", "ICAP busy between transfers")
        stream = system.stream
        if stream.queued_bursts or stream.free_words != stream.fifo_words:
            self.violate(
                "stream.quiescent",
                f"{stream.name}: {stream.queued_bursts} burst(s) / "
                f"{stream.fifo_words - stream.free_words} word(s) left "
                f"in the FIFO between transfers",
            )
        self.check_dram_quiescent(system.dram_controller, system.sim.now)
        self.check_kernel_quiescent(system.sim)

    # -- resilience governor ---------------------------------------------------------
    def on_governor_authorise(
        self, governor, region: str, requested: float, temp_c: float, granted: float
    ) -> None:
        self._count(2)
        if granted > requested:
            self.violate(
                "governor.authorise_clamp",
                f"{region}: authorised {granted} MHz above the requested "
                f"{requested} MHz",
            )
        if granted <= 0:
            self.violate(
                "governor.authorise_positive",
                f"{region}: authorised non-positive frequency {granted} MHz",
            )

    def on_governor_quarantine(
        self, governor, region: str, temp_bucket: int, floor_mhz: float
    ) -> None:
        self._count()
        key = (region, temp_bucket)
        previous = self._clamp_floor.get(key)
        if previous is not None and floor_mhz > previous:
            self.violate(
                "governor.clamp_monotonic",
                f"{region} tbucket {temp_bucket}: quarantine floor rose "
                f"from {previous} to {floor_mhz} MHz",
            )
        if previous is None or floor_mhz < previous:
            self._clamp_floor[key] = floor_mhz
