"""Bank-aware DDR controller: bank machines, refresh engine, multiplexer.

The PS memory controller every bitstream byte crosses on its way from
DDR to the ICAP.  Three cooperating pieces, mirroring a real DDR
controller's split (and the gram-style decomposition named in
ROADMAP.md):

* **Bank machines** — per-bank open-row state lives in
  :class:`~repro.dram.device.DramDevice` (so snapshot fork/restore
  carries it).  Each access is classified hit / miss / conflict and
  priced from :class:`BankTiming`:

  ==========  =============================  =========================
  outcome     commands                       latency
  ==========  =============================  =========================
  hit         CAS                            tCAS
  miss        ACTIVATE + CAS                 tRCD + tCAS
  conflict    PRECHARGE + ACTIVATE + CAS     tRP + tRCD + tCAS
  ==========  =============================  =========================

  Under the **closed-page** policy every access auto-precharges, so no
  row stays open and every access pays tRCD + tCAS.

* **Refresh engine** — one all-banks refresh is *due* every tREFI and
  occupies the command bus for tRFC.  ``refresh_mode="engine"`` models
  that deterministically: refresh *k* becomes due at ``k·tREFI``, runs
  at ``max(due, previous refresh end, last service end)``, and any
  request arriving while the engine holds the bus stalls for the
  remainder (counted in ``refresh_stall_ns``).  ``refresh_mode="lazy"``
  is the cheaper default accounting the paper campaigns are calibrated
  with: refreshes that fell in idle gaps are free, and at most one tRFC
  is charged per busy period.  ``refresh_mode="off"`` disables refresh
  entirely.

* **Command multiplexer** — per-master FIFO queues drained round-robin
  onto the single shared command/data bus.  One burst occupies the bus
  end-to-end (stall + activate/precharge + CAS + data transfer); that
  serialisation is exactly the multi-master contention the paper's
  memory-path bottleneck comes from.  Per-master bytes / wait ledgers
  feed the crossbar's bandwidth accounting.

Calibration note: the defaults (tCAS 202, tRCD 100, **tRP 0**) are
end-to-end figures at the controller port — row hit 202 ns, row miss
302 ns — with precharge folded into the activate figure, so by default
conflict == miss == 302 ns.  They are calibrated so the full HP-port
path matches the paper's measured memory-side bandwidth (DESIGN.md §5).
Set ``dram_trp_ns`` (e.g. 100 ns) for a distinct conflict penalty, as
the contention campaign does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from ..obs import MetricsRegistry
from ..sim import Event, Simulator

from .device import DramDevice

__all__ = [
    "BankDramController",
    "BankTiming",
    "MasterLedger",
    "MemoryRequest",
    "PAGE_POLICIES",
    "REFRESH_MODES",
]

PAGE_POLICIES = ("open", "closed")
REFRESH_MODES = ("off", "lazy", "engine")


@dataclass
class MasterLedger:
    """Per-master traffic accounting at the DDR controller."""

    requests: int = 0
    bytes: int = 0
    wait_ns: float = 0.0


@dataclass
class MemoryRequest:
    """One burst request as issued by an AXI master."""

    addr: int
    size: int
    is_write: bool = False
    data: Optional[bytes] = None
    #: Filled by the controller for reads.
    read_data: Optional[bytes] = field(default=None, repr=False)
    done: Optional[Event] = None
    #: Submission time, for queue-wait accounting.
    submitted_ns: float = 0.0
    #: Issuing master (crossbar routing tag + per-master accounting).
    master: str = "m0"


@dataclass(frozen=True)
class BankTiming:
    """Decomposed DDR command timings (ns)."""

    #: Column access: CAS-to-data latency, as seen end-to-end at the port.
    tcas_ns: float = 202.0
    #: ACTIVATE-to-CAS (row open) latency.
    trcd_ns: float = 100.0
    #: PRECHARGE (row close) latency.  0 by default: the calibrated
    #: row-miss figure already folds precharge into activate.
    trp_ns: float = 0.0
    #: Average refresh interval — one refresh is due every tREFI.
    trefi_ns: float = 7800.0
    #: Refresh cycle time — the command bus is held for tRFC per refresh.
    trfc_ns: float = 160.0

    @property
    def hit_ns(self) -> float:
        return self.tcas_ns

    @property
    def miss_ns(self) -> float:
        return self.trcd_ns + self.tcas_ns

    @property
    def conflict_ns(self) -> float:
        return self.trp_ns + self.trcd_ns + self.tcas_ns

    def access_ns(self, outcome: str) -> float:
        if outcome == "hit":
            return self.hit_ns
        if outcome == "miss":
            return self.miss_ns
        return self.conflict_ns


class BankDramController:
    """Bank-aware DDR controller with a multi-master command multiplexer.

    ``read``/``write`` return completion events; the ``master=`` tag
    routes each burst into its own queue for round-robin arbitration and
    per-master accounting.
    """

    def __init__(
        self,
        sim: Simulator,
        device: Optional[DramDevice] = None,
        name: str = "ddrc",
        metrics: Optional[MetricsRegistry] = None,
        timing: Optional[BankTiming] = None,
        page_policy: str = "open",
        refresh_mode: str = "lazy",
    ):
        if page_policy not in PAGE_POLICIES:
            raise ValueError(
                f"page_policy must be one of {PAGE_POLICIES}, got {page_policy!r}"
            )
        if refresh_mode not in REFRESH_MODES:
            raise ValueError(
                f"refresh_mode must be one of {REFRESH_MODES}, got {refresh_mode!r}"
            )
        self.sim = sim
        self.device = device or DramDevice()
        self.name = name
        self.timing = timing or BankTiming()
        self.page_policy = page_policy
        self.refresh_mode = refresh_mode
        self._queues: Dict[str, Deque[MemoryRequest]] = {}
        self._rr_order: List[str] = []
        self._rr_index = 0
        self._pending = 0
        self._wakeup: Event = sim.event(name=f"{name}.wake")
        self.requests_served = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_ns = 0.0
        self.queue_wait_ns = 0.0
        self.refresh_stall_ns = 0.0
        self.refreshes_completed = 0
        self.masters: Dict[str, MasterLedger] = {}
        # Lazy-refresh state.
        self._last_refresh_ns = 0.0
        # Engine-refresh state: next due time, bus-held-until, last
        # service end (a refresh can't preempt an in-flight burst).
        self._refresh_next_ns = self.timing.trefi_ns
        self._refresh_busy_until_ns = 0.0
        self._service_end_ns = 0.0
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self._m_requests = self.metrics.counter(f"{name}.requests_served")
        self._m_bytes_read = self.metrics.counter(f"{name}.bytes_read")
        self._m_bytes_written = self.metrics.counter(f"{name}.bytes_written")
        self._m_queue_depth = self.metrics.gauge(f"{name}.queue_depth")
        self._m_queue_wait_us = self.metrics.histogram(f"{name}.queue_wait_us")
        self._m_service_us = self.metrics.histogram(f"{name}.service_us")
        self._m_row_hits = self.metrics.counter(f"{name}.row_hits")
        self._m_row_misses = self.metrics.counter(f"{name}.row_misses")
        self._m_row_conflicts = self.metrics.counter(f"{name}.row_conflicts")
        self._m_refresh_stall = self.metrics.counter(f"{name}.refresh_stall_ns")
        self._m_refreshes = self.metrics.counter(f"{name}.refreshes_completed")
        self._m_queue_wait_ns = self.metrics.counter(f"{name}.queue_wait_ns")
        self._m_master_bytes: Dict[str, object] = {}
        self._m_master_wait: Dict[str, object] = {}
        self._m_queue_depth.set(0.0)
        #: Optional fault hooks (installed by :mod:`repro.chaos`).
        #: ``fault_latency_ns(request)`` adds service latency to one
        #: request (a latency spike); ``fault_read_tamper(request, data)``
        #: may return altered read data (an in-flight bit flip).  Both are
        #: consulted on the server path only — the backing store itself is
        #: never modified, matching transient DRAM/link faults.
        self.fault_latency_ns: Optional[Callable[[MemoryRequest], float]] = None
        self.fault_read_tamper: Optional[
            Callable[[MemoryRequest, bytes], bytes]
        ] = None
        #: Optional :class:`repro.verify.InvariantMonitor` (set by attach).
        self.monitor = None
        sim.process(self._serve(), name=f"{name}.server", daemon=True)

    # -- master-facing API ----------------------------------------------------
    def read(self, addr: int, size: int, master: str = "m0") -> Event:
        """Submit a read burst; the event's value is the data bytes."""
        request = MemoryRequest(
            addr=addr,
            size=size,
            done=self.sim.event(),
            submitted_ns=self.sim.now,
            master=master,
        )
        self._submit(request)
        return request.done

    def write(self, addr: int, data: bytes, master: str = "m0") -> Event:
        """Submit a write burst; the event fires when committed."""
        request = MemoryRequest(
            addr=addr,
            size=len(data),
            is_write=True,
            data=data,
            done=self.sim.event(),
            submitted_ns=self.sim.now,
            master=master,
        )
        self._submit(request)
        return request.done

    @property
    def queue_depth(self) -> int:
        return self._pending

    # -- command multiplexer -------------------------------------------------
    def _submit(self, request: MemoryRequest) -> None:
        master = request.master
        if master not in self._queues:
            self._queues[master] = deque()
            self._rr_order.append(master)
            self.masters[master] = MasterLedger()
            self._m_master_bytes[master] = self.metrics.counter(
                f"{self.name}.master.{master}.bytes"
            )
            self._m_master_wait[master] = self.metrics.counter(
                f"{self.name}.master.{master}.wait_ns"
            )
        self._queues[master].append(request)
        self._pending += 1
        self._m_queue_depth.set(self._pending)
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _next_request(self) -> MemoryRequest:
        """Round-robin pick: resume scanning after the last-served master."""
        count = len(self._rr_order)
        for offset in range(count):
            index = (self._rr_index + offset) % count
            master = self._rr_order[index]
            queue = self._queues[master]
            if queue:
                self._rr_index = (index + 1) % count
                return queue.popleft()
        raise AssertionError("pending count out of sync with queues")

    # -- refresh engine -------------------------------------------------------
    def _refresh_stall(self, start_ns: float) -> float:
        """Stall imposed on a burst starting at ``start_ns`` by refresh.

        Advances refresh bookkeeping as a side effect.  Deterministic:
        depends only on the timing parameters and the service history.
        """
        timing = self.timing
        if self.refresh_mode == "off" or timing.trefi_ns <= 0:
            return 0.0
        if self.refresh_mode == "lazy":
            elapsed = start_ns - self._last_refresh_ns
            if elapsed >= timing.trefi_ns:
                intervals = int(elapsed // timing.trefi_ns)
                self._last_refresh_ns += intervals * timing.trefi_ns
                self.refreshes_completed += intervals
                self._m_refreshes.inc(intervals)
                return timing.trfc_ns
            return 0.0
        # engine: run every refresh due by start_ns at its earliest slot.
        busy_until = self._refresh_busy_until_ns
        next_due = self._refresh_next_ns
        floor = self._service_end_ns
        completed = 0
        while next_due <= start_ns:
            begin = max(next_due, busy_until, floor)
            busy_until = begin + timing.trfc_ns
            next_due += timing.trefi_ns
            completed += 1
        if completed:
            self._refresh_busy_until_ns = busy_until
            self._refresh_next_ns = next_due
            self.refreshes_completed += completed
            self._m_refreshes.inc(completed)
        return max(0.0, busy_until - start_ns)

    def sync_refresh(self, now_ns: Optional[float] = None) -> None:
        """Catch up refresh bookkeeping to ``now_ns`` (engine mode).

        Idempotent and timing-neutral: it executes exactly the refreshes
        a subsequent request would have executed, in the same slots, so
        calling it (e.g. from a quiescence check) never changes later
        service timing.
        """
        if self.refresh_mode == "engine":
            self._refresh_stall(self.sim.now if now_ns is None else now_ns)

    # -- server ----------------------------------------------------------------
    def _serve(self):
        sim = self.sim
        timing = self.timing
        device = self.device
        wake_name = f"{self.name}.wake"
        m_queue_depth = self._m_queue_depth
        m_queue_wait_ns = self._m_queue_wait_ns
        m_queue_wait_us = self._m_queue_wait_us
        m_service_us = self._m_service_us
        m_requests = self._m_requests
        m_outcome = {
            "hit": self._m_row_hits,
            "miss": self._m_row_misses,
            "conflict": self._m_row_conflicts,
        }
        while True:
            if self._pending == 0:
                self._wakeup = Event(sim, wake_name)
                yield self._wakeup
            request = self._next_request()
            self._pending -= 1
            started = sim.now
            m_queue_depth.set(self._pending)
            wait_ns = started - request.submitted_ns
            self.queue_wait_ns += wait_ns
            m_queue_wait_ns.inc(wait_ns)
            m_queue_wait_us.observe(wait_ns / 1e3)
            ledger = self.masters[request.master]
            ledger.requests += 1
            ledger.wait_ns += wait_ns
            self._m_master_wait[request.master].inc(wait_ns)

            stall_ns = self._refresh_stall(started)
            if stall_ns:
                self.refresh_stall_ns += stall_ns
                self._m_refresh_stall.inc(stall_ns)
            outcome, bank, row, open_before = device.bank_access(
                request.addr, request.size, self.page_policy
            )
            m_outcome[outcome].inc()
            if self.monitor is not None:
                self.monitor.on_dram_access(
                    self, request, bank, row, outcome, open_before, stall_ns
                )
            access = timing.access_ns(outcome)
            transfer = device.transfer_ns(request.size)
            fault_ns = 0.0
            if self.fault_latency_ns is not None:
                fault_ns = max(0.0, self.fault_latency_ns(request))
            yield sim.timeout(stall_ns + access + transfer + fault_ns)

            if request.is_write:
                assert request.data is not None
                device.store(request.addr, request.data)
                self.bytes_written += request.size
                self._m_bytes_written.inc(request.size)
            else:
                request.read_data = device.load(request.addr, request.size)
                if self.fault_read_tamper is not None:
                    request.read_data = self.fault_read_tamper(
                        request, request.read_data
                    )
                self.bytes_read += request.size
                self._m_bytes_read.inc(request.size)
            ledger.bytes += request.size
            self._m_master_bytes[request.master].inc(request.size)
            self.requests_served += 1
            m_requests.inc()
            service_ns = sim.now - started
            self.busy_ns += service_ns
            m_service_us.observe(service_ns / 1e3)
            self._service_end_ns = sim.now
            request.done.succeed(request.read_data)
