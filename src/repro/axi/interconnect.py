"""AXI memory-mapped crossbar interconnect.

Routes master bursts to the DDR controller.  Each master gets its own
command lane: a private FIFO drained by a per-master process that pays
the forward-path latency (address decode + register slices) and then
issues the burst to the controller tagged with the master's name.  Lanes
run concurrently — so when the Fig. 1 framework's DMA bitstream fetch,
CPU traffic, and a second tenant's generator all pull on the memory
system at once, their forward paths overlap and the *DDR command
multiplexer* (round-robin, in :class:`repro.dram.BankDramController`)
becomes the genuine point of contention, with per-master bandwidth
accounting on both sides.

For a single master this times identically to the previous serialising
round-robin arbiter: one lane, FIFO order, forward latency then
controller service.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..dram import BankDramController
from ..obs import MetricsRegistry
from ..sim import Event, Simulator

__all__ = ["AxiInterconnect", "AxiSlaveError"]

_DEFAULT_MASTER = "m0"


class AxiSlaveError(RuntimeError):
    """An AXI error response (SLVERR/DECERR) on the memory-mapped bus.

    Raised *through the transaction's completion event* — the waiting
    master receives it where it yielded, exactly like a real error
    response lands on the issuing channel.
    """


class _Lane:
    """One master's command lane: FIFO queue + wake event."""

    __slots__ = ("queue", "wake")

    def __init__(self):
        self.queue: Deque[tuple] = deque()
        self.wake: Optional[Event] = None


class AxiInterconnect:
    """Master-side crossbar entry into the PS memory system."""

    def __init__(
        self,
        sim: Simulator,
        controller: BankDramController,
        forward_latency_ns: float = 160.0,
        name: str = "axi_ic",
        metrics: Optional[MetricsRegistry] = None,
    ):
        if forward_latency_ns < 0:
            raise ValueError("forward latency cannot be negative")
        self.sim = sim
        self.controller = controller
        self.forward_latency_ns = forward_latency_ns
        self.name = name
        self._read_name = f"{name}.read"
        self._write_name = f"{name}.write"
        self._lanes: Dict[str, _Lane] = {}
        self.transactions = 0
        self.per_master_transactions: Dict[str, int] = {}
        self.per_master_bytes: Dict[str, int] = {}
        self.per_master_wait_ns: Dict[str, float] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self._m_transactions = self.metrics.counter(f"{name}.transactions")
        self._m_bytes = self.metrics.counter(f"{name}.bytes")
        self._m_outstanding = self.metrics.gauge(f"{name}.outstanding_requests")
        self._m_queue_wait_us = self.metrics.histogram(f"{name}.queue_wait_us")
        self._m_error_responses = self.metrics.counter(f"{name}.error_responses")
        self._m_master_bytes: Dict[str, object] = {}
        self._m_master_wait: Dict[str, object] = {}
        self._m_outstanding.set(0.0)
        #: Optional fault hooks (installed by :mod:`repro.chaos`).
        #: ``fault_stall_ns()`` adds forward-path latency to the next
        #: transaction (arbitration/register-slice stall);
        #: ``fault_error(kind, addr, size)`` may return an exception with
        #: which the transaction completes instead of reaching the DDR
        #: controller (an SLVERR response).
        self.fault_stall_ns: Optional[Callable[[], float]] = None
        self.fault_error: Optional[
            Callable[[str, int, int], Optional[Exception]]
        ] = None

    # -- master API ----------------------------------------------------------
    def read(self, addr: int, size: int, master: str = _DEFAULT_MASTER) -> Event:
        """Submit a read; the event value is the data bytes."""
        done = Event(self.sim, self._read_name)
        self._submit(master, ("r", addr, size, None, done, self.sim.now))
        return done

    def write(self, addr: int, data: bytes, master: str = _DEFAULT_MASTER) -> Event:
        done = Event(self.sim, self._write_name)
        self._submit(master, ("w", addr, len(data), data, done, self.sim.now))
        return done

    # -- internals ----------------------------------------------------------
    def _submit(self, master: str, request: tuple) -> None:
        lane = self._lanes.get(master)
        if lane is None:
            lane = self._lanes[master] = _Lane()
            self.per_master_transactions[master] = 0
            self.per_master_bytes[master] = 0
            self.per_master_wait_ns[master] = 0.0
            self._m_master_bytes[master] = self.metrics.counter(
                f"{self.name}.master.{master}.bytes"
            )
            self._m_master_wait[master] = self.metrics.counter(
                f"{self.name}.master.{master}.wait_ns"
            )
            self.sim.process(
                self._lane_server(master, lane),
                name=f"{self.name}.lane.{master}",
                daemon=True,
            )
        lane.queue.append(request)
        self._m_outstanding.add(1)
        wake = lane.wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _lane_server(self, master: str, lane: _Lane):
        # Everything per-master is fixed for the lane's lifetime: bind it
        # once instead of per transaction.
        sim = self.sim
        queue = lane.queue
        wake_name = f"{self.name}.lane.{master}.wake"
        master_wait = self._m_master_wait[master]
        master_bytes = self._m_master_bytes[master]
        m_transactions = self._m_transactions
        m_bytes = self._m_bytes
        m_queue_wait_us = self._m_queue_wait_us
        m_outstanding = self._m_outstanding
        per_master_transactions = self.per_master_transactions
        per_master_wait_ns = self.per_master_wait_ns
        per_master_bytes = self.per_master_bytes
        while True:
            if not queue:
                lane.wake = Event(sim, wake_name)
                yield lane.wake
            kind, addr, size, data, done, submitted_ns = queue.popleft()
            wait_ns = sim.now - submitted_ns
            self.transactions += 1
            per_master_transactions[master] += 1
            per_master_wait_ns[master] += wait_ns
            master_wait.inc(wait_ns)
            m_transactions.inc()
            m_bytes.inc(size)
            m_queue_wait_us.observe(wait_ns / 1e3)
            # Forward path: address decode + arbitration + register slices.
            stall_ns = 0.0
            if self.fault_stall_ns is not None:
                stall_ns = max(0.0, self.fault_stall_ns())
            yield sim.timeout(self.forward_latency_ns + stall_ns)
            if self.fault_error is not None:
                error = self.fault_error(kind, addr, size)
                if error is not None:
                    self._m_error_responses.inc()
                    done.fail(error)
                    m_outstanding.add(-1)
                    continue
            if kind == "r":
                payload = yield self.controller.read(addr, size, master=master)
                done.succeed(payload)
            else:
                yield self.controller.write(addr, data, master=master)
                done.succeed(None)
            per_master_bytes[master] += size
            master_bytes.inc(size)
            m_outstanding.add(-1)
