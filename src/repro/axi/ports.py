"""Zynq PS↔PL ports.

The PL reaches PS memory through four High-Performance (HP) ports (64-bit,
150 MHz — 1 200 MB/s raw each), the ACP port (64-bit, coherent with the
CPU caches, limited working set) and two General-Purpose (GP) ports
(32-bit, control plane).  Port width/clock bound the streaming rate; the
interconnect + DDR controller behind them add the access latency.  The
combination reproduces the paper's measured memory-path bandwidth of
~816 MB/s for 1 KiB read bursts (DESIGN.md §5).
"""

from __future__ import annotations

from ..sim import Event, Simulator

from .interconnect import AxiInterconnect

__all__ = ["AxiHpPort", "AxiAcpPort"]


class AxiHpPort:
    """One AXI HP slave port (PL master -> PS memory)."""

    def __init__(
        self,
        sim: Simulator,
        interconnect: AxiInterconnect,
        width_bits: int = 64,
        clock_mhz: float = 150.0,
        name: str = "hp0",
    ):
        if width_bits % 8:
            raise ValueError("port width must be a whole number of bytes")
        self.sim = sim
        self.interconnect = interconnect
        self.width_bits = width_bits
        self.clock_mhz = clock_mhz
        self.name = name
        #: One name for every read burst's completion event and process.
        self._read_name = f"{name}.read"
        self.bytes_transferred = 0

    @property
    def raw_bandwidth_bytes_per_ns(self) -> float:
        """Width x clock: 64 bit @ 150 MHz = 1.2 bytes/ns (1 200 MB/s)."""
        return (self.width_bits / 8) * self.clock_mhz * 1e-3

    def stream_ns(self, size: int) -> float:
        return size / self.raw_bandwidth_bytes_per_ns

    def read(self, addr: int, size: int) -> Event:
        """Read a burst through the port; value is the data bytes.

        The port streams data to the PL while the DDR supplies it; since
        DDR peak (~4.3 GB/s) exceeds the port rate (1.2 GB/s), the data
        phase is port-limited: total = interconnect+access latency +
        max(DDR transfer, port transfer).
        """
        done = Event(self.sim, self._read_name)
        self.sim.process(self._read(addr, size, done), name=self._read_name)
        return done

    def _read(self, addr: int, size: int, done: Event):
        # An error response on the bus must land on the *issuing*
        # master's completion event, not kill this port process.
        try:
            data = yield self.interconnect.read(addr, size, master=self.name)
        except Exception as exc:
            done.fail(exc)
            return
        ddr_transfer = self.interconnect.controller.device.transfer_ns(size)
        extra = self.stream_ns(size) - ddr_transfer
        if extra > 0:
            yield self.sim.timeout(extra)
        self.bytes_transferred += size
        done.succeed(data)

    def write(self, addr: int, data: bytes) -> Event:
        done = self.sim.event(name=f"{self.name}.write")

        def transaction():
            ddr_transfer = self.interconnect.controller.device.transfer_ns(len(data))
            extra = self.stream_ns(len(data)) - ddr_transfer
            if extra > 0:
                yield self.sim.timeout(extra)
            try:
                yield self.interconnect.write(addr, data, master=self.name)
            except Exception as exc:
                done.fail(exc)
                return
            self.bytes_transferred += len(data)
            done.succeed(None)

        self.sim.process(transaction(), name=f"{self.name}.write@{addr:#x}")
        return done


class AxiAcpPort:
    """The Accelerator Coherency Port: cache-backed, low latency.

    The paper notes the ACP cannot move large data sets because it works
    against the 512 KB L2 cache; transfers larger than the cache are
    rejected, and hit latency is far lower than the DDR path.
    """

    CACHE_BYTES = 512 * 1024
    HIT_LATENCY_NS = 60.0

    def __init__(
        self,
        sim: Simulator,
        interconnect: AxiInterconnect,
        width_bits: int = 64,
        clock_mhz: float = 150.0,
        name: str = "acp",
    ):
        self.sim = sim
        self.interconnect = interconnect
        self.width_bits = width_bits
        self.clock_mhz = clock_mhz
        self.name = name
        self.bytes_transferred = 0

    @property
    def raw_bandwidth_bytes_per_ns(self) -> float:
        return (self.width_bits / 8) * self.clock_mhz * 1e-3

    def read(self, addr: int, size: int) -> Event:
        if size > self.CACHE_BYTES:
            raise ValueError(
                f"ACP transfer of {size} bytes exceeds the {self.CACHE_BYTES}-byte "
                f"cache working set (use an HP port for bulk data)"
            )
        done = self.sim.event(name=f"{self.name}.read")

        def transaction():
            # Cache-hit path: fixed latency + port-rate streaming; data
            # content still comes from the unified backing store.
            yield self.sim.timeout(
                self.HIT_LATENCY_NS + size / self.raw_bandwidth_bytes_per_ns
            )
            data = self.interconnect.controller.device.load(addr, size)
            self.bytes_transferred += size
            done.succeed(data)

        self.sim.process(transaction(), name=f"{self.name}.read@{addr:#x}")
        return done
