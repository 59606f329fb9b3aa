"""Clock domains.

Hardware blocks in this repository are clocked: their costs are expressed in
*cycles* of some :class:`ClockDomain`.  A domain's frequency can be changed
at run time (that is exactly what the paper's Clock Wizard does when the
user over-clocks), and all subsequent waits use the new period.
"""

from __future__ import annotations

from typing import Optional

from .errors import SimulationError
from .kernel import Event, Simulator, Timeout

__all__ = ["ClockDomain", "MHZ", "NS_PER_US", "NS_PER_S"]

#: Nanoseconds per microsecond / second (the kernel counts nanoseconds).
NS_PER_US = 1e3
NS_PER_S = 1e9
#: Multiply a MHz figure by this to get cycles per nanosecond.
MHZ = 1e-3


class ClockDomain:
    """A named clock whose frequency may change during simulation.

    The domain tracks the total number of cycles elapsed across frequency
    changes so that cycle-accurate counters (e.g. the PS global timer)
    remain correct when the Clock Wizard reprograms the PL clock.
    """

    def __init__(self, sim: Simulator, freq_mhz: float, name: str = "clk"):
        self.sim = sim
        self.name = name
        self._freq_mhz = 0.0
        self._cycles_before = 0.0  # cycles accumulated before the last change
        self._changed_at_ns = sim.now
        self.set_frequency(freq_mhz)

    # -- frequency ----------------------------------------------------------
    @property
    def freq_mhz(self) -> float:
        return self._freq_mhz

    @property
    def freq_hz(self) -> float:
        return self._freq_mhz * 1e6

    @property
    def period_ns(self) -> float:
        return 1e3 / self._freq_mhz

    def set_frequency(self, freq_mhz: float) -> None:
        """Reprogram the clock; takes effect for all subsequent waits."""
        if freq_mhz <= 0:
            raise SimulationError(f"clock frequency must be positive, got {freq_mhz}")
        if self._freq_mhz:
            self._cycles_before = self.elapsed_cycles
        self._freq_mhz = float(freq_mhz)
        self._changed_at_ns = self.sim.now

    # -- cycle accounting ------------------------------------------------------
    @property
    def elapsed_cycles(self) -> float:
        """Total cycles elapsed since construction (across freq changes)."""
        dt_ns = self.sim.now - self._changed_at_ns
        return self._cycles_before + dt_ns * self._freq_mhz * MHZ

    def cycles_to_ns(self, cycles: float) -> float:
        """Duration of ``cycles`` at the *current* frequency, in ns."""
        return cycles * self.period_ns

    def ns_to_cycles(self, ns: float) -> float:
        return ns / self.period_ns

    # -- waiting -----------------------------------------------------------------
    def wait_cycles(self, cycles: float) -> Timeout:
        """Event firing after ``cycles`` clock cycles at the current rate."""
        if cycles < 0:
            raise SimulationError(f"cannot wait negative cycles ({cycles})")
        # The per-burst wait of every clocked block: build the Timeout
        # directly, with the same float product as ``cycles_to_ns``.
        return Timeout(self.sim, cycles * (1e3 / self._freq_mhz))

    def tick(self) -> Timeout:
        """Event firing after exactly one cycle."""
        return self.wait_cycles(1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClockDomain {self.name} @ {self._freq_mhz:g} MHz>"
