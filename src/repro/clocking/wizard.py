"""Clock Wizard: an MMCM/PLL frequency synthesiser model.

The paper uses the Xilinx Clocking Wizard IP to generate the over-clock
from the 100 MHz PS fabric clock.  An MMCM can only produce frequencies
of the form

    f_out = f_in · M / (D · O)

with the VCO (f_in · M / D) constrained to a legal band, so arbitrary
requests are quantised to the nearest achievable setting.  Every paper
frequency (100…360 MHz) is exactly synthesisable; the model also charges
the MMCM's lock time on every reprogramming, which the firmware must wait
out before starting a transfer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

from ..sim import ClockDomain, Event, Simulator

__all__ = ["MmcmConstraints", "MmcmSetting", "ClockWizard"]


@dataclass(frozen=True)
class MmcmConstraints:
    """Legal MMCM parameter ranges (Zynq-7000 speed grade -1)."""

    vco_min_mhz: float = 600.0
    vco_max_mhz: float = 1440.0
    mult_min: int = 2
    mult_max: int = 64
    div_min: int = 1
    div_max: int = 106
    outdiv_min: int = 1
    outdiv_max: int = 128
    lock_time_us: float = 50.0


@dataclass(frozen=True)
class MmcmSetting:
    """One chosen (M, D, O) triple."""

    mult: int
    div: int
    outdiv: int
    f_in_mhz: float

    @property
    def vco_mhz(self) -> float:
        return self.f_in_mhz * self.mult / self.div

    @property
    def f_out_mhz(self) -> float:
        return self.vco_mhz / self.outdiv


@functools.lru_cache(maxsize=256)
def _best_setting(
    f_in_mhz: float, c: MmcmConstraints, target_mhz: float
) -> MmcmSetting:
    """:meth:`ClockWizard.best_setting`, memoised: the search is a pure
    function of its arguments and walks every legal (M, D, O) — a few
    milliseconds per reconfiguration otherwise."""
    best: Optional[Tuple[float, float, MmcmSetting]] = None
    for div in range(c.div_min, c.div_max + 1):
        pfd = f_in_mhz / div
        if pfd < 10.0:  # PFD floor: very large D is illegal
            break
        for mult in range(c.mult_min, c.mult_max + 1):
            vco = f_in_mhz * mult / div
            if vco < c.vco_min_mhz:
                continue
            if vco > c.vco_max_mhz:
                break
            outdiv = max(c.outdiv_min, min(c.outdiv_max, round(vco / target_mhz)))
            for o in (outdiv - 1, outdiv, outdiv + 1):
                if not c.outdiv_min <= o <= c.outdiv_max:
                    continue
                setting = MmcmSetting(mult=mult, div=div, outdiv=o, f_in_mhz=f_in_mhz)
                error = abs(setting.f_out_mhz - target_mhz)
                key = (error, -setting.vco_mhz)
                if best is None or key < (best[0], best[1]):
                    best = (error, -setting.vco_mhz, setting)
    if best is None:
        raise ValueError(
            f"no legal MMCM setting near {target_mhz} MHz from "
            f"{f_in_mhz} MHz input"
        )
    return best[2]


class ClockWizard:
    """Programs a :class:`~repro.sim.ClockDomain` through an MMCM model."""

    def __init__(
        self,
        sim: Simulator,
        domain: ClockDomain,
        f_in_mhz: float = 100.0,
        constraints: MmcmConstraints = MmcmConstraints(),
        name: str = "clk_wiz",
    ):
        self.sim = sim
        self.domain = domain
        self.f_in_mhz = f_in_mhz
        self.constraints = constraints
        self.name = name
        self.locked = True
        self.current_setting: Optional[MmcmSetting] = None
        self.reprogram_count = 0
        self.lock_losses = 0

    # -- synthesis ---------------------------------------------------------
    def best_setting(self, target_mhz: float) -> MmcmSetting:
        """The legal (M, D, O) whose output is closest to ``target_mhz``.

        Ties prefer the higher VCO (better jitter), as the wizard does.
        """
        if target_mhz <= 0:
            raise ValueError("target frequency must be positive")
        return _best_setting(self.f_in_mhz, self.constraints, target_mhz)

    def achievable_mhz(self, target_mhz: float) -> float:
        return self.best_setting(target_mhz).f_out_mhz

    # -- programming ---------------------------------------------------------
    def program(self, target_mhz: float) -> Event:
        """Reprogram the output clock; fires when the MMCM relocks.

        The clock domain is updated to the *achieved* frequency (which may
        differ slightly from the request if it is not synthesisable).
        """
        setting = self.best_setting(target_mhz)
        self.locked = False
        self.reprogram_count += 1
        done = self.sim.event(name=f"{self.name}.lock")

        def relock():
            yield self.sim.timeout(self.constraints.lock_time_us * 1e3)
            self.domain.set_frequency(setting.f_out_mhz)
            self.current_setting = setting
            self.locked = True
            done.succeed(setting.f_out_mhz)

        self.sim.process(relock(), name=f"{self.name}.relock")
        return done

    def lose_lock(self) -> Optional[Event]:
        """Spontaneous loss of lock (input glitch / voltage droop).

        The MMCM drops lock and the output falls back to the input
        reference until it re-locks on its own after the lock time; the
        previously programmed setting is then restored.  If a
        :meth:`program` call supersedes the recovery (a newer
        reprogramming is itself waiting out the lock time), the stale
        recovery abandons — the reprogram's own relock wins.

        Returns the re-lock event, or ``None`` if the wizard was already
        unlocked (the in-flight relock subsumes the glitch).
        """
        if not self.locked:
            return None
        self.locked = False
        self.lock_losses += 1
        generation = self.reprogram_count
        setting = self.current_setting
        fallback_mhz = setting.f_out_mhz if setting is not None else None
        self.domain.set_frequency(self.f_in_mhz)
        done = self.sim.event(name=f"{self.name}.relock_after_loss")

        def recover():
            yield self.sim.timeout(self.constraints.lock_time_us * 1e3)
            if self.reprogram_count != generation:
                done.succeed(None)
                return
            if fallback_mhz is not None:
                self.domain.set_frequency(fallback_mhz)
            self.locked = True
            done.succeed(fallback_mhz)

        self.sim.process(recover(), name=f"{self.name}.loss_recovery")
        return done
