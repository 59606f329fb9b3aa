"""Recovery policy: how hard to fight a failed reconfiguration.

The paper's central claim is *robustness*: over-clocking failures are
detected automatically (missing completion interrupt, read-back CRC
mismatch) so the system can safely run past spec.  The policy object
decides what to do once a failure is detected:

* how many attempts one logical reconfiguration may consume;
* the frequency backoff ladder — each retry after a hard failure runs
  the transfer slower, multiplicatively, until it lands back inside the
  silicon's true (temperature-dependent, unknown-to-the-firmware) fmax;
* per-failure-mode actions: a missing interrupt is a *control-path*
  violation and deterministic at a given operating point, so the only
  useful retry is a backed-off one; a CRC mismatch with the interrupt
  intact is a *data-path* violation whose corruption is re-drawn on
  every attempt, so a marginal violation is worth one same-frequency
  retry before backing off.

Policies are frozen plain-data objects so they can cross a process
boundary (the fault-injection campaign ships them to sweep workers) and
key the on-disk result cache.

The same policy object also governs **fleet-level request failover**
(the failover rounds of :func:`repro.fleet.service.run_fleet` and the
board detector of :mod:`repro.fleet.health`), deliberately sharing one set of knobs so
board-local retries and fleet-level re-admission cannot drift apart:

* ``max_attempts`` caps the *service attempts* a fleet request may
  consume across boards (first placement + failovers), exactly as it
  caps the attempts one board spends on a single reconfiguration;
* ``failover_backoff_base_us`` seeds the exponential re-admission
  backoff (retry *i* waits ``base · 2**i`` before re-entering the
  scheduler) — the only failover-specific constant, and it lives here
  rather than in the fleet layer so there is exactly one place that
  defines how hard the platform fights a failure;
* ``quarantine_after`` is reused as the consecutive-bad-group threshold
  at which the fleet health detector quarantines a *board*, mirroring
  the governor's per-operating-point quarantine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable

from ..timing import FailureMode

__all__ = ["RecoveryPolicy"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the detect→recover loop."""

    #: Total attempts per reconfiguration, including the first try.
    max_attempts: int = 4
    #: Multiplier applied to the frequency on every backoff step.
    backoff_factor: float = 0.9
    #: Never back off below this frequency (the PDR block's spec floor).
    freq_floor_mhz: float = 100.0
    #: A pure data-corrupt failure gets one same-frequency retry before
    #: the ladder engages (the salted fault injector re-draws the
    #: corruption, so a marginal violation can pass on the second try).
    retry_same_on_data_corrupt: bool = True
    #: Consecutive failures at one (region, frequency, temperature)
    #: operating point before the governor quarantines it.  The fleet
    #: health detector reuses the same threshold for consecutive bad
    #: dispatch groups before quarantining a board.
    quarantine_after: int = 2
    #: Fleet failover: delay (µs) before a failed request's *first*
    #: re-admission; each further retry doubles it (see
    #: :meth:`failover_delay_us` and :func:`repro.fleet.service.run_fleet`).
    failover_backoff_base_us: float = 400.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("policy needs at least one attempt")
        if not 0.0 < self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be in (0, 1)")
        if self.freq_floor_mhz <= 0:
            raise ValueError("frequency floor must be positive")
        if self.quarantine_after < 1:
            raise ValueError("quarantine threshold must be >= 1")
        if self.failover_backoff_base_us <= 0:
            raise ValueError("failover backoff base must be positive")

    # -- actions ---------------------------------------------------------------
    def next_frequency(
        self, freq_mhz: float, retry_index: int, detected_modes: Iterable[str]
    ) -> float:
        """Frequency for the retry after a failure at ``freq_mhz``.

        ``retry_index`` counts retries of this reconfiguration (0 = the
        retry right after the first failure); ``detected_modes`` is what
        the firmware *observed* (missing interrupt, CRC mismatch), not
        the timing model's oracle.
        """
        modes = set(detected_modes)
        if (
            self.retry_same_on_data_corrupt
            and retry_index == 0
            and modes == {FailureMode.DATA_CORRUPT}
        ):
            return freq_mhz
        return max(self.freq_floor_mhz, freq_mhz * self.backoff_factor)

    def failover_delay_us(self, retry_index: int) -> float:
        """Fleet re-admission backoff before retry ``retry_index``.

        ``retry_index`` counts failovers of one request (0 = the first
        re-admission after the original placement failed).  Exponential:
        ``base · 2**i`` — the fleet-level analogue of the per-board
        frequency ladder, bounded by the shared ``max_attempts`` budget.
        """
        if retry_index < 0:
            raise ValueError("retry index cannot be negative")
        return self.failover_backoff_base_us * (2.0 ** retry_index)

    def ladder(self, freq_mhz: float) -> list:
        """The full backoff ladder from ``freq_mhz`` down to the floor."""
        rungs = []
        freq = freq_mhz
        for _ in range(self.max_attempts - 1):
            freq = max(self.freq_floor_mhz, freq * self.backoff_factor)
            rungs.append(freq)
            if freq <= self.freq_floor_mhz:
                break
        return rungs

    # -- plain-data round-trip ---------------------------------------------------
    def to_mapping(self) -> Dict[str, Any]:
        """Plain-data form for sweep-point parameters / cache keys."""
        return asdict(self)

    @classmethod
    def from_mapping(cls, mapping=None) -> "RecoveryPolicy":
        """Rebuild from :meth:`to_mapping` output (or ``None`` for defaults)."""
        if not mapping:
            return cls()
        return cls(**dict(mapping))
