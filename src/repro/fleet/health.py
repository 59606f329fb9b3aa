"""Fleet health: failure detection and circuit breaking, per board.

:class:`FleetHealthTracker` is the fleet-level control plane that the
one fleet driver (:func:`repro.fleet.service.run_fleet`) feeds during
replay:

* **Detection** — a deterministic failure detector drives a per-board
  state machine ``healthy → degraded → quarantined → dead`` from the
  *measured* group outcomes only: a failed group or a group whose
  service ran past :data:`DEADLINE_FACTOR` × its planner estimate is a
  bad signal; :attr:`RecoveryPolicy.quarantine_after` consecutive bad
  groups quarantine the board (the fleet mirror of the frequency
  governor's operating-point quarantine); the
  :data:`~repro.chaos.faults.BOARD_KILL_KIND` fault downs a board
  permanently mid-run.
* **Circuit breaking** — a per-board breaker (closed/open/half-open)
  gates failover re-admission: quarantine opens the breaker, a
  deterministic cooldown (:data:`PROBE_COOLDOWN_US`, doubling per
  consecutive open) promotes it to half-open, one probe request per
  round tests the board, and a clean probe closes the breaker — the
  board rejoins.

Everything stays wall-clock-free and plain-data: the tracker's whole
trajectory is a pure function of the measured outcomes it is fed, in
replay order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..chaos.faults import BOARD_KILL_KIND
from ..resilience import RecoveryPolicy

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BoardHealth",
    "DEAD",
    "DEADLINE_FACTOR",
    "DEGRADED",
    "FleetHealthTracker",
    "HEALTHY",
    "HealthEvent",
    "PROBE_COOLDOWN_US",
    "QUARANTINED",
]

# -- board health states ------------------------------------------------------
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
DEAD = "dead"

# -- circuit-breaker states ---------------------------------------------------
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: A group whose measured service exceeds this multiple of its summed
#: planner estimate counts as a latency-deadline breach.  1.4 sits above
#: the worst single recoverable excursion a healthy board absorbs
#: (a dram_latency window stretches one load ~1.5× but a *group* sums
#: several loads) while a brownout — which clamps the clock for 1–5 ms,
#: spanning consecutive groups — lands above it repeatedly, which is
#: exactly the sustained-sickness signal quarantine exists for.
DEADLINE_FACTOR = 1.4

#: Base circuit-breaker cooldown: how long (µs, fleet time) after the
#: breaker opens before a half-open probe may be attempted.  Doubles on
#: every consecutive open (probe failure or re-quarantine), the breaker
#: analogue of the request backoff ladder.
PROBE_COOLDOWN_US = 3000.0


@dataclass(frozen=True)
class HealthEvent:
    """One state-machine transition of one board (plain data)."""

    t_us: float
    state: str
    reason: str

    def to_mapping(self) -> Dict[str, Any]:
        return {"t_us": self.t_us, "state": self.state, "reason": self.reason}


@dataclass
class BoardHealth:
    """Mutable health record of one board."""

    board: int
    state: str = HEALTHY
    breaker: str = BREAKER_CLOSED
    consecutive_bad: int = 0
    #: Times the breaker opened (drives the cooldown doubling).
    opens: int = 0
    cooldown_us: float = PROBE_COOLDOWN_US
    opened_at_us: Optional[float] = None
    timeline: List[HealthEvent] = field(default_factory=list)

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "board": self.board,
            "state": self.state,
            "breaker": self.breaker,
            "opens": self.opens,
            "consecutive_bad": self.consecutive_bad,
            "events": [event.to_mapping() for event in self.timeline],
        }


class FleetHealthTracker:
    """The deterministic failure detector + circuit breaker, fleet-wide.

    Fed exclusively with *measured* group outcomes (in replay order, so
    the whole trajectory is a pure function of the campaign seed); never
    consults the timing model's oracle or the wall clock.
    """

    def __init__(self, policy: RecoveryPolicy, boards: int):
        self.policy = policy
        self.boards: Dict[int, BoardHealth] = {
            board: BoardHealth(board=board) for board in range(boards)
        }
        #: Boards already given their one half-open probe this round.
        self._probed: Set[int] = set()

    # -- transitions ---------------------------------------------------------
    def _transition(
        self, health: BoardHealth, t_us: float, state: str, reason: str
    ) -> None:
        health.state = state
        health.timeline.append(
            HealthEvent(t_us=round(t_us, 3), state=state, reason=reason)
        )

    def _open_breaker(self, health: BoardHealth, t_us: float) -> None:
        health.breaker = BREAKER_OPEN
        health.opened_at_us = t_us
        health.cooldown_us = PROBE_COOLDOWN_US * (2.0 ** health.opens)
        health.opens += 1

    def observe_group(
        self, board: int, t_us: float, ok: bool, deadline_breached: bool
    ) -> None:
        """Feed one measured dispatch-group outcome into the detector."""
        health = self.boards[board]
        if health.state == DEAD:
            return
        if not ok or deadline_breached:
            health.consecutive_bad += 1
            reason = "group_failed" if not ok else "deadline_breached"
            if health.state == HEALTHY:
                self._transition(health, t_us, DEGRADED, reason)
            if (
                health.consecutive_bad >= self.policy.quarantine_after
                and health.state != QUARANTINED
            ):
                self._transition(
                    health,
                    t_us,
                    QUARANTINED,
                    f"{health.consecutive_bad} consecutive bad groups",
                )
                self._open_breaker(health, t_us)
        else:
            health.consecutive_bad = 0
            if health.state == DEGRADED:
                self._transition(health, t_us, HEALTHY, "group_ok")
            # A quarantined board draining its queue does not rejoin on
            # good groups — only a half-open probe closes the breaker.

    def observe_kill(
        self, board: int, t_us: float, reason: str = BOARD_KILL_KIND
    ) -> None:
        """The board is permanently down (kill fault or wedged sim)."""
        health = self.boards[board]
        if health.state == DEAD:
            return
        self._transition(health, t_us, DEAD, reason)
        health.breaker = BREAKER_OPEN
        health.opened_at_us = t_us

    # -- failover-side queries ------------------------------------------------
    def start_round(self) -> None:
        """A new failover round begins: probe allowances reset."""
        self._probed.clear()

    def candidates(self, arrival_us: float) -> Tuple[List[int], List[int]]:
        """Boards usable for a retry arriving at ``arrival_us``.

        Returns ``(closed, half_open)``: boards whose breaker is closed
        (normal placement targets) and boards promoted to half-open
        (their cooldown elapsed and they have not been probed this
        round — each may take exactly one probe request).
        """
        closed: List[int] = []
        half_open: List[int] = []
        for board in sorted(self.boards):
            health = self.boards[board]
            if health.state == DEAD:
                continue
            if (
                health.breaker == BREAKER_OPEN
                and health.opened_at_us is not None
                and arrival_us >= health.opened_at_us + health.cooldown_us
            ):
                health.breaker = BREAKER_HALF_OPEN
                health.timeline.append(
                    HealthEvent(
                        t_us=round(arrival_us, 3),
                        state=health.state,
                        reason="breaker_half_open",
                    )
                )
            if health.breaker == BREAKER_CLOSED:
                closed.append(board)
            elif (
                health.breaker == BREAKER_HALF_OPEN
                and board not in self._probed
            ):
                half_open.append(board)
        return closed, half_open

    def mark_probe(self, board: int) -> None:
        self._probed.add(board)

    def probe_result(self, board: int, t_us: float, ok: bool) -> None:
        """Grade the half-open probe: close the breaker or re-open it."""
        health = self.boards[board]
        if health.state == DEAD:
            return
        if ok:
            health.breaker = BREAKER_CLOSED
            health.consecutive_bad = 0
            health.cooldown_us = PROBE_COOLDOWN_US
            health.opened_at_us = None
            self._transition(health, t_us, HEALTHY, "probe_ok_rejoined")
        else:
            self._transition(health, t_us, QUARANTINED, "probe_failed")
            self._open_breaker(health, t_us)

    def timelines(self) -> List[Dict[str, Any]]:
        return [
            self.boards[board].to_mapping() for board in sorted(self.boards)
        ]
