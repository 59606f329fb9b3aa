"""Fleet execution: one plan → execute → replay driver for every campaign.

:func:`run_fleet` is the service's main loop, split into deterministic
phases:

1. **Plan** — :func:`~repro.fleet.workload.build_workload` +
   :func:`~repro.fleet.scheduler.plan_fleet` turn ``(seed, duration,
   rate, mode)`` into per-board dispatch schedules.  Pure data.
2. **Execute** — each board's schedule runs in :func:`board_point` on a
   real :class:`~repro.core.PdrSystem` (forked from the snapshot
   template) through :class:`~repro.resilience.ResilientReconfigurator`,
   so per-board retries, backoff and governor clamping sit *inside* the
   measured service times.  Boards are independent — the only
   cross-board coupling (placement) already happened in the plan — so
   this phase fans out over :class:`~repro.exec.SweepRunner`, whose
   merge-in-spec-order contract keeps ``--jobs N`` byte-identical to
   serial.
3. **Replay** — the *measured* per-group service times are replayed
   against the request arrival times to recover the fleet timeline: a
   group starts when the board is free and every member has arrived;
   every member completes when its group does.  Queue wait and
   end-to-end latency per request fall out, and with them the SLOs.
   The replay feeds every group outcome to the
   :class:`~repro.fleet.health.FleetHealthTracker`; requests whose load
   failed, or that a dead board stranded, go through failover rounds:
   re-admitted with capped attempts (``RecoveryPolicy.max_attempts``)
   and exponential backoff (``RecoveryPolicy.failover_delay_us``) onto
   the least-loaded board the circuit breakers allow, then executed and
   replayed again on fresh forked boards.

Chaos is a fault plan, not a second driver.  Round 0 executes the
planner's schedule; with ``spec.chaos`` set every board arms its own
seed-deterministic :class:`~repro.chaos.faults.FaultPlan` (salted by
board index) and the kill schedule downs ``spec.kill_boards`` boards
mid-run.  Without chaos the fault plan is empty, every load succeeds at
the robust operating point and no failover round runs.  Failover rounds
always run post-storm — the paper's robustness story is that the
platform recovers once the environmental excursion passes.
Re-admissions bypass the admission queue-depth check: the circuit
breaker is the gate for retry traffic, and re-rejecting an already
admitted request would break the terminal-outcome conservation law
(served + rejected + exhausted == offered).

``spec.verify`` attaches an :class:`~repro.verify.invariants.
InvariantMonitor` to every board system and only observes: the report
gains a ``verify`` block and is otherwise unchanged.

The split exists because a board's simulator only knows its own clock
(each board simulates its dispatch sequence back-to-back from t=0); the
queueing behaviour lives in the arrival process, which the replay owns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..chaos.faults import BOARD_KILL_KIND, build_board_fault_plan
from ..chaos.injector import ChaosInjector
from ..exec.runner import SweepRunner, note_events
from ..resilience import RecoveryPolicy, ResilientReconfigurator
from ..snapshot.templates import fork_system
from ..verify.fuzz import _make_asp
from ..verify.invariants import InvariantMonitor
from .health import DEAD, DEADLINE_FACTOR, FleetHealthTracker
from .report import (
    BoardUsage,
    FleetReport,
    RequestOutcome,
    TERMINAL_EXHAUSTED,
    TERMINAL_SERVED,
)
from .scheduler import (
    PlannedJob,
    estimate_service_us,
    least_loaded_board,
    plan_fleet,
)
from .workload import ARRIVAL_MODES, build_workload

__all__ = ["FleetSpec", "board_point", "plan_fleet", "run_fleet"]

#: The kill schedule draws each victim's death point uniformly from this
#: fraction window of the campaign duration (board-local busy time, µs)
#: — mid-run by construction.
_KILL_WINDOW = (0.25, 0.60)
#: Salt for the kill-schedule RNG (distinct from workload/fault salts).
_KILL_SALT = 71


@dataclass(frozen=True)
class FleetSpec:
    """One fleet campaign, fully determined by its fields."""

    boards: int = 4
    seed: int = 1
    duration_ms: float = 20.0
    arrival: str = "poisson"
    #: Offered load: mean request arrivals per millisecond.
    rate_per_ms: float = 2.0
    #: Bounded per-board queue; arrivals beyond it are rejected.
    queue_depth: int = 6
    #: Same-bitstream coalescing + SG dispatch grouping.
    batching: bool = True
    #: Max jobs per scatter-gather dispatch group.
    batch_limit: int = 4
    #: PL clock for every load (the robust Table-I operating point).
    freq_mhz: float = 200.0
    #: Arm a per-board fault storm in round 0.
    chaos: bool = False
    #: Environmental faults per board in the storm round.
    chaos_intensity: int = 4
    #: Boards killed permanently mid-run (seed-deterministic schedule).
    kill_boards: int = 0
    #: Poisson SEU rate per board in the storm round (chaos only).
    seu_per_ms: float = 0.0
    #: Attach an InvariantMonitor to every board system.
    verify: bool = False

    def __post_init__(self) -> None:
        if self.boards < 1:
            raise ValueError("a fleet needs at least one board")
        if self.arrival not in ARRIVAL_MODES:
            raise ValueError(
                f"unknown arrival mode {self.arrival!r} "
                f"(expected one of {ARRIVAL_MODES})"
            )
        if self.chaos_intensity < 0:
            raise ValueError("chaos intensity cannot be negative")
        if not 0 <= self.kill_boards <= self.boards:
            raise ValueError("kill_boards must be within the fleet size")
        if self.kill_boards and not self.chaos:
            raise ValueError("kill_boards requires chaos mode")
        if self.seu_per_ms > 0 and not self.chaos:
            raise ValueError("seu_per_ms requires chaos mode")

    def to_mapping(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# Phase 2: one board's schedule (runs in SweepRunner workers)
# ---------------------------------------------------------------------------

def board_point(
    board: int,
    groups: Sequence,
    freq_mhz: float,
    fault_seed: Optional[int],
    intensity: int,
    seu_per_ms: float,
    kill_at_us: Optional[float],
    verify: bool,
    policy: Dict[str, Any],
) -> Dict[str, Any]:
    """Execute one board's dispatch schedule; returns measured timings.

    ``groups`` arrives in the runner's canonical form: a tuple of
    dispatch groups, each a tuple of ``(region, asp_kind, asp_param,
    pad_to)`` jobs (``pad_to == 0`` meaning content-sized).  The board is
    forked from the snapshot template — the fleet's cheap
    board-provisioning path — and runs its groups back-to-back through
    :class:`~repro.resilience.ResilientReconfigurator`.

    ``fault_seed`` arms this board's salted fault storm
    (``intensity`` environmental faults plus Poisson SEUs at
    ``seu_per_ms``, repaired by the scrubber between groups); ``None``
    runs the schedule with an empty fault plan, as does an idle board
    (no groups, so no horizon to storm over).

    ``kill_at_us`` is in *board-local busy time*: once the board's own
    simulation clock reaches it, the board goes dark before its next
    group — executed groups stop, the payload flags ``killed`` and the
    fleet loop fails the stranded members over.  The injector never
    sees the kill (it would refuse the unknown kind by design); the
    fleet layer owns that fault end to end.
    """
    system = fork_system()
    monitor = None
    if verify:
        monitor = InvariantMonitor(raise_on_violation=False).attach(system)
    recoverer = ResilientReconfigurator(
        system, policy=RecoveryPolicy.from_mapping(policy)
    )
    if monitor is not None:
        monitor.attach_governor(recoverer.governor)
    recoverer.attach_scrubber()
    injector = None
    scrubbing = False
    if fault_seed is not None and groups:
        horizon_us = sum(
            estimate_service_us(int(job[3]))
            for group in groups
            for job in group
        )
        injector = ChaosInjector(
            system,
            build_board_fault_plan(
                fault_seed, board, horizon_us, intensity, seu_per_ms
            ),
        )
        injector.arm()
        scrubbing = seu_per_ms > 0
        if scrubbing:
            system.scrubber.start()

    metrics = system.metrics
    m_groups_ok = metrics.counter("fleet.health.groups_ok")
    m_groups_bad = metrics.counter("fleet.health.groups_failed")
    m_kills = metrics.counter("fleet.health.board_kills")
    m_crashes = metrics.counter("fleet.health.board_crashes")

    executed: List[Dict[str, Any]] = []
    killed = False
    crash = None
    try:
        for group in groups:
            if kill_at_us is not None and system.sim.now / 1e3 >= kill_at_us:
                killed = True
                m_kills.inc()
                break
            start_ns = system.sim.now
            try:
                if len(group) == 1:
                    region, kind, param, pad = group[0]
                    outcome = recoverer.reconfigure(
                        region,
                        _make_asp(kind, int(param)),
                        freq_mhz,
                        pad_to=int(pad) or None,
                    )
                    job_ok = [bool(outcome.recovered)]
                else:
                    jobs = [
                        (region, _make_asp(kind, int(param)), int(pad) or None)
                        for region, kind, param, pad in group
                    ]
                    batch = recoverer.reconfigure_batch(jobs, freq_mhz)
                    job_ok = [bool(batch.region_ok[job[0]]) for job in jobs]
            except Exception as exc:
                # A fault that wedges or crashes the board simulation
                # (deadlocked transfer, unhandled bus error) is a *board
                # death*, not a campaign abort: record the group as
                # failed, stop this board, and let the fleet loop fail
                # its work over.  Deterministic for a given seed, so the
                # byte-identity contract is untouched.
                crash = f"{type(exc).__name__}: {exc}"
                m_crashes.inc()
                killed = True
                job_ok = [False] * len(group)
            ok = all(job_ok)
            if crash is None:
                (m_groups_ok if ok else m_groups_bad).inc()
            executed.append(
                {
                    # Measured wall (sim) time of the whole dispatch:
                    # clock lock, driver setup, transfer(s), retries,
                    # post-load scrub.
                    "service_us": round((system.sim.now - start_ns) / 1e3, 3),
                    "ok": ok,
                    "job_ok": job_ok,
                }
            )
            if crash is not None:
                break
            if scrubbing:
                recoverer.repair_pending()
    finally:
        if scrubbing:
            system.scrubber.stop()
        if injector is not None:
            injector.disarm()
        if monitor is not None:
            monitor.detach()

    note_events(system.sim.events_processed)
    return {
        "board": int(board),
        "groups": executed,
        "killed": killed,
        "crash": crash,
        "faults_planned": len(injector.plan.faults) if injector else 0,
        "faults_injected": injector.injected_count if injector else 0,
        # Dead simulation processes are findings, not noise: the fuzz
        # and chaos campaigns already fail on them, the fleet does too.
        "unhandled_failures": [
            process.name for process in system.sim.unhandled_failures
        ],
        "checks": monitor.checks if monitor else 0,
        "violations": list(monitor.violations) if monitor else [],
    }


# ---------------------------------------------------------------------------
# The driver: plan → round 0 → failover rounds → report
# ---------------------------------------------------------------------------

def _kill_schedule(
    seed: int, boards: int, kill_boards: int, duration_us: float
) -> Dict[int, float]:
    """Deterministic victim set + death points (board busy time, µs)."""
    if kill_boards <= 0:
        return {}
    rng = random.Random(int(seed) * 1_000_003 + _KILL_SALT)
    victims = sorted(rng.sample(range(boards), min(kill_boards, boards)))
    return {
        board: round(rng.uniform(*_KILL_WINDOW) * duration_us, 1)
        for board in victims
    }


def run_fleet(
    spec: FleetSpec,
    jobs: int = 1,
    runner: Optional[SweepRunner] = None,
) -> FleetReport:
    """Run one fleet campaign end to end; pure function of ``spec``.

    Every admitted request ends in exactly one terminal state; the
    function enforces that conservation law and raises if it ever breaks
    (losing a request silently is the one unforgivable bug in a failover
    path).
    """
    policy = RecoveryPolicy()
    requests = build_workload(
        spec.seed, spec.duration_ms, spec.arrival, spec.rate_per_ms
    )
    by_index = {request.index: request for request in requests}
    plan = plan_fleet(
        requests,
        boards=spec.boards,
        queue_depth=spec.queue_depth,
        batching=spec.batching,
        batch_limit=spec.batch_limit,
    )
    duration_us = float(spec.duration_ms) * 1e3
    kill_at = _kill_schedule(
        spec.seed, spec.boards, spec.kill_boards, duration_us
    )
    tracker = FleetHealthTracker(policy, spec.boards)
    runner = runner or SweepRunner(jobs=jobs)

    arrivals_us = {request.index: request.arrival_us for request in requests}
    #: request index -> service attempts consumed so far.
    attempts: Dict[int, int] = {}
    for board_plan in plan.boards:
        for group in board_plan.groups:
            for job in group:
                for member in job.members:
                    attempts[member] = 1
    outcomes: Dict[int, RequestOutcome] = {}
    boards_range = range(spec.boards)
    free_us = {board: 0.0 for board in boards_range}
    busy_us = {board: 0.0 for board in boards_range}
    span_us = {board: 0.0 for board in boards_range}
    loads = {board: 0 for board in boards_range}
    group_count = {board: 0 for board in boards_range}
    served_count = {board: 0 for board in boards_range}
    unhandled: List[Dict[str, Any]] = []
    checks = 0
    violations: List[str] = []
    failovers = 0
    faults_planned = 0
    faults_injected = 0

    def execute_round(round_index, board_groups, probes):
        """Fan one round's per-board schedules out, then replay them."""
        nonlocal checks, faults_planned, faults_injected
        storm = spec.chaos and round_index == 0
        order = sorted(board_groups)
        param_sets = []
        for board in order:
            kill = None
            if board in kill_at and tracker.boards[board].state != DEAD:
                # Carryover: the death point is cumulative busy time, so
                # a board that survived earlier rounds dies this far in.
                kill = max(0.0, kill_at[board] - busy_us[board])
            param_sets.append(
                {
                    "board": board,
                    "groups": [
                        [job.as_executable() for job in group]
                        for group in board_groups[board]
                    ],
                    "freq_mhz": spec.freq_mhz,
                    "fault_seed": spec.seed if storm else None,
                    "intensity": spec.chaos_intensity,
                    "seu_per_ms": spec.seu_per_ms,
                    "kill_at_us": kill,
                    "verify": spec.verify,
                    "policy": policy.to_mapping(),
                }
            )
        labels = [f"board{board}r{round_index}" for board in order]
        payloads = runner.map(
            f"fleet-{spec.arrival}-s{spec.seed}-r{round_index}",
            board_point,
            param_sets,
            labels,
        )
        pending: List[Tuple[int, float, int]] = []
        for board, payload in zip(order, payloads):
            groups = board_groups[board]
            executed = payload["groups"]
            checks += int(payload["checks"])
            violations.extend(
                f"board{board}: {violation}"
                for violation in payload["violations"]
            )
            if payload["unhandled_failures"]:
                unhandled.append(
                    {
                        "board": board,
                        "processes": list(payload["unhandled_failures"]),
                    }
                )
            faults_planned += int(payload["faults_planned"])
            faults_injected += int(payload["faults_injected"])
            for index, group in enumerate(groups):
                if index >= len(executed):
                    # Stranded by the kill: the members fail over from
                    # the moment the board went dark.
                    for job in group:
                        for member in job.members:
                            pending.append((member, free_us[board], board))
                    continue
                record = executed[index]
                ready_us = max(job.arrival_us for job in group)
                start_us = max(free_us[board], ready_us)
                service_us = float(record["service_us"])
                end_us = start_us + service_us
                estimate = sum(
                    estimate_service_us(job.key[3]) for job in group
                )
                breached = service_us > DEADLINE_FACTOR * estimate
                if board in probes:
                    tracker.probe_result(
                        board, end_us, bool(record["ok"]) and not breached
                    )
                else:
                    tracker.observe_group(
                        board, end_us, bool(record["ok"]), breached
                    )
                for job, job_ok in zip(group, record["job_ok"]):
                    loads[board] += 1
                    for member in job.members:
                        if job_ok:
                            outcomes[member] = RequestOutcome(
                                index=member,
                                board=board,
                                wait_us=round(
                                    start_us - arrivals_us[member], 3
                                ),
                                latency_us=round(
                                    end_us - arrivals_us[member], 3
                                ),
                                batched=len(group) > 1
                                or len(job.members) > 1,
                                ok=True,
                                attempts=attempts[member],
                                terminal=TERMINAL_SERVED,
                            )
                            served_count[board] += 1
                        else:
                            pending.append((member, end_us, board))
                free_us[board] = end_us
                busy_us[board] += service_us
                span_us[board] = end_us
                group_count[board] += 1
            if payload["killed"]:
                reason = BOARD_KILL_KIND
                if payload["crash"]:
                    reason = f"crash: {payload['crash']}"
                tracker.observe_kill(board, free_us[board], reason)
        return pending

    def exhaust(member: int, board: int) -> None:
        outcomes[member] = RequestOutcome(
            index=member,
            board=board,
            wait_us=None,
            latency_us=None,
            batched=False,
            ok=False,
            attempts=attempts[member],
            terminal=TERMINAL_EXHAUSTED,
        )

    # -- round 0: the planner's schedule, storm armed under chaos ------------
    # Every planned board runs, idle ones included: the fleet provisions
    # all of its boards whether or not traffic reaches them.
    round_groups = {
        board_plan.board: board_plan.groups for board_plan in plan.boards
    }
    pending = execute_round(0, round_groups, probes=set())
    rounds = 1

    # -- failover rounds (post-storm) -----------------------------------------
    # Each iteration consumes one attempt from every pending request
    # (executed or burned), so the loop terminates within the shared
    # max_attempts budget; the extra slack is a pure safety bound.
    while pending and rounds <= policy.max_attempts + 1:
        tracker.start_round()
        entries = sorted(
            (
                round(
                    fail_us + policy.failover_delay_us(attempts[member] - 1),
                    3,
                ),
                member,
                last_board,
            )
            for member, fail_us, last_board in pending
        )
        assignments: Dict[int, List[List[PlannedJob]]] = {
            board: [] for board in boards_range
        }
        probes: Set[int] = set()
        carried: List[Tuple[int, float, int]] = []
        plan_free = dict(free_us)
        for arrival_us, member, last_board in entries:
            if attempts[member] >= policy.max_attempts:
                exhaust(member, last_board)
                continue
            closed, half_open = tracker.candidates(arrival_us)
            choice = least_loaded_board(
                plan_free, arrival_us, closed + half_open
            )
            if choice is None:
                # Nowhere to go: the attempt burns against the budget —
                # unbounded re-queueing would just hide a dead fleet.
                attempts[member] += 1
                if attempts[member] >= policy.max_attempts:
                    exhaust(member, last_board)
                else:
                    carried.append((member, arrival_us, last_board))
                continue
            if choice in half_open:
                tracker.mark_probe(choice)
                probes.add(choice)
            attempts[member] += 1
            failovers += 1
            request = by_index[member]
            job = PlannedJob(
                key=request.bitstream_key,
                members=[member],
                arrival_us=arrival_us,
            )
            assignments[choice].append([job])
            plan_free[choice] = max(
                plan_free[choice], arrival_us
            ) + estimate_service_us(request.pad_to)
        assignments = {
            board: groups for board, groups in assignments.items() if groups
        }
        if not assignments:
            pending = carried
            continue
        pending = execute_round(rounds, assignments, probes=probes)
        pending.extend(carried)
        rounds += 1

    for member, _fail_us, last_board in pending:
        exhaust(member, last_board)

    # -- conservation: every admitted request has exactly one terminal fate --
    if sorted(outcomes) != sorted(attempts):
        missing = sorted(set(attempts) - set(outcomes))
        raise RuntimeError(
            f"failover lost requests {missing[:10]} "
            f"({len(outcomes)} outcomes for {len(attempts)} admitted)"
        )

    usages = [
        BoardUsage(
            board=board,
            loads=loads[board],
            groups=group_count[board],
            requests=served_count[board],
            busy_us=round(busy_us[board], 3),
            span_us=round(span_us[board], 3),
        )
        for board in boards_range
    ]
    spec_mapping = spec.to_mapping()
    if spec.chaos:
        spec_mapping["faults_planned"] = faults_planned
        spec_mapping["faults_injected"] = faults_injected
        spec_mapping["kill_at_us"] = {
            str(board): kill_at[board] for board in sorted(kill_at)
        }
    return FleetReport.build(
        spec=spec_mapping,
        offered=len(requests),
        plan=plan,
        outcomes=[outcomes[index] for index in sorted(outcomes)],
        boards=usages,
        rounds=rounds,
        failovers=failovers,
        health=tracker.timelines() if spec.chaos else [],
        unhandled=unhandled,
        verify=(
            {"checks": checks, "violations": violations}
            if spec.verify
            else None
        ),
    )
