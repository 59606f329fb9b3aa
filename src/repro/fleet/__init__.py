"""Fleet-scale PDR service: many boards under live request traffic.

The rest of the repo measures one reconfiguration at a time; this
package is the ROADMAP's "millions of users" story.  A
:class:`FleetSpec` describes a fleet of simulated boards (forked cheaply
from :mod:`repro.snapshot` templates) and an open-loop request workload
(Poisson or bursty arrivals of reconfiguration requests over mixed ASP
kinds, sizes and regions).  :func:`run_fleet` drives the requests
through admission control, bounded per-board queues and same-bitstream
batching, executes every board's schedule on a real
:class:`~repro.core.PdrSystem` through :class:`~repro.exec.SweepRunner`
(serial ≡ ``--jobs N`` byte-identical), and grades the resulting
request-level SLOs — p50/p99 latency, rejected-request rate, per-board
utilisation — with the same nearest-rank/rollup machinery as every
other campaign in the repo.

Every campaign runs through one plan → execute → replay driver: each
board executes its schedule through the resilience layer, and requests
whose load failed or whose board died fail over in later rounds.  A
``chaos`` spec arms a per-board fault storm in round 0; without it the
fault plan is empty.  :mod:`repro.fleet.health` holds the fault-
tolerance control plane the replay feeds: a deterministic board health
state machine (healthy → degraded → quarantined → dead) with a circuit
breaker — the degraded-mode SLOs (availability under board loss,
failover latency penalty, goodput) surface through the same
:class:`FleetReport`.
"""

from .health import DEADLINE_FACTOR, FleetHealthTracker, PROBE_COOLDOWN_US
from .report import FleetReport, FleetSlos, format_report, render_json
from .scheduler import FleetPlan, plan_fleet
from .service import FleetSpec, board_point, run_fleet
from .workload import FleetRequest, build_workload

__all__ = [
    "DEADLINE_FACTOR",
    "FleetHealthTracker",
    "FleetPlan",
    "FleetReport",
    "FleetRequest",
    "FleetSlos",
    "FleetSpec",
    "PROBE_COOLDOWN_US",
    "board_point",
    "build_workload",
    "format_report",
    "plan_fleet",
    "render_json",
    "run_fleet",
]
