"""The four benchmark workloads over the PDR simulator.

Each workload is a pool of ops (one op is one timed unit of work) plus
the set-up the ops rely on.  Every op goes through the serial
:class:`repro.exec.SweepRunner` and calls only public entry points; its
deterministic outputs are compared with the pinned values in
``golden.json``.

* ``paper_sweep`` — one ``reconfigure_point`` over the Table I
  frequencies x the Section IV-A temperatures (RP1, the Table I ASP),
  forked warm from the point template.
* ``dram_contention`` — one reconfiguration at 200 MHz under a light
  ``cpu`` master plus a 1000 MB/s ``tenant`` master issuing half reads,
  half writes, with the open and the closed page policy and the refresh
  engine on.
* ``fleet_poisson`` — one plain 4-board Poisson campaign
  (``FleetSpec(seed=...)``); its requests are the ops.
* ``chaos_soak`` — one ``run_soak(seed=..., cases=1)`` episode: monitored
  kernel, chaos injection, resilience retries and scrubber repair.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Any, Dict, List, Tuple

from repro.axi import AxiTrafficGenerator
from repro.chaos.soak import run_soak
from repro.exec import SweepRunner, note_events
from repro.experiments.calibration import PAPER_STRESS_TEMPS_C, PAPER_TABLE1
from repro.experiments.points import asp_descriptor, make_point_system, reconfigure_point
from repro.experiments.table1 import WORKLOAD_ASP
from repro.fabric import instantiate_asp
from repro.fleet import FleetSpec, render_json, run_fleet
from repro.snapshot import fork_point_system, fork_system

__all__ = ["WORKLOADS", "OpResult", "contention_op", "digest"]

REGION = "RP1"
TABLE1_WORKLOAD = asp_descriptor(WORKLOAD_ASP)
PAPER_FREQS_MHZ: Tuple[float, ...] = tuple(sorted(PAPER_TABLE1))
PAPER_TEMPS_C: Tuple[float, ...] = tuple(PAPER_STRESS_TEMPS_C)

CONTENTION_FREQ_MHZ = 200.0
CONTENTION_TEMP_C = 40.0
CONTENTION_POLICIES = ("open", "closed")
#: Seeds of the tenant's read/write choice (``write_fraction`` = 0.5).
CONTENTION_TENANT_SEEDS = tuple(range(1, 9))
CONTENTION_TENANT_MB_S = 1000.0
CONTENTION_CPU_MB_S = 50.0

#: Pinned workload seeds; ``--seed`` picks the order they run in.  Each
#: pool is a whole number of blocks of cost strata (:func:`stratified`).
FLEET_SEEDS = tuple(range(1, 13))
SOAK_SEEDS = tuple(range(1, 25))


@dataclasses.dataclass
class OpResult:
    """What one op returns to the benchmark loop."""

    #: Deterministic outputs, compared exactly with the pinned values.
    outputs: Dict[str, Any]
    #: Ops this unit counts for (a fleet campaign counts its requests).
    units: int
    #: Simulated microseconds the op advanced.
    sim_us: float
    #: Host seconds the sweep runner spent outside the point functions.
    exec_overhead_s: float
    #: Layer counters only the op's own report carries (chaos, fleet...).
    layer_counts: Dict[str, float] = dataclasses.field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _runner_overhead_s(runner: SweepRunner) -> float:
    return sum(
        result.wall_s - sum(stat.wall_s for stat in result.stats)
        for result in runner.history
    )


def _runner_events(runner: SweepRunner) -> int:
    return sum(
        stat.events or 0 for result in runner.history for stat in result.stats
    )


def _shuffled(keys, seed: int) -> List:
    keys = list(keys)
    random.Random(seed).shuffle(keys)
    return keys


def stratified(golden: Dict[str, dict], seed: int, strata: int) -> List[str]:
    """A seeded order of the pool in which every block of ``strata``
    consecutive ops holds one op from each cost stratum (cost: pinned
    kernel events per unit).

    Pool entries differ in cost by up to 2x, and a run covers only part of
    the pool; stratifying keeps a partial pass representative, so the
    run-to-run spread reflects the program rather than the sample.
    """
    rng = random.Random(seed)
    ranked = sorted(
        golden, key=lambda key: (golden[key]["counts"]["sim.events"] / golden[key]["units"], key)
    )
    size = len(ranked) // strata
    groups = [ranked[index * size:(index + 1) * size] for index in range(strata)]
    for group in groups:
        rng.shuffle(group)
    order = []
    for position in range(size):
        rng.shuffle(groups)
        order.extend(group[position] for group in groups)
    return order


# ---------------------------------------------------------------------------
# paper_sweep
# ---------------------------------------------------------------------------


def telemetry_off_point(region, freq_mhz, temp_c, workload):
    """``reconfigure_point`` with the telemetry probes compiled out.

    The config mapping is built here, inside the point: a mapping passed
    as a sweep parameter arrives canonicalised to a tuple of pairs, which
    ``reconfigure_point`` rejects (``unsupported config type: tuple``).
    """
    return reconfigure_point(region, freq_mhz, temp_c, workload, {"telemetry": False})


class PaperSweep:
    name = "paper_sweep"
    #: Ops per block (runs execute whole blocks) and whether each op runs
    #: from the set-up state in a child process.
    block = len(PAPER_FREQS_MHZ) * len(PAPER_TEMPS_C)
    isolated = False

    def __init__(self, telemetry: bool = True):
        self.config = None if telemetry else {"telemetry": False}

    def setup(self) -> None:
        fork_point_system(REGION, TABLE1_WORKLOAD, self.config)

    def keys(self) -> List[str]:
        return [f"{freq:g}MHz/{temp:g}C" for freq in PAPER_FREQS_MHZ for temp in PAPER_TEMPS_C]

    def sequence(self, seed: int, golden: Dict[str, dict]) -> List[str]:
        # Temperature blocks in a seeded order, every frequency once per
        # block (also seeded): any nine consecutive ops hold the full
        # Table I frequency mix, so a partial pass stays representative.
        rng = random.Random(seed)
        temps = list(PAPER_TEMPS_C)
        rng.shuffle(temps)
        order = []
        for temp in temps:
            freqs = list(PAPER_FREQS_MHZ)
            rng.shuffle(freqs)
            order.extend(f"{freq:g}MHz/{temp:g}C" for freq in freqs)
        return order

    def run(self, key: str) -> OpResult:
        freq_text, temp_text = key.split("/")
        runner = SweepRunner()
        params = dict(
            region=REGION,
            freq_mhz=float(freq_text[:-3]),
            temp_c=float(temp_text[:-1]),
            workload=TABLE1_WORKLOAD,
        )
        point = reconfigure_point if self.config is None else telemetry_off_point
        result = runner.map(self.name, point, [params], [key])[0]
        events = _runner_events(runner)
        return OpResult(
            outputs={
                "latency_us": result.latency_us,
                "crc_valid": result.crc_valid,
                "critical_path": result.critical_path,
                "sim.events": events,
            },
            units=1,
            sim_us=sum(result.phase_us.values()),
            exec_overhead_s=_runner_overhead_s(runner),
        )


# ---------------------------------------------------------------------------
# dram_contention
# ---------------------------------------------------------------------------


def contention_config(policy: str, telemetry: bool = True) -> Dict[str, Any]:
    config = {
        "dram_page_policy": policy,
        "dram_refresh_mode": "engine",
        "dram_trp_ns": 50.0,
    }
    if not telemetry:
        config["telemetry"] = False
    return config


def contention_op(page_policy: str, tenant_seed: int, telemetry: bool = True) -> Dict[str, Any]:
    """One reconfiguration under ``cpu`` + a half-write ``tenant`` master."""
    system = make_point_system(
        REGION, TABLE1_WORKLOAD, contention_config(page_policy, telemetry)
    )
    system.set_die_temperature(CONTENTION_TEMP_C)
    generators = [
        AxiTrafficGenerator(
            system.sim,
            system.interconnect,
            master="cpu",
            rate_mb_s=CONTENTION_CPU_MB_S,
            pattern="sequential",
            base_addr=0x1C00_0000,
            span_bytes=8 * 1024 * 1024,
            seed=11,
        ),
        AxiTrafficGenerator(
            system.sim,
            system.interconnect,
            master="tenant",
            rate_mb_s=CONTENTION_TENANT_MB_S,
            pattern="reverse",
            base_addr=0x1800_0000,
            span_bytes=64 * 1024 * 1024,
            write_fraction=0.5,
            seed=tenant_seed,
        ),
    ]
    for generator in generators:
        generator.start()
    asp = instantiate_asp(TABLE1_WORKLOAD[0], list(TABLE1_WORKLOAD[1]))
    result = system.reconfigure(REGION, asp, CONTENTION_FREQ_MHZ)
    for generator in generators:
        generator.stop()
    note_events(system.sim.events_processed)
    device = system.dram
    return {
        "latency_us": result.latency_us,
        "crc_valid": result.crc_valid,
        "critical_path": result.critical_path,
        "sim_us": system.sim.now / 1e3,
        "row_hits": device.row_hits,
        "row_misses": device.row_misses,
        "row_conflicts": device.row_conflicts,
        "tenant_bursts": generators[1].bursts_issued,
    }


class DramContention:
    name = "dram_contention"
    block = len(CONTENTION_POLICIES) * len(CONTENTION_TENANT_SEEDS)
    isolated = False

    def __init__(self, telemetry: bool = True):
        self.telemetry = telemetry

    def setup(self) -> None:
        for policy in CONTENTION_POLICIES:
            fork_point_system(
                REGION, TABLE1_WORKLOAD, contention_config(policy, self.telemetry)
            )

    def keys(self) -> List[str]:
        return [
            f"{policy}/tenant{seed}"
            for policy in CONTENTION_POLICIES
            for seed in CONTENTION_TENANT_SEEDS
        ]

    def sequence(self, seed: int, golden: Dict[str, dict]) -> List[str]:
        # Policies alternate so any two consecutive ops hold both.
        tenants = _shuffled(CONTENTION_TENANT_SEEDS, seed)
        first, second = _shuffled(CONTENTION_POLICIES, seed + 1)
        order = []
        for tenant in tenants:
            order += [f"{first}/tenant{tenant}", f"{second}/tenant{tenant}"]
        return order

    def run(self, key: str) -> OpResult:
        policy, tenant = key.split("/")
        runner = SweepRunner()
        record = runner.map(
            self.name,
            contention_op,
            [dict(
                page_policy=policy,
                tenant_seed=int(tenant[len("tenant"):]),
                telemetry=self.telemetry,
            )],
            [key],
        )[0]
        outputs = {
            name: record[name]
            for name in ("latency_us", "crc_valid", "critical_path", "row_hits",
                         "row_misses", "row_conflicts", "tenant_bursts")
        }
        outputs["sim.events"] = _runner_events(runner)
        return OpResult(
            outputs=outputs,
            units=1,
            sim_us=record["sim_us"],
            exec_overhead_s=_runner_overhead_s(runner),
        )


# ---------------------------------------------------------------------------
# fleet_poisson
# ---------------------------------------------------------------------------


class FleetPoisson:
    name = "fleet_poisson"
    block = 2
    isolated = True

    def setup(self) -> None:
        fork_system()

    def keys(self) -> List[str]:
        return [f"seed{seed}" for seed in FLEET_SEEDS]

    def sequence(self, seed: int, golden: Dict[str, dict]) -> List[str]:
        return stratified(golden, seed, self.block)

    def run(self, key: str) -> OpResult:
        runner = SweepRunner()
        report = run_fleet(FleetSpec(seed=int(key[len("seed"):])), runner=runner)
        slos = report.slos
        outputs = {
            "report_digest": digest(render_json(report)),
            "offered": report.offered,
            "p50_latency_us": slos.p50_latency_us,
            "p99_latency_us": slos.p99_latency_us,
            "goodput_per_ms": slos.goodput_per_ms,
            "sim.events": _runner_events(runner),
        }
        return OpResult(
            outputs=outputs,
            units=report.offered,
            sim_us=sum(board.busy_us for board in report.boards),
            exec_overhead_s=_runner_overhead_s(runner),
            layer_counts={
                "fleet.loads": report.loads,
                "fleet.coalesced": report.coalesced,
                "fleet.admitted": report.admitted,
            },
        )


# ---------------------------------------------------------------------------
# chaos_soak
# ---------------------------------------------------------------------------


def soak_digest(report) -> str:
    fields = {
        field.name: getattr(report, field.name)
        for field in dataclasses.fields(report)
        if field.name != "campaign"
    }
    fields["slos"] = dataclasses.asdict(report.slos)
    fields["campaign"] = report.campaign.to_dict() if report.campaign else None
    return digest(json.dumps(fields, sort_keys=True, default=repr))


class ChaosSoak:
    name = "chaos_soak"
    block = 4
    isolated = True

    def setup(self) -> None:
        """Nothing to build: every episode's config carries its own die
        temperature, so each one builds its template inside the op, as
        ``run_soak`` does in a fresh process."""

    def keys(self) -> List[str]:
        return [f"seed{seed}" for seed in SOAK_SEEDS]

    def sequence(self, seed: int, golden: Dict[str, dict]) -> List[str]:
        return stratified(golden, seed, self.block)

    def run(self, key: str) -> OpResult:
        runner = SweepRunner()
        report = run_soak(seed=int(key[len("seed"):]), cases=1, runner=runner)
        record = runner.history[-1].values[0]
        ops = record["ops"]
        horizon_ns = record["case"]["horizon_us"] * 1e3
        attempts = sum(op["attempts"] for op in ops)
        outputs = {
            "report_digest": soak_digest(report),
            "availability_mean": report.availability_mean,
            "mttr_p99_us": report.mttr_p99_us,
            "faults_injected": report.faults_injected,
            "checks": report.checks,
            "findings": len(report.findings),
            "sim.events": report.events_processed,
        }
        return OpResult(
            outputs=outputs,
            units=1,
            sim_us=max([horizon_ns] + [op["end_ns"] for op in ops]) / 1e3,
            exec_overhead_s=_runner_overhead_s(runner),
            layer_counts={
                "chaos.faults_injected": report.faults_injected,
                "verify.checks": report.checks,
                "resilience.attempts": attempts,
                "resilience.recovered": sum(1 for op in ops if op["recovered"]),
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweep, DramContention, FleetPoisson, ChaosSoak)
}
