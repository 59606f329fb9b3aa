"""Host-time benchmark of the PDR simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times the ops untraced and prints the end-to-end metrics.
``--trace 1`` runs every op twice, untraced and under the external
tracer (alternating which goes first), and prints the per-layer metrics
plus the tracing overhead; the traced outputs must equal the untraced
ones and the pinned values exactly.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Run details (host fingerprint, per-layer self-time table, spans) go to
``.perfbench_out/`` in the repository root.

Ops run in whole blocks (:func:`timed_blocks`), whole fleet campaigns and
soak episodes in forked children (:func:`run_op`), and host times are
reported in reference-host seconds (:mod:`hostclock`); ``README.md``
explains why.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from hostclock import ReferenceClock, SpeedSampler
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

#: Cold set-ups measured per run (this process plus fresh subprocesses).
SETUP_SAMPLES = 3
SETUP_PROBE_TIMEOUT_S = 60

#: Counts pinned per op and checked exactly in traced runs.
PINNED_COUNTS = (
    "sim.events",
    "sim.resumes",
    "sim.processes",
    "dma.bursts",
    "axi.transactions",
    "dram.requests",
    "dram.row_hits",
    "dram.row_misses",
    "dram.row_conflicts",
    "fabric.frames_written",
    "crccheck.words_read",
    "bitstream.builds",
    "snapshot.forks",
    "chaos.faults_injected",
    "verify.checks",
    "resilience.attempts",
)

#: Layers whose self time is reported as ``<layer>.self_ms``.
def metric_units(kind: str) -> dict:
    """Metric name -> unit, in ``BENCHMARK.json`` order (``end_to_end`` or
    ``per_layer``): the benchmark prints exactly the metrics listed there."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _prepare_imports() -> None:
    """Put the program's sources on the path; pin its behaviour switches."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nearest_rank(samples, percent: float) -> float:
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def load_golden(workload: str) -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def normalise(outputs: dict) -> dict:
    """The outputs as they read back from JSON (exact float round trip)."""
    return json.loads(json.dumps(outputs))


# ---------------------------------------------------------------------------
# Per-op layer figures from the tracer
# ---------------------------------------------------------------------------


def _metric_value(system, name: str) -> float:
    metric = system.metrics.get(name)
    return getattr(metric, "value", 0) or 0


def op_layer_figures(figures: dict, result) -> dict:
    """Counts and host times of one traced op, keyed by metric name."""
    calls = figures["calls"]
    self_ns = figures["self_ns"]
    total_ns = figures["total_ns"]
    systems = figures["systems"]

    counts = {
        "sim.events": sum(system.sim.events_processed for system in systems),
        "sim.resumes": sum(n for name, n in calls.items() if name.endswith(".resume")),
        # Template systems built inside an op never run; only systems that
        # processed events count, so the figure does not depend on which
        # templates earlier ops already built.
        "sim.processes": sum(
            system.sim.processes_spawned for system in systems
            if system.sim.events_processed
        ),
        "dma.bursts": sum(_metric_value(system, "dma.bursts_issued") for system in systems),
        "dma.resumes": calls.get("dma.resume", 0),
        "icap.resumes": calls.get("icap.resume", 0),
        "axi.resumes": calls.get("axi.resume", 0),
        "axi.transactions": sum(system.interconnect.transactions for system in systems),
        "dram.requests": sum(system.dram_controller.requests_served for system in systems),
        "dram.row_hits": sum(system.dram.row_hits for system in systems),
        "dram.row_misses": sum(system.dram.row_misses for system in systems),
        "dram.row_conflicts": sum(system.dram.row_conflicts for system in systems),
        "fabric.frames_written": calls.get("fabric.write_frame", 0),
        "crccheck.words_read": sum(
            _metric_value(system, "crc_scrub.words_read") for system in systems
        ),
        "bitstream.builds": calls.get("bitstream.build", 0),
        "snapshot.forks": calls.get("snapshot.fork", 0),
    }
    for name in ("chaos.faults_injected", "verify.checks", "resilience.attempts"):
        counts[name] = 0
    counts.update(result.layer_counts)
    layer_self_ns: dict = {}
    for name, value in self_ns.items():
        layer = name.split(".")[0]
        layer_self_ns[layer] = layer_self_ns.get(layer, 0) + value
    values = {
        "axi.wait_us": sum(
            sum(system.interconnect.per_master_wait_ns.values()) for system in systems
        ) / 1e3,
        "dram.queue_wait_us": sum(
            system.dram_controller.queue_wait_ns for system in systems
        ) / 1e3,
        "dram.refresh_stall_us": sum(
            getattr(system.dram_controller, "refresh_stall_ns", 0.0) for system in systems
        ) / 1e3,
        "bitstream.build_ms": total_ns.get("bitstream.build", 0) / 1e6,
        "bitstream.crc_ms": total_ns.get("bitstream.crc", 0) / 1e6,
        "snapshot.fork_ms": total_ns.get("snapshot.fork", 0) / 1e6,
        "fleet.plan_ms": total_ns.get("fleet.plan", 0) / 1e6,
        "fleet.replay_ms": self_ns.get("fleet.run", 0) / 1e6,
    }
    return {"counts": counts, "values": values, "layer_self_ns": layer_self_ns}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_op(workload, key):
    """Run one op; returns ``(result or None, seconds, error text, speed samples)``."""
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        try:
            result, error = workload.run(key), ""
        except Exception as exc:  # a raising op is a failed op, not an abort
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started - sampler.spent_s
    return result, seconds, error, sampler.samples


@dataclass
class OpRun:
    """One execution of an op, as the benchmark loop sees it."""

    result: Any
    seconds: float
    error: str
    #: Host-speed samples taken while the op ran (:class:`SpeedSampler`).
    speed_samples: list
    #: Traced runs: :func:`op_layer_figures` of the op.
    layer: Optional[dict] = None
    #: Traced runs in a child process: the spans it recorded.
    spans: Optional[dict] = None


def _execute(workload, key, tracer=None) -> OpRun:
    if tracer is None:
        return OpRun(*timed_op(workload, key))
    tracer.install()
    try:
        result, seconds, error, samples = timed_op(workload, key)
    finally:
        tracer.uninstall()
    figures = tracer.take_op()
    layer = op_layer_figures(figures, result) if result is not None else None
    return OpRun(result, seconds, error, samples, layer)


def _in_child(function):
    """Run ``function`` in a forked child; returns its (pickled) result.

    The child starts from this process's state and exits when done, so
    whatever it caches dies with it.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(function())
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or not payload:
        raise RuntimeError(f"op child process failed (wait status {status})")
    return pickle.loads(payload)


def run_op(workload, key, tracer=None) -> OpRun:
    """One op, traced when ``tracer`` is given.

    Ops of an ``isolated`` workload (a whole fleet campaign, a whole soak
    episode) run in a forked child that starts from the set-up state:
    their host cost then does not depend on what earlier ops left in the
    program's process-wide caches, as for a fresh ``repro-pdr`` process.
    """
    if not workload.isolated:
        return _execute(workload, key, tracer)
    first_span = tracer.span_count if tracer is not None else 0

    def child():
        run = _execute(workload, key, tracer)
        if tracer is not None:
            run.spans = tracer.export(first_span)
        return run

    try:
        run = _in_child(child)
    except RuntimeError as exc:  # the child died: a failed op
        return OpRun(None, 0.0, str(exc), [])
    if run.spans is not None:
        tracer.absorb(run.spans)
        run.spans = None
    return run


def timed_blocks(sequence, size: int, seconds: float):
    """Yield the cyclic ``sequence`` in blocks of ``size`` keys.

    Stops before a block that would, at the mean block time so far, end
    past ``seconds``; at least one block runs.  Whole blocks keep the op
    mix of every run the same (see the workloads' ``sequence``).
    """
    started = time.perf_counter()
    done = 0
    while True:
        yield [sequence[(done * size + offset) % len(sequence)] for offset in range(size)]
        done += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / done > seconds:
            return


def cold_setup(workload_name: str, tracer=None):
    """Imports, template builds and planning, cold.

    Returns ``(workload, golden, clock, set-up seconds)``; the seconds are
    reference-host seconds (see :class:`ReferenceClock`).  With a
    ``tracer`` the set-up runs traced, so the template builds it does are
    attributed to the snapshot layer.
    """
    clock = ReferenceClock()
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        _prepare_imports()
        from workloads import WORKLOADS

        if workload_name not in WORKLOADS:
            raise SystemExit(
                f"perfbench: unknown workload {workload_name!r} (one of {sorted(WORKLOADS)})"
            )
        workload = WORKLOADS[workload_name]()
        if tracer is not None:
            tracer.install()
        try:
            workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        golden = load_golden(workload_name)
        workload.sequence(0, golden)
        seconds = time.perf_counter() - started - sampler.spent_s
    return workload, golden, clock, clock.scale(seconds, sampler.samples)


def subprocess_setups(workload_name: str, samples: int) -> list:
    times = []
    for _ in range(samples):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return times


def untraced_run(workload, golden: dict, clock, seed: int, seconds: float, first_setup_s: float):
    setups = [first_setup_s] + subprocess_setups(workload.name, SETUP_SAMPLES - 1)
    attempted = failed = ops_run = 0
    samples_ms = []
    sim_us = host_s = reference_s = 0.0
    errors = []
    for block in timed_blocks(workload.sequence(seed, golden), workload.block, seconds):
        for key in block:
            run = run_op(workload, key)
            ops_run += 1
            host_s += run.seconds
            scaled = clock.scale(run.seconds, run.speed_samples)
            reference_s += scaled
            units = golden[key]["units"]
            attempted += units
            if run.error or normalise(run.result.outputs) != golden[key]["outputs"]:
                failed += units
                errors.append(run.error or f"{key}: outputs differ from the pinned values")
                continue
            samples_ms.extend([scaled * 1e3 / units] * units)
            sim_us += run.result.sim_us
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (attempted - failed) / reference_s,
        "op_ms_p50": nearest_rank(samples_ms, 50) if samples_ms else 0.0,
        "op_ms_p90": nearest_rank(samples_ms, 90) if samples_ms else 0.0,
        "sim_us_per_host_s": sim_us / reference_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    details = {
        "ops_run": ops_run,
        "op_samples": len(samples_ms),
        "samples_beyond_p90": sum(1 for s in samples_ms if s > metrics["op_ms_p90"]),
        "setup_samples_s": setups,
        "host_s": host_s,
        "reference_s": reference_s,
        "raw_ops_per_s": (attempted - failed) / host_s,
        "errors": errors[:20],
    }
    return attempted, failed, metrics, details


def pair_problems(key, pinned, plain: OpRun, traced: OpRun):
    """Mismatches of an untraced/traced run pair of one op."""
    problems = [run.error for run in (plain, traced) if run.error]
    if problems:
        return problems
    if normalise(plain.result.outputs) != pinned["outputs"]:
        problems.append(f"{key}: untraced outputs differ from the pinned values")
    if normalise(traced.result.outputs) != pinned["outputs"]:
        problems.append(f"{key}: traced outputs differ from the pinned values")
    for name in PINNED_COUNTS:
        if traced.layer["counts"][name] != pinned["counts"][name]:
            problems.append(
                f"{key}: {name} = {traced.layer['counts'][name]}, "
                f"pinned {pinned['counts'][name]}"
            )
    return problems


def traced_run(workload, tracer, golden: dict, clock, seed: int, seconds: float):
    from workloads import WORKLOADS

    tracer.take_op()
    # The telemetry-off twin for obs.overhead_ratio, where the workload has one.
    twin = None
    if workload.name in ("paper_sweep", "dram_contention"):
        twin = WORKLOADS[workload.name](telemetry=False)
        twin.setup()

    attempted = failed = traced_units = ops_run = 0
    errors = []
    untraced_s = traced_s = twin_s = twin_base_s = 0.0
    untraced_reference_s = exec_overhead_s = 0.0
    totals: dict = {}
    layer_self_ns: dict = {}
    for block in timed_blocks(workload.sequence(seed, golden), workload.block, seconds):
        for key in block:
            pinned = golden[key]
            runs = {}
            # Alternate which run goes first, so neither always meets
            # caches the other one warmed.
            for traced in ((False, True) if ops_run % 2 == 0 else (True, False)):
                runs[traced] = run_op(workload, key, tracer if traced else None)
            plain, traced = runs[False], runs[True]
            ops_run += 1
            attempted += pinned["units"]
            problems = pair_problems(key, pinned, plain, traced)
            if twin is not None and not problems:
                twin_run = run_op(twin, key)
                if twin_run.error or normalise(twin_run.result.outputs) != pinned["outputs"]:
                    problems.append(f"{key}: telemetry-off outputs differ {twin_run.error}")
                twin_s += twin_run.seconds
                twin_base_s += plain.seconds
            # Host times below are in reference-host units; the two overhead
            # ratios pair raw times of the same op instead.
            factor = clock.scale(1.0, plain.speed_samples + traced.speed_samples)
            if problems:
                failed += pinned["units"]
                errors.extend(problems)
                continue
            traced_units += pinned["units"]
            untraced_s += plain.seconds
            traced_s += traced.seconds
            untraced_reference_s += plain.seconds * factor
            exec_overhead_s += plain.result.exec_overhead_s * factor
            layer = traced.layer
            for name, value in layer["counts"].items():
                totals[name] = totals.get(name, 0) + value
            for name, value in layer["values"].items():
                totals[name] = totals.get(name, 0) + value * (factor if name.endswith("_ms") else 1)
            for name, value in layer["layer_self_ns"].items():
                layer_self_ns[name] = layer_self_ns.get(name, 0) + value * factor

    # Counts and times are per op; a fleet op is one request.
    per_op = max(traced_units, 1)
    metrics = {name: value / per_op for name, value in totals.items()}
    for layer, value in layer_self_ns.items():
        metrics[f"{layer}.self_ms"] = value / 1e6 / per_op

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    hits = totals.get("dram.row_hits", 0)
    metrics.update({
        "dram.row_hit_ratio": ratio(hits, hits + totals.get("dram.row_misses", 0)
                                    + totals.get("dram.row_conflicts", 0)),
        "sim.host_ns_per_event": ratio(untraced_reference_s * 1e9, totals.get("sim.events", 0)),
        "exec.overhead_ms": exec_overhead_s * 1e3 / per_op,
        "snapshot.template_builds": tracer.template_builds,
        "snapshot.template_build_ms": tracer.template_build_ns / 1e6,
        "fleet.coalesce_ratio": ratio(totals.get("fleet.coalesced", 0),
                                      totals.get("fleet.admitted", 0)),
        "resilience.recovery_ratio": ratio(totals.get("resilience.recovered", 0),
                                           totals.get("resilience.attempts", 0)),
        "obs.overhead_ratio": ratio(twin_base_s, twin_s) - 1.0 if twin_s else 0.0,
        "trace.overhead_ratio": ratio(traced_s, untraced_s) - 1.0 if untraced_s else 0.0,
    })

    spans_path = OUT_DIR / f"{workload.name}-seed{seed}.spans.json.gz"
    tracer.write(spans_path)
    details = {
        "ops_run": ops_run,
        "traced_units": traced_units,
        "spans": tracer.span_count,
        "spans_file": spans_path.name,
        "untraced_entry_points": sorted(tracer.missing),
        "self_ms_per_op": {
            layer: round(value / 1e6 / per_op, 4)
            for layer, value in sorted(layer_self_ns.items(), key=lambda kv: -kv[1])
        },
        "errors": errors[:20],
    }
    # Layers a workload does not load report 0.
    metrics = {name: metrics.get(name, 0.0) for name in metric_units("per_layer")}
    return attempted, failed, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(cold_setup(args.workload)[3])
        return 0

    tracer = Tracer() if args.trace else None
    workload, golden, clock, first_setup_s = cold_setup(args.workload, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        attempted, failed, metrics, details = traced_run(
            workload, tracer, golden, clock, args.seed, args.seconds
        )
    else:
        attempted, failed, metrics, details = untraced_run(
            workload, golden, clock, args.seed, args.seconds, first_setup_s
        )
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: metrics[name] for name in units}
    host = clock.fingerprint()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "details": details,
        "metrics": metrics,
    }
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print("host " + json.dumps(host, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
