"""Regenerate ``golden.json``: the pinned outputs and counts of every op.

Usage (from the repository root)::

    python3 perfbench/pin.py                 # every workload
    python3 perfbench/pin.py paper_sweep     # one workload, others kept

Each op runs once untraced and once under the tracer; the two must give
identical outputs, and the traced run supplies the per-op layer counts
the benchmark later checks exactly.  Re-pin only when a change to the
program is meant to move these values, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run


def pin_workload(name: str) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    workload, _, _, _ = run.cold_setup(name)
    pinned = {}
    for key in workload.keys():
        plain = run.run_op(workload, key)
        traced = run.run_op(workload, key, tracer)
        for label, op in (("untraced", plain), ("traced", traced)):
            if op.error:
                raise SystemExit(f"{name} {key} ({label}): {op.error}")
        outputs = run.normalise(plain.result.outputs)
        if run.normalise(traced.result.outputs) != outputs:
            raise SystemExit(f"{name} {key}: traced outputs differ from untraced")
        counts = traced.layer["counts"]
        if counts["sim.events"] != outputs["sim.events"]:
            raise SystemExit(f"{name} {key}: traced event count differs from untraced")
        pinned[key] = {
            "units": plain.result.units,
            "outputs": outputs,
            "counts": {count: counts[count] for count in run.PINNED_COUNTS},
        }
        print(f"pinned {name} {key}", file=sys.stderr)
    return pinned


def table1_notes(paper_sweep: dict) -> dict:
    from repro.experiments.calibration import PAPER_TABLE1

    errors = {}
    for freq, (paper_us, _mb_s, paper_crc) in sorted(PAPER_TABLE1.items()):
        outputs = paper_sweep[f"{freq:g}MHz/40C"]["outputs"]
        simulated = outputs["latency_us"]
        entry = {
            "paper_latency_us": paper_us,
            "simulated_latency_us": simulated,
            "paper_crc_valid": paper_crc,
            "simulated_crc_valid": outputs["crc_valid"],
        }
        if paper_us is not None and simulated is not None:
            entry["latency_error_pct"] = round((simulated - paper_us) / paper_us * 100, 4)
        errors[f"{freq:g}MHz"] = entry
    return errors


def main(argv) -> int:
    run._prepare_imports()
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    try:
        with open(run.GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    except FileNotFoundError:
        golden = {"workloads": {}}
    for name in names:
        golden["workloads"][name] = pin_workload(name)
    paper = golden["workloads"]["paper_sweep"]
    clean_events = sorted(
        {entry["outputs"]["sim.events"] for entry in paper.values()
         if entry["outputs"]["latency_us"] is not None}
    )
    golden["notes"] = {
        "paper_sweep_events": (
            f"Every point with a completion interrupt processes {clean_events} "
            "kernel events.  BENCH_sweeps.json still records 7297 per point: "
            "that figure is stale (the count moved to 7296 under a 2 % "
            "tolerance)."
        ),
        "table1_error_40C": table1_notes(paper),
        "table1_caveat": (
            "Table I was the calibration target of the timing model, so the "
            "error against it is not held-out validation."
        ),
    }
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
