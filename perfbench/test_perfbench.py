"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

* The tracer is an observer: traced ops give the pinned outputs and the
  pinned per-layer counts, exactly.
* Every layer the benchmark reports receives self time on the workload
  that should load it.
* A corrupted pinned value makes the op count as failed.
* The command line prints the contracted result line, and fails without
  one where the program's sources are missing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._prepare_imports()

from tracer import Tracer  # noqa: E402

#: One cheap op per workload, and the layers it must load.
CASES = {
    "paper_sweep": ("200MHz/40C", ("sim", "dma", "icap", "axi", "dram", "fabric",
                                   "crccheck", "core", "bitstream", "snapshot")),
    "dram_contention": ("closed/tenant3", ("sim", "dma", "icap", "axi", "dram",
                                           "core", "snapshot")),
    "fleet_poisson": ("seed2", ("sim", "fleet", "bitstream", "snapshot", "core",
                                "exec")),
    "chaos_soak": ("seed7", ("sim", "chaos", "resilience", "verify", "crccheck",
                             "fabric")),
}


@pytest.fixture(scope="module")
def golden():
    with open(run.GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_tracer_reproduces_pinned_outputs_and_counts(name, golden):
    key, layers = CASES[name]
    workload, _, _, _ = run.cold_setup(name)
    plain = run.run_op(workload, key)
    traced = run.run_op(workload, key, Tracer())
    assert not plain.error and not traced.error, (plain.error, traced.error)
    pinned = golden[name][key]
    assert run.normalise(plain.result.outputs) == pinned["outputs"]
    assert run.normalise(traced.result.outputs) == pinned["outputs"]
    counts = traced.layer["counts"]
    assert {name: counts[name] for name in run.PINNED_COUNTS} == pinned["counts"]
    for layer in layers:
        assert traced.layer["layer_self_ns"].get(layer, 0) > 0, (
            f"{name}: no self time in {layer}"
        )


def test_tracer_restores_every_patch():
    from repro.core.pdr_system import PdrSystem
    from repro.fleet import service
    from repro.sim.kernel import Simulator

    before = (Simulator.process, Simulator.run, PdrSystem.__dict__["fork"],
              service.plan_fleet, PdrSystem.__init__)
    tracer = Tracer()
    tracer.install()
    assert Simulator.process is not before[0]
    tracer.uninstall()
    after = (Simulator.process, Simulator.run, PdrSystem.__dict__["fork"],
             service.plan_fleet, PdrSystem.__init__)
    assert after == before


def test_corrupted_golden_value_counts_as_failed(golden):
    workload, _, clock, setup_s = run.cold_setup("paper_sweep")
    corrupted = copy.deepcopy(golden["paper_sweep"])
    key = workload.sequence(5, corrupted)[0]
    corrupted[key]["outputs"]["latency_us"] = 1.0
    attempted, failed, _, details = run.untraced_run(
        workload, corrupted, clock, seed=5, seconds=0.2, first_setup_s=setup_s
    )
    assert attempted >= 1
    assert failed == 1
    assert any("differ" in error for error in details["errors"])


def test_corrupted_pinned_count_fails_the_traced_run(golden):
    workload, _, clock, _ = run.cold_setup("dram_contention")
    corrupted = copy.deepcopy(golden["dram_contention"])
    for entry in corrupted.values():
        entry["counts"]["dram.requests"] += 1
    attempted, failed, _, _ = run.traced_run(
        workload, Tracer(), corrupted, clock, seed=1, seconds=0.2
    )
    assert attempted >= 1
    assert failed == attempted


def test_result_line_follows_the_contract():
    completed = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "dram_contention",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=run.ROOT, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = run.metric_units("end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload",
         "paper_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
