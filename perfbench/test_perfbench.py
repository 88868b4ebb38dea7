"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It runs every workload traced twice at the shipped seeds (each traced run
also makes one untraced pass), about six minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

POLICY_GROUPS = ("harness.adaptive", "harness.adaptive_rec", "harness.static", "harness.oracle")
COUNTS = tuple(f"{g}.{k}" for g in POLICY_GROUPS for k in ("trial_steps", "lanes_mean")) + (
    "harness.adaptive.unique_step_ratio",
    "harness.record_bytes",
    "analysis.envelope_elements",
    "analysis.freeze_points",
    "distributions.variates",
    "loop.run_trial_steps",
    "codec.calls",
    "harness.bytes_written",
    "loop.trace_bytes_written",
)
# derived or total times; every other time metric is a self time
NOT_SELF_TIMES = {"cli.simulate_s", "cli.verify_s", "trace.wall_s", "trace.overhead_s"}


def _traced_run(workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    runs = json.loads((run.WORK / workload / "shipped-seeds" / "runs.json").read_text())
    return result, runs


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat_and_untraced_is_clean(workload):
    first, runs = _traced_run(workload)
    second, _ = _traced_run(workload)

    plain, traced = runs["reports"]
    assert plain["instrumented"] == {"wrapped_functions": 0, "threads": 1}
    assert traced["instrumented"]["wrapped_functions"] > 0
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and plain["failed"] == 0

    m1 = {k: v["value"] for k, v in first["metrics"].items()}
    m2 = {k: v["value"] for k, v in second["metrics"].items()}
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    assert sum(m1[g + ".trial_steps"] for g in POLICY_GROUPS) == workloads.TRIAL_STEPS[workload]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runs["units"]

    # self times plus the time outside any span add up to the traced wall time
    self_times = [v for k, v in m1.items()
                  if run.layer_unit(k) == "s" and k not in NOT_SELF_TIMES]
    assert sum(self_times) == pytest.approx(m1["trace.wall_s"], rel=1e-6)


def test_benchmark_json_lists_workloads_and_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-verify", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
