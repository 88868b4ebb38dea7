"""zoomctl benchmark: end-to-end cost of the CLI workloads, or a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload ref-simulate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 0       # every workload, shipped seeds

Each measured repetition is a fresh ``python3 perfbench/worker.py`` process
that imports zoomctl once and runs the workload's commands in order.
``--trace 0`` reports the end-to-end metrics; set-up is sampled by extra
processes that stop after import and the first config load.  ``--trace 1``
runs the workload once untraced and once with span wrappers installed, and
reports the per-layer metrics.  Every metric is printed by name with its
unit; the last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--seed`` the shipped
config seeds run and outputs are compared byte for byte with
``expected/``; with a seed, output digests are written to
``_work/<workload>/seed-<n>/digests.json`` for comparison between builds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
REQUIRED = ("src/zoomctl/cli.py", "configs/reference.cfg", "configs/static_baseline.cfg",
            "configs/emergency_rich.cfg")
SETUP_PROBES = 3
PROCESS_TIMEOUT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "trial_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("trial_steps_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_bytes", "bytes_written")):
        return "B"
    if name.endswith("lanes_mean"):
        return "lanes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _spawn(workload: str, seed: int | None, workdir: Path, trace: int, probe: bool = False):
    """Run the worker; returns (seconds until it reported ready, its report or None)."""
    result = workdir / "report.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--workdir", os.path.relpath(workdir), "--result", str(result), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ)
    env.pop("ZOOMCTL_THREADS", None)  # one engine worker, as users run it
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    if not probe:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
    with open(WORK / "worker.stderr", "a") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}; see {WORK / 'worker.stderr'}")
    if probe:
        return setup_s, None
    return setup_s, json.loads(result.read_text())


def run_untraced(workload: str, seed: int | None, seconds: float, workdir: Path):
    _spawn(workload, seed, workdir, 0, probe=True)  # warm-up: bytecode and file caches
    setups = [_spawn(workload, seed, workdir, 0, probe=True)[0] for _ in range(SETUP_PROBES)]
    reports = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        setup_s, report = _spawn(workload, seed, workdir / "rep", 0)
        setups.append(setup_s)
        reports.append(report)
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            break
    walls = [r["wall_s"] for r in reports]
    metrics = {
        "wall_s": statistics.median(walls),
        "trial_steps_per_s": statistics.median([workloads.TRIAL_STEPS[workload] / w for w in walls]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reports]),
        "setup_s": statistics.median(setups),
    }
    units = dict(END_TO_END)
    notes = [f"samples: {len(reports)} workload runs, {len(setups)} set-ups"]
    return metrics, units, reports, notes


def run_traced(workload: str, seed: int | None, workdir: Path):
    _, plain = _spawn(workload, seed, workdir / "rep", 0)
    _, traced = _spawn(workload, seed, workdir / "traced", 1)
    metrics = dict(traced["layer"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {name: layer_unit(name) for name in metrics}
    notes = [f"spans: {workdir / 'traced' / 'spans.json'}"]
    return metrics, units, [plain, traced], notes


def run_workload(workload: str, seed: int | None, seconds: float, trace: int):
    workdir = WORK / workload / ("shipped-seeds" if seed is None else f"seed-{seed}")
    if trace:
        metrics, units, reports, notes = run_traced(workload, seed, workdir)
    else:
        metrics, units, reports, notes = run_untraced(workload, seed, seconds, workdir)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    (workdir / "digests.json").write_text(json.dumps(
        {"workload": workload, "seed": seed,
         "commands": [{k: c[k] for k in ("exit", "checks", "digests")} for c in reports[-1]["commands"]]},
        indent=1) + "\n")
    (workdir / "runs.json").write_text(json.dumps(
        {"metrics": metrics, "units": units, "reports": reports}, indent=1) + "\n")

    print(f"== {workload}  seed={'shipped' if seed is None else seed}  trace={trace}")
    env = reports[-1]["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    print(f"{'ops_failed_frac':<40} {failed / attempted:>16.6g} share ({failed}/{attempted} commands)")
    for note in notes:
        print(note)
    for report in reports:
        for c in report["commands"]:
            for problem in c["problems"]:
                print(f"FAILED {' '.join(c['argv'][:2])}: {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="config seed for every command (default: the shipped seeds)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure repetitions until this many seconds have passed (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not Path(p).is_file()]
    if missing:
        print(f"error: run from the zoomctl repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
