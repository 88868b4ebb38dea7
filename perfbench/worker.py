"""Run one benchmark workload in a fresh process (started by run.py).

The process imports zoomctl once, loads the workload's first config, prints
``ready`` (the parent times set-up up to that line), then runs the
workload's commands in order through ``zoomctl.cli.main`` and writes a JSON
report.  ``--probe`` stops after ``ready``.  With ``--trace 1`` the span
wrappers and a resident-memory sampler are installed before the first
command; without it nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter, process_time

import workloads
from tracer import RssSampler, Tracer, wrapped_count


def _run_command(argv: list[str], main) -> tuple[int, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _observe(cmd, code: int, stdout: str, workdir: Path) -> workloads.Observed:
    obs = workloads.Observed(exit=code)
    if cmd.kind == "verify":
        obs.checks, obs.details = workloads.parse_checks(stdout)
    else:
        out = workdir / cmd.out
        for name in ["summary.json", "curve.csv"] + sorted(p.name for p in out.glob("trace_*.csv")):
            if (out / name).exists():
                obs.digests[name] = _sha256(out / name)
    return obs


def _layer_metrics(tracer, peak_rss: dict[str, float], cmd_wall: dict[str, float],
                   seq_wall: float) -> dict[str, float]:
    s, c = tracer.self_s, tracer.counts
    m: dict[str, float] = {}
    for group in ("harness.adaptive", "harness.adaptive_rec", "harness.static", "harness.oracle"):
        steps = c[group + ".trial_steps"]
        m[group + ".step_s"] = s[group]
        m[group + ".trial_steps"] = steps
        m[group + ".trial_steps_per_s"] = steps / s[group] if s[group] > 0 else 0.0
        m[group + ".lanes_mean"] = steps / c[group + ".engine_steps"] if c[group + ".engine_steps"] else 0.0
    distinct = sum(len(trials) * key[-1] for key, trials in tracer.adaptive_keys.items())
    simulated = c["harness.adaptive_all.trial_steps"]
    m["harness.adaptive.unique_step_ratio"] = distinct / simulated if simulated else 0.0
    for name in (
        "harness.predraw", "distributions.sample_array", "harness.envelope",
        "analysis.envelope_squared", "harness.record_bundle", "harness.aggregate",
        "harness.extract_trace", "loop.trace_to_csv", "loop.read_trace_csv",
        "loop.validate_trace", "harness.write", "analysis.freeze", "analysis.dominating_seq",
        "analysis.drift_estimate", "analysis.halving", "analysis.oracle", "loop.run_trial",
        "config.load_config",
    ):
        m[name + "_s"] = s[name]
    m["codec.s"] = s["codec"]
    for check in ("tracker_equality", "containment", "domination", "drift", "oracle_match"):
        m[f"verify.{check}_s"] = s["verify." + check]
    for counter in (
        "distributions.variates", "analysis.envelope_elements", "harness.record_bytes",
        "harness.bytes_written", "loop.trace_bytes_written", "analysis.freeze_points",
        "loop.run_trial_steps", "codec.calls",
    ):
        m[counter] = c[counter]
    for kind in ("simulate", "verify"):
        m[f"cli.{kind}_s"] = cmd_wall.get(kind, 0.0)
        m[f"cli.{kind}.peak_rss_mb"] = peak_rss.get(kind, 0.0)
    # time inside a command that no layer span covers, and time outside any span
    m["cli.self_s"] = s["cli.simulate"] + s["cli.verify"]
    m["trace.unspanned_s"] = seq_wall - sum(end - start for _, start, end, parent in tracer.spans
                                            if parent == -1)
    m["trace.wall_s"] = seq_wall
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    import numpy
    from zoomctl import cli, harness
    from zoomctl.config import load_config

    load_config(workloads.first_config(args.workload))
    print("ready", flush=True)
    if args.probe:
        return 0

    cmds = workloads.commands(args.workload, args.seed, args.workdir)
    tracer = sampler = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        sampler = RssSampler()
        sampler.start()

    runs = []
    peak_rss: dict[str, float] = {}
    cmd_wall: dict[str, float] = {}
    t_start, cpu_start = perf_counter(), process_time()
    for cmd in cmds:
        t0 = perf_counter()
        if tracer is not None:
            sampler.reset()
            tracer.open("cli." + cmd.kind)
        code, stdout = _run_command(list(cmd.argv), cli.main)
        if tracer is not None:
            tracer.close()
            peak_rss[cmd.kind] = max(peak_rss.get(cmd.kind, 0.0), sampler.peak_mb())
        dt = perf_counter() - t0
        cmd_wall[cmd.kind] = cmd_wall.get(cmd.kind, 0.0) + dt
        runs.append((cmd, code, stdout, dt))
    seq_wall = perf_counter() - t_start
    seq_cpu = process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    instrumented = {"wrapped_functions": wrapped_count(), "threads": threading.active_count()}
    layer = None
    if tracer is not None:
        sampler.stop()
        tracer.uninstall()
        tracer.write_spans(args.workdir / "spans.json")
        layer = _layer_metrics(tracer, peak_rss, cmd_wall, seq_wall)

    observed, problems = [], []
    for cmd, code, stdout, _ in runs:
        obs = _observe(cmd, code, stdout, args.workdir)
        ns = cli.build_parser().parse_args(list(cmd.argv))
        cfg = load_config(ns.config, ns.set)
        observed.append(obs)
        problems.append(workloads.any_seed_problems(cmd, obs, args.workdir, cfg.horizon, cfg.trials))
    if args.seed is None:
        for mine, recorded in zip(problems, workloads.shipped_seed_problems(args.workload, observed)):
            mine.extend(recorded)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "instrumented": instrumented,
        "wall_s": seq_wall,
        "cpu_s": seq_cpu,
        "peak_rss_mb": peak_rss_mb,
        "commands": [
            {"argv": list(cmd.argv), "wall_s": dt, **obs.record(), "problems": probs}
            for (cmd, _, _, dt), obs, probs in zip(runs, observed, problems)
        ],
        "attempted": len(runs),
        "failed": sum(1 for p in problems if p),
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "engine_workers": harness._max_workers(),
        },
        "layer": layer,
    }
    args.result.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
