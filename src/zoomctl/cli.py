"""Command line front end.

Commands: simulate, verify, feasibility, sweep, rate.  Exit codes are a
stable contract: 0 pass/stable, 1 usage or config error, 2 negative
result (unstable verdict, failed checks, infeasible parameters),
3 inconclusive.  All outputs are deterministic given (config, flags);
payloads carry no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from zoomctl import analysis
from zoomctl.analysis import MomentOrderError, UnstabilizableError
from zoomctl.codec import rate_bits
from zoomctl.config import ConfigError, load_config
from zoomctl.distributions import MomentError, moment_summary
from zoomctl.harness import (
    SWEEP_DIMENSIONS,
    run_experiment,
    sweep,
    write_curve_csv,
    write_summary_json,
    write_sweep_csv,
)
from zoomctl.loop import TraceFormatError, write_json
from zoomctl.verify import CHECK_NAMES, InsufficientTrials, run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3


# rejected input, each reported as one "error: " line with exit 1; MomentError
# is a law lacking a moment the command needs (e.g. student_t, low dof)
USER_ERRORS = (ConfigError, OSError, MomentError, InsufficientTrials, MomentOrderError,
               UnstabilizableError, TraceFormatError)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def cmd_simulate(args, cfg) -> int:
    if args.keep_traces < 0:
        return _fail(f"--keep-traces must be >= 0, got {args.keep_traces}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats, traces = run_experiment(cfg, keep_traces=args.keep_traces)
    write_summary_json(stats, cfg, out / "summary.json")
    write_curve_csv(stats, cfg, out / "curve.csv")
    for i, trace in enumerate(traces):
        trace.to_csv(out / f"trace_{i:04d}.csv")
    n_term, mean_term = stats.terminal_mean()
    print(
        f"verdict={stats.verdict} diverged={stats.diverged_count}/{stats.trials} "
        f"window_ratio={stats.window_ratio:.4g} emergency_fraction="
        f"{stats.emergency_fraction:.4g} terminal_mean_xsq[{n_term}]={mean_term:.6g}"
    )
    print(f"wrote {out / 'summary.json'} and {out / 'curve.csv'}")
    return {"stable": EXIT_OK, "unstable": EXIT_NEGATIVE}.get(
        stats.verdict, EXIT_INCONCLUSIVE
    )


def cmd_verify(args, cfg) -> int:
    names = [c.strip() for c in args.checks.split(",")] if args.checks else list(CHECK_NAMES)
    results = run_checks(cfg, names, trace_file=args.trace_file)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for r in results:
            if r.report is not None:
                write_json(r.report.to_dict(), outdir / f"{r.name}_report.json")
                r.report.to_csv(outdir / f"{r.name}_report.csv")
    return EXIT_OK if all(r.passed for r in results) else EXIT_NEGATIVE


def cmd_feasibility(args, cfg) -> int:
    a_m = moment_summary(cfg.a_spec, cfg.alpha)
    w_m = moment_summary(cfg.w_spec, cfg.alpha)
    report = analysis.feasibility(cfg.params, a_m, w_m, cfg.alpha)
    rows = [
        ("rate R (bits)", report.R),
        ("margin_drift", f"{report.margin_drift:.6g}"),
        ("margin_K", f"{report.margin_K:.6g}"),
        ("epsilon_estimate", f"{report.epsilon_estimate:.6g}"),
        ("c + epsilon", f"{report.c + report.epsilon_estimate:.6g}"),
        ("D", f"{report.D:.6g}"),
        ("C = D/c", f"{report.C:.6g}"),
        ("m_alpha", f"{report.m_alpha:.6g}"),
        ("ell_alpha", f"{report.ell_alpha:.6g}"),
        ("drift_ok", report.drift_ok),
        ("K_ok", report.K_ok),
        ("epsilon_ok", report.epsilon_ok),
        ("ok", report.ok),
    ]
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    for note in report.notes:
        print(f"note: {note}")
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_sweep(args, cfg) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        return _fail(f"--values must be numeric, got {args.values!r}")
    try:
        rows = sweep(cfg, args.dim, values)
    except ValueError as exc:
        return _fail(str(exc))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, cfg, out / "sweep.csv")
    for r in rows:
        print(
            f"{r.dimension}={r.value:g} R={r.R} verdict={r.verdict} "
            f"diverged={r.diverged_count} terminal_mean_xsq={r.terminal_mean_xsq:.6g}"
        )
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_rate(args, cfg) -> int:
    if args.L < 1:
        return _fail(f"L must be >= 1, got {args.L}")
    print(f"L={args.L} num_symbols={2 * args.L + 1} R={rate_bits(args.L)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with its usage errors on the contract's exit code 1 rather than 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zoomctl",
        description="simulate and verify the two-mode fixed-rate quantized control strategy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an ensemble and write summary.json / curve.csv")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default="out", help="output directory (default: out)")
    p_sim.add_argument("--keep-traces", type=int, default=0, metavar="N",
                       help="retain the first N trials as trace CSVs")
    p_sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the empirical verification checks")
    p_ver.add_argument("config")
    p_ver.add_argument("--checks", default="", metavar="LIST",
                       help=f"comma list from {','.join(CHECK_NAMES)} (default: all)")
    p_ver.add_argument("--out", default="", help="directory for JSON/CSV check reports")
    p_ver.add_argument("--trace-file", default=None,
                       help="replay a recorded trace CSV in the tracker_equality check")
    p_ver.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_ver.set_defaults(func=cmd_verify)

    p_fea = sub.add_parser("feasibility", help="print the parameter certification report")
    p_fea.add_argument("config")
    p_fea.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_fea.set_defaults(func=cmd_feasibility)

    p_swp = sub.add_parser("sweep", help="rerun the ensemble across strategy parameter values")
    p_swp.add_argument("config")
    p_swp.add_argument("--dim", required=True, help=f"one of {', '.join(SWEEP_DIMENSIONS)}")
    p_swp.add_argument("--values", required=True, help="comma-separated values")
    p_swp.add_argument("--out", default="out")
    p_swp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_swp.set_defaults(func=cmd_sweep)

    p_rate = sub.add_parser("rate", help="print the channel rate for a codebook size")
    p_rate.add_argument("L", type=int, help="cells per half-range (codebook has 2L+1 entries)")
    p_rate.set_defaults(func=cmd_rate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set) if "config" in args else None
        return args.func(args, cfg)
    except USER_ERRORS as exc:
        return _fail(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
