"""Named empirical checks behind ``zoomctl verify``.

Each check replays part of the strategy's correctness argument on seeded
ensembles:

* tracker_equality -- the controller's tracker, rebuilt from the symbol
  stream alone, equals the recorded (encoder-side) tracker at every step.
  With ``--trace-file`` the check instead replays a recorded trace from
  its symbols and reports the first corrupted index.
* containment      -- at every normal step, rho*X_n lies in
  [M_n - 2 I_n, M_n], exactly; steps floored at M0 are counted apart.
* domination       -- |X_{n0}| <= N_{n0} for sampled freeze points, exactly.
* drift            -- E[N_{n+1}^2] <= (1-c) E[N_n^2] + D within three
  standard errors at every resolved index, the cap E[N^2] <= D/c, and
  exact halving of N during zoom-out.
* oracle_match     -- simulated curves for the idealized policies match
  the closed-form second-moment recursions.

The three exact checks share one recorded ensemble (``record_exact``) of
the first min(trials, EXACT_TRIALS) trials.  Each trial's recorded symbol
stream is replayed, one trial at a time, through
``loop.validate_trace_columns`` against the recorded mode, M, I, rho and U:
tracker_equality's ensemble half (a few scalar ``run_trial`` replays are
its other half).  A mismatch fails every requested exact check.  The
recording is freed before drift, which records nothing: it runs
trials x min(horizon, DRIFT_HORIZON_CAP) through the engine once and
accumulates its statistics and the halving check in the engine's N^2
envelope fold (``harness.envelope_moments``).  oracle_match runs its own
two oracle-policy ensembles.

Checks needing the tracker machinery require the adaptive policy; the
oracle check swaps the policy itself and so runs for any config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from zoomctl import analysis
from zoomctl.codec import ProtocolError
from zoomctl.config import ConfigError
from zoomctl.distributions import moments
from zoomctl.harness import (ExperimentConfig, Policy, envelope_moments, run_experiment,
                             run_recorded_bundle, trial_seed)
from zoomctl.loop import NO_SYMBOL, read_trace_csv, run_trial, validate_trace_columns

CHECK_NAMES = ("tracker_equality", "containment", "domination", "drift", "oracle_match")
EXACT_CHECKS = ("tracker_equality", "containment", "domination")

# the exact checks' recording and drift's horizon are capped; documented in output
DRIFT_HORIZON_CAP = 2000
EXACT_TRIALS = 100  # trials in the exact checks' shared recorded pass
EXACT_FIELDS = ("X", "symbol", "M", "I", "normal", "rho", "U", "clamped")
SCALAR_REPLAYS = 3  # trials tracker_equality repeats through run_trial
DOMINATION_N0_PER_TRACE = 10
ORACLE_STEPS = 20

# fixed stream tags so check-level sampling never collides with trial streams
_N0_STREAM_TAG = 0x5EEDF00D

Recorded = tuple[dict[str, np.ndarray], np.ndarray]  # (records, diverged_at)


class InsufficientTrials(ValueError):
    """The config does not provide enough trials for a statistical check."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    report: object | None = None


def _require_adaptive(cfg: ExperimentConfig, name: str) -> None:
    if cfg.policy.kind != "adaptive_fixed_rate":
        raise ConfigError(f"check {name!r} requires policy=adaptive_fixed_rate")


def record_exact(cfg: ExperimentConfig) -> Recorded:
    """The first min(trials, EXACT_TRIALS) trials, recorded and replayed.

    A replay mismatch raises ProtocolError naming the trial and step.
    """
    sub = replace(cfg, trials=min(cfg.trials, EXACT_TRIALS))
    rec, diverged_at = run_recorded_bundle(sub, fields=EXACT_FIELDS)
    mu_a, _ = moments(cfg.a_spec)
    mu_w, _ = moments(cfg.w_spec)
    for t, div in enumerate(diverged_at):
        steps = cfg.horizon if div < 0 else int(div)
        cols = {f: rec[f][t, :steps] for f in ("symbol", "M", "I", "rho", "U")}
        cols["mode"] = ~rec["normal"][t, :steps]
        result = validate_trace_columns(cols, cfg.params, mu_a, mu_w)
        if not result.ok:
            raise ProtocolError(
                f"replayed tracker differs at trial {t}, step {result.first_mismatch}: {result.detail}"
            )
    return rec, diverged_at


def check_tracker_equality(
    cfg: ExperimentConfig, trace_file=None, recorded: Recorded | None = None
) -> CheckResult:
    """Replay ``trace_file`` if given, else read the ``record_exact`` pass."""
    if trace_file is not None:
        cols = read_trace_csv(trace_file)
        mu_a, _ = moments(cfg.a_spec)
        mu_w, _ = moments(cfg.w_spec)
        result = validate_trace_columns(cols, cfg.params, mu_a, mu_w)
        if result.ok:
            steps = len(cols["n"]) - 1 if cols["symbol"][-1] == NO_SYMBOL else len(cols["n"])
            return CheckResult(
                "tracker_equality", True,
                f"trace file replays cleanly over {steps} steps",
            )
        return CheckResult(
            "tracker_equality", False,
            f"first divergent index {result.first_mismatch} ({result.field}): {result.detail}",
        )

    _require_adaptive(cfg, "tracker_equality")
    # record_exact replayed every trial of the recorded pass from its symbols
    trials = len(recorded[1])
    try:
        # scalar reference loop repeats the comparison on a few trials
        for t in range(min(SCALAR_REPLAYS, trials)):
            run_trial(
                cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon,
                trial_seed(cfg.master_seed, t), check_feasibility=False,
            )
    except ProtocolError as exc:
        return CheckResult("tracker_equality", False, str(exc))
    return CheckResult(
        "tracker_equality", True,
        f"{trials} trials x {cfg.horizon} steps replayed from their symbols, trackers bit-identical",
    )


def check_containment(cfg: ExperimentConfig, recorded: Recorded) -> CheckResult:
    _require_adaptive(cfg, "containment")
    rec, diverged_at = recorded
    trials = len(diverged_at)
    h = cfg.horizon
    executed = np.arange(h)[None, :] < np.where(diverged_at < 0, h, diverged_at)[:, None]
    eligible = rec["normal"] & executed
    x = rec["X"][:, :h]
    lo = rec["M"] - 2.0 * rec["I"]
    rx = rec["rho"] * x
    bad = eligible & ((rx < lo) | (rx > rec["M"]))
    n_bad = int(bad.sum())
    n_checked = int(eligible.sum())
    n_floored = int((eligible & rec["clamped"]).sum())
    counts = f"{n_checked - n_floored} unfloored, {n_floored} floored at M0"
    if n_bad:
        t, n = map(int, next(zip(*np.nonzero(bad))))
        return CheckResult(
            "containment", False,
            f"{n_bad} violations / {n_checked} normal steps ({counts}); first at trial {t}, step {n}",
        )
    return CheckResult(
        "containment", True,
        f"0 violations over {n_checked} normal steps ({counts}; {trials} trials)",
    )


def check_domination(cfg: ExperimentConfig, recorded: Recorded) -> CheckResult:
    _require_adaptive(cfg, "domination")
    rec, diverged_at = recorded
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([cfg.master_seed, _N0_STREAM_TAG]))
    )

    def frozen():
        for t, div in enumerate(diverged_at):
            steps = cfg.horizon if div < 0 else int(div)
            if steps == 0:
                continue
            for n0 in rng.integers(0, steps, size=DOMINATION_N0_PER_TRACE):
                yield t, analysis.freeze_arrays(
                    rec["X"][t], rec["M"][t, :steps], rec["I"][t, :steps], int(n0), cfg.params
                )

    report = analysis.domination_report(frozen(), cfg.params.K)
    if report.violations:
        n0, x_abs, n_val = report.violations[0]
        return CheckResult(
            "domination", False,
            f"{len(report.violations)} violations / {report.checked}; "
            f"first |X_{n0}|={x_abs!r} > N={n_val!r}",
            report=report,
        )
    return CheckResult(
        "domination", True,
        f"|X_n0| <= N_n0 at all {report.checked} sampled freeze points "
        f"(max ratio {report.max_ratio:.3f})",
        report=report,
    )


def check_drift(cfg: ExperimentConfig) -> CheckResult:
    _require_adaptive(cfg, "drift")
    if cfg.trials < analysis.MIN_DRIFT_TRACES:
        raise InsufficientTrials(
            f"drift needs at least {analysis.MIN_DRIFT_TRACES} trials, config has {cfg.trials}"
        )
    horizon = min(cfg.horizon, DRIFT_HORIZON_CAP)
    stats, n_div = envelope_moments(replace(cfg, horizon=horizon))
    if n_div:
        return CheckResult("drift", False, f"{n_div} trials diverged; drift statistics not applicable")
    d_const = cfg.params.drift_constant(moments(cfg.w_spec)[1])
    report = stats.drift_report(d_const)
    halving = stats.halving_report()
    passed = report.ok and halving.ok
    detail = (
        f"{report.num_traces} traces, {report.n_checked} indices (horizon capped at {horizon}); "
        f"flagged={report.flagged[:5]}, cap_violations={report.cap_violations[:5]}, "
        f"halving pairs={halving.emergency_pairs} violations={len(halving.violations)}"
        + (" (not exercised)" if halving.emergency_pairs == 0 else "")
    )
    return CheckResult("drift", passed, detail, report=report)


def check_oracle_match(cfg: ExperimentConfig) -> CheckResult:
    mu_a, var_a = moments(cfg.a_spec)
    mu_w, var_w = moments(cfg.w_spec)
    a_m = (mu_a, math.sqrt(var_a))
    w_m = (mu_w, math.sqrt(var_w))
    problems = []

    steps = min(ORACLE_STEPS, cfg.horizon)
    zero_cfg = replace(cfg, policy=Policy.zero(), horizon=max(steps, 1))
    stats, _ = run_experiment(zero_cfg, envelope=False)
    oracle = analysis.moment_recursion_curve("zero_control", a_m, w_m, steps)
    se = analysis.oracle_mean_stderr("zero_control", cfg.a_spec, cfg.w_spec, steps, cfg.trials)
    for n in range(steps + 1):
        if abs(stats.curve_mean[n] - oracle[n]) > 3.0 * se[n]:
            problems.append(
                f"zero_control n={n}: mean {stats.curve_mean[n]:.4g} vs oracle "
                f"{oracle[n]:.4g} (3se={3.0 * se[n]:.3g})"
            )

    perfect_cfg = replace(cfg, policy=Policy.perfect())
    stats_p, _ = run_experiment(perfect_cfg, envelope=False)
    h = cfg.horizon
    oracle_p = analysis.moment_recursion_curve("perfect_observation", a_m, w_m, h)
    se_p = analysis.oracle_mean_stderr("perfect_observation", cfg.a_spec, cfg.w_spec, h, cfg.trials)
    if abs(stats_p.curve_mean[h] - oracle_p[h]) > 3.0 * se_p[h]:
        problems.append(
            f"perfect_observation n={h}: mean {stats_p.curve_mean[h]:.4g} vs oracle "
            f"{oracle_p[h]:.4g} (3se={3.0 * se_p[h]:.3g})"
        )
    if var_a < 1.0 and h >= 1000:
        plateau = var_w / (1.0 - var_a)
        if abs(stats_p.curve_mean[h] - plateau) > 0.05 * plateau:
            problems.append(
                f"perfect_observation plateau: mean {stats_p.curve_mean[h]:.4g} vs "
                f"{plateau:.4g} (5% band)"
            )
    if problems:
        return CheckResult("oracle_match", False, "; ".join(problems[:4]))
    return CheckResult(
        "oracle_match", True,
        f"zero_control matches for n<={steps} and perfect_observation at n={h} "
        "(exact-variance z-test, 3 standard errors)",
    )


def run_checks(
    cfg: ExperimentConfig, names: list[str], trace_file=None
) -> list[CheckResult]:
    """Results of the named checks, in the order asked for."""
    for name in names:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    checks = {
        "tracker_equality": lambda rec: check_tracker_equality(cfg, trace_file, rec),
        "containment": lambda rec: check_containment(cfg, rec),
        "domination": lambda rec: check_domination(cfg, rec),
        "drift": lambda rec: check_drift(cfg),
        "oracle_match": lambda rec: check_oracle_match(cfg),
    }
    shared = [n for n in EXACT_CHECKS
              if n in names and not (n == "tracker_equality" and trace_file is not None)]
    done = {}
    if shared:
        for name in shared:
            _require_adaptive(cfg, name)
        try:
            recorded = record_exact(cfg)
        except ProtocolError as exc:
            done = {name: CheckResult(name, False, str(exc)) for name in shared}
        else:
            done = {name: checks[name](recorded) for name in shared}
            del recorded  # freed before drift records its own ensemble
    results = []
    for name in names:
        if name not in done:
            done[name] = checks[name](None)
        results.append(done[name])
    return results
