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
  N_{n0} comes from the recorded M, I and mode flag at each point
  (``analysis.domination_report``), in one pass over all of them; points
  whose N overflowed to inf are counted apart.
* drift            -- E[N_{n+1}^2] <= (1-c) E[N_n^2] + D within three
  standard errors at every resolved index, the cap E[N^2] <= D/c, and
  exact halving of N during zoom-out.
* oracle_match     -- simulated curves for the idealized policies match
  the closed-form second-moment recursions, within three exact standard
  errors.

The three exact checks share one recorded ensemble (``record_exact``) of
the first min(trials, EXACT_TRIALS) trials.  Each trial's recorded symbol
stream is replayed, one trial at a time, through
``loop.validate_trace_columns`` against the recorded mode, M, I, rho and U;
a mismatch fails every requested exact check.  tracker_equality also reruns
the first SCALAR_REPLAYS trials through the scalar ``run_trial``, an
independent encoder, and compares each with its recorded lane bit for bit.
The recording is freed before drift, which records nothing: it runs
trials x min(horizon, DRIFT_HORIZON_CAP) through the engine once, and the
engine's one N^2 accumulator per trial group (``analysis.EnvelopeMoments``)
gathers its statistics and the halving check (``harness.envelope_moments``).  oracle_match runs its own
two oracle-policy ensembles.

``run_checks`` checks its inputs before any ensemble runs: the check names,
each once, a trace file only with tracker_equality, the adaptive policy the
tracker checks need (oracle_match swaps the policy itself), drift's minimum
number of trials, and oracle_match's laws: a disturbance with third central
moment 0, and finite fourth central moments of gain and disturbance.  The
trace file is read and parsed there too, so a missing or malformed one
fails before the recorded ensemble runs.
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
from zoomctl.loop import Trace, read_trace_csv, run_trial, validate_trace_columns

CHECK_NAMES = ("tracker_equality", "containment", "domination", "drift", "oracle_match")
EXACT_CHECKS = ("tracker_equality", "containment", "domination")
TRACKER_CHECKS = EXACT_CHECKS + ("drift",)  # need the adaptive policy

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
    cfg: ExperimentConfig, trace_cols: dict[str, np.ndarray] | None = None, recorded: Recorded | None = None
) -> CheckResult:
    """Replay a trace file's columns (``loop.read_trace_csv``) if given, else read the ``record_exact`` pass."""
    if trace_cols is not None:
        mu_a, _ = moments(cfg.a_spec)
        mu_w, _ = moments(cfg.w_spec)
        result = validate_trace_columns(trace_cols, cfg.params, mu_a, mu_w)
        if result.ok:
            return CheckResult(
                "tracker_equality", True,
                f"trace file replays cleanly over {result.steps} steps",
            )
        return CheckResult(
            "tracker_equality", False,
            f"first divergent index {result.first_mismatch} ({result.field}): {result.detail}",
        )

    # record_exact replayed every trial of the recorded pass from its symbols
    rec, diverged_at = recorded
    trials = len(diverged_at)
    try:
        # the scalar reference loop reruns a few trials; each must equal its recorded lane
        for t in range(min(SCALAR_REPLAYS, trials)):
            tr = run_trial(cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon, trial_seed(cfg.master_seed, t))
            mismatch = _scalar_mismatch(tr, rec, int(diverged_at[t]), t)
            if mismatch:
                return CheckResult("tracker_equality", False, mismatch)
    except ProtocolError as exc:
        return CheckResult("tracker_equality", False, str(exc))
    return CheckResult(
        "tracker_equality", True,
        f"{trials} trials x {cfg.horizon} steps replayed from their symbols, trackers bit-identical",
    )


def _scalar_mismatch(tr: Trace, rec: dict[str, np.ndarray], div: int, t: int) -> str:
    """Where run_trial's trace of trial t first differs from recorded lane t, bit for bit ("" if nowhere)."""
    at = -1 if tr.diverged_at is None else tr.diverged_at
    if at != div:
        return f"scalar run_trial of trial {t} diverges at step {at}, its recorded lane at {div} (-1: never)"
    cols = {"X": tr.X, "symbol": tr.symbol, "normal": tr.mode == 0,
            "M": tr.M, "I": tr.I, "rho": tr.rho, "U": tr.U}
    found = []  # (step, field order, field) of each field's first difference; X_n enters step n
    for order, (f, col) in enumerate(cols.items()):
        col = col[:tr.steps + (f == "X")].astype(float)
        bad = col.view(np.int64) != rec[f][t, :len(col)].astype(float).view(np.int64)
        if bad.any():
            found.append((int(np.argmax(bad)), order, f))
    if not found:
        return ""
    n, _, f = min(found)
    return (f"scalar run_trial differs from recorded trial {t} at step {n}: "
            f"{f}={cols[f][n].item()!r}, recorded {rec[f][t, n].item()!r}")


def check_containment(cfg: ExperimentConfig, recorded: Recorded) -> CheckResult:
    rec, diverged_at = recorded
    trials = len(diverged_at)
    # recorded steps from a trial's divergence on are not normal
    eligible = rec["normal"]
    x = rec["X"][:, :cfg.horizon]
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
    rec, diverged_at = recorded
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([cfg.master_seed, _N0_STREAM_TAG]))
    )
    # each trial's freeze points, drawn in trial order from its executed steps
    # (a trial diverges at step 1 at the earliest, as X_0 = 0)
    steps = np.where(diverged_at < 0, cfg.horizon, diverged_at)
    n0 = np.concatenate([rng.integers(0, s, size=DOMINATION_N0_PER_TRACE) for s in steps])
    trace = np.repeat(np.arange(len(steps)), DOMINATION_N0_PER_TRACE)
    report = analysis.domination_report(rec, trace, n0, cfg.params)
    unbounded = f"; N overflowed to inf at {report.unbounded}" if report.unbounded else ""
    if not report.ok:
        (t, n, x_abs, n_val), = report.rows(report.violations[:1])
        return CheckResult(
            "domination", False,
            f"{len(report.violations)} violations / {report.checked}{unbounded}; "
            f"first at trial {t}, |X_{n}|={x_abs!r} > N={n_val!r}",
            report=report,
        )
    return CheckResult(
        "domination", True,
        f"|X_n0| <= N_n0 at all {report.checked} sampled freeze points "
        f"(max ratio {report.max_ratio:.3f}{unbounded})",
        report=report,
    )


def check_drift(cfg: ExperimentConfig) -> CheckResult:
    horizon = min(cfg.horizon, DRIFT_HORIZON_CAP)
    stats, n_div = envelope_moments(replace(cfg, horizon=horizon))
    if n_div:
        return CheckResult("drift", False, f"{n_div} trials diverged; drift statistics not applicable")
    d_const = cfg.params.drift_constant(moments(cfg.w_spec)[1])
    report = stats.drift_report(d_const)
    halving = stats.halving_report()
    passed = report.ok and halving.ok
    capped = f" (horizon capped at {horizon})" if cfg.horizon > DRIFT_HORIZON_CAP else ""
    detail = (
        f"{report.num_traces} traces, {report.n_checked} indices{capped}; "
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

    steps, h = min(ORACLE_STEPS, cfg.horizon), cfg.horizon
    # zero_control at every n <= steps, then perfect_observation at the horizon
    for policy, horizon, indices in ((Policy.zero(), steps, range(steps + 1)), (Policy.perfect(), h, [h])):
        stats, _ = run_experiment(replace(cfg, policy=policy, horizon=horizon))
        oracle = analysis.moment_recursion_curve(policy.kind, a_m, w_m, horizon)
        se = analysis.oracle_mean_stderr(policy.kind, cfg.a_spec, cfg.w_spec, horizon, cfg.trials)
        for n in indices:
            if abs(stats.curve_mean[n] - oracle[n]) > 3.0 * se[n]:
                problems.append(
                    f"{policy.kind} n={n}: mean {stats.curve_mean[n]:.4g} vs oracle "
                    f"{oracle[n]:.4g} (3se={3.0 * se[n]:.3g})"
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
    """Results of the named checks, in the order asked for; input errors raise before any ensemble runs."""
    for name in names:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
        if names.count(name) > 1:
            raise ConfigError(f"check {name!r} is named more than once")
    if trace_file is not None and "tracker_equality" not in names:
        raise ConfigError("--trace-file is read by the tracker_equality check only, which is not asked for")
    # the checks that read the adaptive tracker, in CHECK_NAMES order
    tracked = [n for n in TRACKER_CHECKS if n in names and (n != "tracker_equality" or trace_file is None)]
    if tracked and cfg.policy.kind != "adaptive_fixed_rate":
        raise ConfigError(f"check {tracked[0]!r} requires policy=adaptive_fixed_rate")
    if "drift" in names and cfg.trials < analysis.MIN_DRIFT_TRACES:
        raise InsufficientTrials(
            f"drift needs at least {analysis.MIN_DRIFT_TRACES} trials, config has {cfg.trials}"
        )
    if "oracle_match" in names:
        try:
            analysis.oracle_law_moments(cfg.a_spec, cfg.w_spec)
        except ValueError as exc:  # MomentError included
            raise ConfigError(f"oracle_match: {exc}") from None
    trace_cols = None if trace_file is None else read_trace_csv(trace_file)
    checks = {
        "tracker_equality": lambda rec: check_tracker_equality(cfg, trace_cols, rec),
        "containment": lambda rec: check_containment(cfg, rec),
        "domination": lambda rec: check_domination(cfg, rec),
        "drift": lambda rec: check_drift(cfg),
        "oracle_match": lambda rec: check_oracle_match(cfg),
    }
    shared = [n for n in tracked if n in EXACT_CHECKS]
    done = {}
    if shared:
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
