"""Named empirical checks behind ``zoomctl verify``.

Each check replays part of the strategy's correctness argument on seeded
ensembles:

* tracker_equality -- every recorded lane passes the lane audit below, and
  the scalar loop reruns a few lanes bit for bit.  With ``--trace-file``
  the check instead audits the trace file as one lane and reports the
  first corrupted index.
* containment      -- at every normal step, rho*X_n lies in
  [M_n - 2 I_n, M_n], exactly; steps floored at M0, flagged by the symbol
  replay, are counted apart.
* domination       -- |X_{n0}| <= N_{n0} for sampled freeze points, exactly.
  N_{n0} comes from the recorded M, I and mode flag at each point
  (``analysis.domination_report``), in one pass over all of them; points
  whose N overflowed to inf are counted apart.
* drift            -- E[N_{n+1}^2] <= (1-c) E[N_n^2] + D within three
  standard errors at every resolved index, the cap E[N^2] <= D/c, and
  exact halving of N during zoom-out.
* oracle_match     -- simulated curves for the idealized policies match
  the closed-form second-moment recursions, within three exact standard
  errors; an index whose standard error is not finite fails.

The three exact checks share one recorded ensemble (``record_exact``) of
the first min(trials, EXACT_TRIALS) trials, with all nine lane fields.
Each trial's lane, like a trace file, goes through the one lane audit,
``loop.validate_trace_columns``: the controller replayed from the symbols
against the recorded normal flag, M, I, rho and U, the plant
X' = A*X + W - U, and the encoder's symbol for each X_n.  A failed audit
fails every requested exact check.  tracker_equality also reruns the
first SCALAR_REPLAYS trials through the scalar ``run_trial``, an
independent encoder, and compares each with its recorded lane bit for
bit, all nine fields.
The recording is freed before drift, which records nothing: it runs
trials x min(horizon, DRIFT_HORIZON_CAP) through the engine once, and the
engine's one N^2 accumulator per trial group (``analysis.EnvelopeMoments``)
gathers its statistics and the halving check (``harness.envelope_moments``).  oracle_match runs its own
two oracle-policy ensembles.

``run_checks`` checks its inputs before any ensemble runs: the check names,
each once, a trace file only with tracker_equality, the adaptive policy
every tracker check needs, trace replay included (oracle_match swaps the
policy itself), drift's minimum number of trials, and oracle_match's laws:
a disturbance with third central moment 0, and finite fourth central
moments of gain and disturbance.  The trace file is read there too, so a
missing or malformed one, or one with no executed step, fails first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from zoomctl import analysis
from zoomctl.codec import ProtocolError
from zoomctl.config import ConfigError
from zoomctl.distributions import moments
from zoomctl.harness import (ExperimentConfig, Policy, envelope_moments, recorded_lanes, run_experiment,
                             run_recorded_bundle, trial_seed)
from zoomctl.loop import Trace, read_trace_csv, run_trial, validate_trace_columns

CHECK_NAMES = ("tracker_equality", "containment", "domination", "drift", "oracle_match")
EXACT_CHECKS = ("tracker_equality", "containment", "domination")
TRACKER_CHECKS = EXACT_CHECKS + ("drift",)  # need the adaptive policy

# the exact checks' recording and drift's horizon are capped; documented in output
DRIFT_HORIZON_CAP = 2000
EXACT_TRIALS = 100  # trials in the exact checks' shared recorded pass
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
    """The first min(trials, EXACT_TRIALS) trials, recorded and each lane audited (``loop.validate_trace_columns``).

    A failed audit raises ProtocolError naming the trial, the step and the
    field.  The replay's floor flags become the ``clamped`` record (False
    from a trial's divergence step on), which containment counts apart.
    """
    sub = replace(cfg, trials=min(cfg.trials, EXACT_TRIALS))
    rec, diverged_at = run_recorded_bundle(sub)
    mu_a, _ = moments(cfg.a_spec)
    mu_w, _ = moments(cfg.w_spec)
    clamped = np.zeros(rec["normal"].shape, dtype=bool)
    for t, (steps, lane) in enumerate(zip(*recorded_lanes(rec, diverged_at))):
        result = validate_trace_columns(lane, cfg.params, mu_a, mu_w)
        if not result.ok:
            raise ProtocolError(
                f"recorded trial {t} differs at step {result.first_mismatch} ({result.field}): {result.detail}"
            )
        clamped[t, :steps] = result.clamped
    rec["clamped"] = clamped
    return rec, diverged_at


def check_tracker_equality(
    cfg: ExperimentConfig, trace_cols: dict[str, np.ndarray] | None = None, recorded: Recorded | None = None
) -> CheckResult:
    """Audit a trace file's columns (``loop.read_trace_csv``) as one lane if given, else read the
    ``record_exact`` pass, which audited every recorded lane the same way."""
    if trace_cols is not None:
        result = validate_trace_columns(trace_cols, cfg.params, moments(cfg.a_spec)[0], moments(cfg.w_spec)[0])
        if result.ok:
            return CheckResult(
                "tracker_equality", True,
                f"trace file replays cleanly over {result.steps} steps",
            )
        return CheckResult(
            "tracker_equality", False,
            f"first divergent index {result.first_mismatch} ({result.field}): {result.detail}",
        )

    # record_exact audited every trial of the recorded pass
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
    examined = f"{trials} trials x {cfg.horizon} steps"
    n_div = int((diverged_at >= 0).sum())
    if n_div:  # a diverged trial's records end at its divergence step
        steps, _ = recorded_lanes(rec, diverged_at)
        examined = f"{trials} trials ({n_div} diverged), {int(steps.sum())} executed steps"
    return CheckResult("tracker_equality", True, f"{examined} replayed from their symbols, trackers bit-identical")


def _scalar_mismatch(tr: Trace, rec: dict[str, np.ndarray], div: int, t: int) -> str:
    """Where run_trial's trace of trial t first differs from recorded lane t, bit for bit ("" if nowhere)."""
    at = -1 if tr.diverged_at is None else tr.diverged_at
    if at != div:
        return f"scalar run_trial of trial {t} diverges at step {at}, its recorded lane at {div} (-1: never)"
    found = []  # (step, field order, field) of each field's first difference; X_n enters step n
    for order, f in enumerate(("X", "symbol", "normal", "M", "I", "rho", "U", "A", "W")):
        col = getattr(tr, f).astype(float)
        bad = col.view(np.int64) != rec[f][t, :len(col)].astype(float).view(np.int64)
        if bad.any():
            found.append((int(np.argmax(bad)), order, f))
    if not found:
        return ""
    n, _, f = min(found)
    return (f"scalar run_trial differs from recorded trial {t} at step {n}: "
            f"{f}={getattr(tr, f)[n].item()!r}, recorded {rec[f][t, n].item()!r}")


def check_containment(cfg: ExperimentConfig, recorded: Recorded) -> CheckResult:
    """rho*X_n in [M_n - 2 I_n, M_n] at every normal step a trial executed."""
    rec, diverged_at = recorded
    trials = len(diverged_at)
    steps, _ = recorded_lanes(rec, diverged_at)
    eligible = rec["normal"] & (np.arange(cfg.horizon) < steps[:, None])
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
    steps, _ = recorded_lanes(rec, diverged_at)
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
            if not math.isfinite(3.0 * se[n]):  # tests nothing; it fails, as a drift stderr does
                problems.append(f"{policy.kind} n={n}: exact standard error not finite (3se={3.0 * se[n]:.3g})")
            elif abs(stats.curve_mean[n] - oracle[n]) > 3.0 * se[n]:
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
    """Results of the named checks, in the order asked for; input errors raise before any ensemble runs.

    Every tracker check needs the adaptive policy; tracker_equality replays a given trace file, not the recorded pass.
    """
    for name in names:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
        if names.count(name) > 1:
            raise ConfigError(f"check {name!r} is named more than once")
    if trace_file is not None and "tracker_equality" not in names:
        raise ConfigError("--trace-file is read by the tracker_equality check only, which is not asked for")
    tracked = [n for n in TRACKER_CHECKS if n in names]  # in CHECK_NAMES order
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
    if trace_cols is not None and not len(trace_cols["symbol"]):
        raise ConfigError(f"{trace_file}: no executed step to replay")
    checks = {
        "tracker_equality": lambda rec: check_tracker_equality(cfg, trace_cols, rec),
        "containment": lambda rec: check_containment(cfg, rec),
        "domination": lambda rec: check_domination(cfg, rec),
        "drift": lambda rec: check_drift(cfg),
        "oracle_match": lambda rec: check_oracle_match(cfg),
    }
    shared = [n for n in tracked if n in EXACT_CHECKS and (n != "tracker_equality" or trace_cols is None)]
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
