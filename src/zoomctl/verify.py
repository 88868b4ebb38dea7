"""Named empirical checks behind ``zoomctl verify``.

Each check replays part of the strategy's correctness argument on seeded
ensembles:

* tracker_equality -- every recorded lane passes the lane audit below, and
  the scalar loop reruns a few lanes bit for bit.  With ``--trace-file``
  the check instead audits the trace file as one lane and reports the
  first corrupted index.
* containment      -- at every normal step, rho*X_n lies in
  [M_n - 2 I_n, M_n], exactly; steps floored at M0, flagged by the lane
  audit's symbol replay, are counted apart.
* domination       -- |X_n| <= N_n at every executed step, exactly, each
  step taken as a freeze point.  N_n comes from the step's own M, I and
  mode flag (``analysis.dominating_at``); steps whose N overflowed to inf
  are counted apart.
* drift            -- E[N_{n+1}^2] <= (1-c) E[N_n^2] + D within three
  standard errors at every resolved index, the cap E[N^2] <= D/c, and
  exact halving of N during zoom-out.
* oracle_match     -- simulated curves for the idealized policies match
  the closed-form second-moment recursions, within three exact standard
  errors; an index whose standard error is not finite fails.

The three exact checks share one pass (``record_exact``) over the first
min(trials, EXACT_TRIALS) trials, streamed through the engine block by
block (``ExactPass``).  Each block's lanes, like a trace file, go through
the one lane audit, ``loop.validate_trace_columns``: the controller
replayed from the symbols against the recorded normal flag, M, I, rho and
U, the plant X' = A*X + W - U, and the encoder's symbol for each X_n.  A
failed audit fails every requested exact check.  Containment and
domination are tallied per block.  For tracker_equality the first
SCALAR_REPLAYS trials are rerun through the scalar ``run_trial``, an
independent encoder, before the pass, and each block's lanes are compared
with them bit for bit, all nine fields.  Of the pass's trials only those
reruns' Traces span the horizon.  Drift then runs trials x
min(horizon, DRIFT_HORIZON_CAP) through the engine once, and the engine's
one N^2 accumulator per trial group (``analysis.EnvelopeMoments``) gathers
its statistics and the halving check (``harness.envelope_moments``).
oracle_match runs its own two oracle-policy ensembles; like every engine
chunk, they draw their noise a batch at a time.

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
from zoomctl.analysis import dominating_at
from zoomctl.codec import ProtocolError
from zoomctl.config import ConfigError
from zoomctl.distributions import moments
from zoomctl.harness import (ExperimentConfig, Policy, envelope_moments, executed_steps, run_experiment,
                             run_recorded_bundle, trial_seed)
from zoomctl.loop import Trace, read_trace_csv, run_trial, validate_trace_columns

CHECK_NAMES = ("tracker_equality", "containment", "domination", "drift", "oracle_match")
EXACT_CHECKS = ("tracker_equality", "containment", "domination")
TRACKER_CHECKS = EXACT_CHECKS + ("drift",)  # need the adaptive policy

# the exact checks' recording and drift's horizon are capped; documented in output
DRIFT_HORIZON_CAP = 2000
EXACT_TRIALS = 100  # trials in the exact checks' shared recorded pass
SCALAR_REPLAYS = 3  # trials tracker_equality repeats through run_trial
ORACLE_STEPS = 20


class InsufficientTrials(ValueError):
    """The config does not provide enough trials for a statistical check."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    report: object | None = None


class ExactPass:
    """The exact checks' consumer of their pass's block rows (``harness._run_chunk``'s ``consume``).

    It audits each block's lanes, keeping the lowest trial's first failure;
    tallies containment at their executed normal steps (those steps, the
    floored ones, the violations and the first (trial, step) of them) and
    domination at every executed step (``domination``); and compares the
    first lanes with their scalar reruns, keeping each trial's first
    difference (``mismatch``).
    """

    def __init__(self, cfg: ExperimentConfig, replays: int):
        self.cfg, self.mu = cfg, (moments(cfg.a_spec)[0], moments(cfg.w_spec)[0])
        self.scalar: list[Trace] = []  # run_trial's reruns of the first trials
        self.mismatch: dict[int, str] = {}  # trial -> where its scalar rerun first differs from its lane
        try:
            for t in range(min(replays, cfg.trials)):
                self.scalar.append(run_trial(cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon,
                                             trial_seed(cfg.master_seed, t)))
        except ProtocolError as exc:
            self.mismatch[len(self.scalar)] = str(exc)
        self.entering = None  # the tracker entering the next block
        self.failure: tuple[int, str] | None = None  # (trial, message)
        self.normal = self.floored = self.violations = 0
        self.first: tuple[int, int] | None = None
        self.domination = analysis.DominationReport(*np.zeros((3, cfg.trials), dtype=np.int64), np.zeros(cfg.trials))
        self.diverged_at = self.steps = None  # each trial's, once the pass is done

    def __call__(self, b0: int, rows: dict[str, np.ndarray], diverged_at: np.ndarray) -> None:
        nb = rows["symbol"].shape[1]
        steps = np.clip(executed_steps(diverged_at, b0 + nb) - b0, 0, nb)
        result = validate_trace_columns(rows, self.cfg.params, *self.mu, b0, self.entering, steps)
        self.entering = np.array([rows["M"][:, -1], rows["I"][:, -1], rows["rho"][:, -1]], dtype=float)
        if not result.ok and (self.failure is None or result.lane < self.failure[0]):
            self.failure = (result.lane, f"recorded trial {result.lane} differs at step {result.first_mismatch} "
                                         f"({result.field}): {result.detail}")
        executed = np.arange(nb) < steps[:, None]
        eligible = rows["normal"] & executed
        rx = rows["rho"] * rows["X"][:, :nb]
        bad = eligible & ((rx < rows["M"] - 2.0 * rows["I"]) | (rx > rows["M"]))
        self.normal += int(eligible.sum())
        self.floored += int((eligible & result.clamped).sum())
        self.violations += int(bad.sum())
        if bad.any():
            t, n = map(int, next(zip(*np.nonzero(bad))))
            self.first = min(self.first or (t, b0 + n), (t, b0 + n))
        x_abs = np.abs(rows["X"][:, :nb], out=np.zeros(executed.shape), where=executed)
        self.domination.add(b0, x_abs, dominating_at(x_abs, rows["M"], rows["normal"], rows["I"], self.cfg.params),
                            executed)
        for t, tr in enumerate(self.scalar):
            if t not in self.mismatch and (found := _scalar_mismatch(tr, rows, b0, t)):
                self.mismatch[t] = found


def record_exact(cfg: ExperimentConfig, replays: int = SCALAR_REPLAYS) -> ExactPass:
    """The exact checks' pass over the first min(trials, EXACT_TRIALS) trials, streamed through the engine,
    with the first ``replays`` of them rerun through run_trial.

    A failed lane audit raises ProtocolError naming the lowest such trial,
    its first bad step and the field.
    """
    sub = replace(cfg, trials=min(cfg.trials, EXACT_TRIALS))
    tally = ExactPass(sub, replays)
    _, tally.diverged_at = run_recorded_bundle(sub, tally)
    if tally.failure:
        raise ProtocolError(tally.failure[1])
    tally.steps = executed_steps(tally.diverged_at, cfg.horizon)
    for t, tr in enumerate(tally.scalar):  # a differing divergence step is reported before any field
        at, div = -1 if tr.diverged_at is None else tr.diverged_at, int(tally.diverged_at[t])
        if at != div:
            tally.mismatch[t] = (f"scalar run_trial of trial {t} diverges at step {at}, "
                                 f"its recorded lane at {div} (-1: never)")
    tally.scalar = []
    return tally


def check_tracker_equality(
    cfg: ExperimentConfig, trace_cols: dict[str, np.ndarray] | None = None, recorded: ExactPass | None = None
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

    # record_exact audited every trial of the recorded pass, and compared
    # the first ones with their scalar reruns
    if recorded.mismatch:
        return CheckResult("tracker_equality", False, recorded.mismatch[min(recorded.mismatch)])
    trials, n_div = len(recorded.steps), int((recorded.diverged_at >= 0).sum())
    examined = f"{trials} trials x {cfg.horizon} steps"
    if n_div:  # a diverged trial's lane ends at its divergence step
        examined = f"{trials} trials ({n_div} diverged), {int(recorded.steps.sum())} executed steps"
    return CheckResult("tracker_equality", True, f"{examined} replayed from their symbols, trackers bit-identical")


def _scalar_mismatch(tr: Trace, rows: dict[str, np.ndarray], b0: int, t: int) -> str:
    """Where run_trial's trace of trial t first differs, bit for bit, from lane t of a block of rows from step
    b0 ("" if nowhere)."""
    found = []  # (step, field order, field) of each field's first difference; X_n enters step n
    for order, f in enumerate(("X", "symbol", "normal", "M", "I", "rho", "U", "A", "W")):
        col = getattr(tr, f)[b0:b0 + rows[f].shape[1]].astype(float)
        bad = col.view(np.int64) != rows[f][t, :len(col)].astype(float).view(np.int64)
        if bad.any():
            found.append((int(np.argmax(bad)), order, f))
    if not found:
        return ""
    n, _, f = min(found)
    return (f"scalar run_trial differs from recorded trial {t} at step {b0 + n}: "
            f"{f}={getattr(tr, f)[b0 + n].item()!r}, recorded {rows[f][t, n].item()!r}")


def check_containment(cfg: ExperimentConfig, recorded: ExactPass) -> CheckResult:
    """rho*X_n in [M_n - 2 I_n, M_n] at every normal step a trial executed, tallied by the streamed pass."""
    counts = f"{recorded.normal - recorded.floored} unfloored, {recorded.floored} floored at M0"
    if recorded.violations:
        return CheckResult("containment", False, f"{recorded.violations} violations / {recorded.normal} normal "
                           "steps ({}); first at trial {}, step {}".format(counts, *recorded.first))
    return CheckResult(
        "containment", True,
        f"0 violations over {recorded.normal} normal steps ({counts}; {len(recorded.steps)} trials)",
    )


def check_domination(cfg: ExperimentConfig, recorded: ExactPass) -> CheckResult:
    """|X_n| <= N_n at every executed step of the streamed pass's trials, tallied as it ran."""
    report = recorded.domination
    totals = report.to_dict()
    unbounded = f"; N overflowed to inf at {totals['unbounded']}" if totals["unbounded"] else ""
    if not totals["ok"]:
        first = totals["first_violations"][0]
        return CheckResult(
            "domination", False,
            f"{int(report.violations.sum())} violations / {totals['checked']}{unbounded}; "
            f"first at trial {first['trace']}, |X_{first['n0']}|={first['abs_x']!r} > N={first['N']!r}",
            report=report,
        )
    return CheckResult(
        "domination", True,
        f"|X_n| <= N_n at all {totals['checked']} executed steps of {len(report.steps)} trials "
        f"(max ratio {totals['max_ratio']:.3f}{unbounded})",
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
            recorded = record_exact(cfg, SCALAR_REPLAYS if "tracker_equality" in shared else 0)
        except ProtocolError as exc:
            done = {name: CheckResult(name, False, str(exc)) for name in shared}
        else:
            done = {name: checks[name](recorded) for name in shared}
    results = []
    for name in names:
        if name not in done:
            done[name] = checks[name](None)
        results.append(done[name])
    return results
