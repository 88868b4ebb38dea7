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

The three exact checks share one stream of the first min(trials,
EXACT_TRIALS) trials' block rows (``ExactPass``).  Each block's lanes, like
a trace file, go through the one lane audit, ``loop.validate_trace_columns``:
the controller replayed from the symbols against the recorded normal flag,
M, I, rho and U, the plant X' = A*X + W - U, and the encoder's symbol for
each X_n.  A failed audit fails every requested exact check.  Containment
and domination are tallied per block, and a digest of each block of the
first SCALAR_REPLAYS lanes is kept.  For tracker_equality those trials are
rerun through the scalar ``run_trial``, an independent encoder, one at a
time once the engine passes are done, and each block of a rerun is compared
with its lane's, bit for bit through the digest, all nine fields; a
difference is located in the lane recorded again alone.  So no Trace spans
the horizon while an engine pass runs.  Drift reads trials x min(horizon,
DRIFT_HORIZON_CAP) steps through the engine's one N^2 accumulator per trial
group (``analysis.EnvelopeMoments``), which gathers its statistics and the
halving check (``harness.envelope_moments``); oracle_match reads two
oracle-policy ensembles.  ``run_ensembles`` runs every ensemble that shares
a horizon in one engine pass over the same noise draws, each as a lane
slice (``harness.run_lanes``): the exact checks' lanes lead drift's adaptive
slice, or ride beside perfect_observation's, and a capped drift pass and
zero_control's 20 steps, over other draws, run apart.

``run_checks`` checks its inputs before any ensemble runs: the check names,
each once, a trace file only with tracker_equality, the adaptive policy
every tracker check needs, trace replay included (oracle_match swaps the
policy itself), drift's minimum number of trials, and oracle_match's laws:
a disturbance with third central moment 0, and finite fourth central
moments of gain and disturbance.  The trace file is read there too, so a
missing or malformed one, or one with no executed step, fails first.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from zoomctl import analysis
from zoomctl.analysis import dominating_at
from zoomctl.codec import ProtocolError
from zoomctl.config import ConfigError
from zoomctl.distributions import moments
from zoomctl.harness import (ExperimentConfig, LaneSlice, Policy, envelope_moments, executed_steps, extract_trace,
                             run_experiment, run_lanes, run_recorded_bundle, trial_seed)
from zoomctl.loop import Trace, read_trace_csv, run_trial, validate_trace_columns

CHECK_NAMES = ("tracker_equality", "containment", "domination", "drift", "oracle_match")
EXACT_CHECKS = ("tracker_equality", "containment", "domination")
TRACKER_CHECKS = EXACT_CHECKS + ("drift",)  # need the adaptive policy

# the exact checks' recording and drift's horizon are capped; documented in output
DRIFT_HORIZON_CAP = 2000
EXACT_TRIALS = 100  # trials in the exact checks' shared recorded pass
SCALAR_REPLAYS = 3  # trials tracker_equality repeats through run_trial
LANE_FIELDS = ("X", "symbol", "normal", "M", "I", "rho", "U", "A", "W")  # compared with the reruns, in this order
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
    domination at every executed step (``domination``); and keeps a digest
    of each block of the first ``replays`` lanes, which ``finish`` compares
    with their scalar reruns, keeping each trial's first difference
    (``mismatch``).
    """

    def __init__(self, cfg: ExperimentConfig, replays: int):
        self.cfg, self.mu = cfg, (moments(cfg.a_spec)[0], moments(cfg.w_spec)[0])
        self.blocks: list[tuple[int, int]] = []  # each block's (b0, nb)
        self.digests = [[] for _ in range(min(replays, cfg.trials))]  # the first lanes' block digests
        self.mismatch: dict[int, str] = {}  # trial -> where its scalar rerun first differs from its lane
        self.entering = None  # the tracker entering the next block
        self.failure: tuple[int, str] | None = None  # (trial, message)
        self.normal = self.floored = self.violations = 0
        self.first: tuple[int, int] | None = None
        self.domination = analysis.DominationReport(*np.zeros((3, cfg.trials), dtype=np.int64), np.zeros(cfg.trials))
        self.diverged_at = self.steps = None  # each trial's: its divergence step so far, its executed steps once done

    def __call__(self, b0: int, rows: dict[str, np.ndarray], diverged_at: np.ndarray) -> None:
        nb, self.diverged_at = rows["symbol"].shape[1], diverged_at
        reach = executed_steps(diverged_at, b0 + nb) - b0  # each lane's executed steps into the block
        steps = np.clip(reach, 0, nb)
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
        self.blocks.append((b0, nb))
        for t, digests in enumerate(self.digests):
            digests.append(_lane_digest({f: rows[f][t] for f in LANE_FIELDS}, reach[t]))

    def finish(self) -> "ExactPass":
        """Close the pass; a failed lane audit raises ProtocolError naming the lowest such trial, its first bad
        step and the field.  Then the first trials run through run_trial, one at a time, and each block of a
        rerun is compared, through its digest, with the block of the lane; a difference is located in the lane
        recorded again alone (``harness.extract_trace``)."""
        if self.failure:
            raise ProtocolError(self.failure[1])
        cfg, self.steps = self.cfg, executed_steps(self.diverged_at, self.cfg.horizon)
        for t, digests in enumerate(self.digests):
            try:
                tr = run_trial(cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon, trial_seed(cfg.master_seed, t))
            except ProtocolError as exc:
                self.mismatch[t] = str(exc)
                break
            if any(_lane_digest({f: getattr(tr, f)[b0:b0 + nb + (f == "X")] for f in LANE_FIELDS},
                                self.steps[t] - b0) != digest for (b0, nb), digest in zip(self.blocks, digests)):
                self.mismatch[t] = _scalar_mismatch(tr, extract_trace(cfg, t), t)
            at, div = -1 if tr.diverged_at is None else tr.diverged_at, int(self.diverged_at[t])
            if at != div:  # a differing divergence step is reported before any field
                self.mismatch[t] = (f"scalar run_trial of trial {t} diverges at step {at}, "
                                    f"its recorded lane at {div} (-1: never)")
        return self


def record_exact(cfg: ExperimentConfig, replays: int = SCALAR_REPLAYS) -> ExactPass:
    """The exact checks' pass alone, finished (``run_ensembles``, ``ExactPass.finish``)."""
    return run_ensembles(cfg, replays, False, False)["exact"].finish()


def run_ensembles(cfg: ExperimentConfig, replays: int | None, drift: bool, oracle: bool) -> dict:
    """Every ensemble the requested checks read, one engine pass (``harness.run_lanes``) per horizon: drift's
    adaptive chunk results ("drift"), the oracles' (by policy kind) and, unless ``replays`` is None, the exact
    checks' ``ExactPass`` ("exact"), which reruns its first ``replays`` trials through run_trial.

    The exact checks' lanes lead drift's slice when drift runs at the full
    horizon, else run as a slice of their own beside perfect_observation's.
    A trial's stream holds its horizon's gains before its disturbances, so
    zero_control's 20 steps and a capped drift pass draw other noise and run
    apart.
    """
    h, exact, passes, outs = cfg.horizon, min(cfg.trials, EXACT_TRIALS), {}, {}  # passes: horizon -> slices
    if drift:
        drifting = LaneSlice(Policy.adaptive(), cfg.trials, envelope=True, drift=True)
        passes[min(h, DRIFT_HORIZON_CAP)] = {"drift": drifting}
    if oracle:
        passes.setdefault(min(ORACLE_STEPS, h), {})["zero_control"] = LaneSlice(Policy.zero(), cfg.trials)
        passes.setdefault(h, {})["perfect_observation"] = LaneSlice(Policy.perfect(), cfg.trials)
    if replays is not None:
        tally = outs["exact"] = ExactPass(replace(cfg, trials=exact), replays)
        lanes = passes.setdefault(h, {})
        key = "drift" if "drift" in lanes else "recorded"
        lanes[key] = lanes.get(key, LaneSlice(Policy.adaptive(), exact))._replace(record=exact, consume=tally)
    for horizon, lanes in passes.items():
        if list(lanes) == ["recorded"]:  # the exact checks alone: a recording through their consumer
            run_recorded_bundle(tally.cfg, tally)
        else:
            outs.update(zip(lanes, run_lanes(replace(cfg, horizon=horizon), list(lanes.values()))))
    return outs


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


def _lane_digest(cols: dict[str, np.ndarray], reach: int) -> bytes:
    """A digest of a lane's block, as float64 bits: each field at the steps the lane executed, ``reach`` of
    them into the block (X to the state after them; nothing once the lane has stopped before the block)."""
    digest = hashlib.blake2b(digest_size=16)
    for f in LANE_FIELDS:
        digest.update(cols[f][:max(reach + (f == "X"), 0)].astype(float).tobytes())
    return digest.digest()


def _scalar_mismatch(tr: Trace, lane: Trace, t: int) -> str:
    """Where run_trial's trace of trial t first differs, bit for bit, from the engine's lane of it."""
    found = []  # (step, field order, field) of each field's first difference; X_n enters step n
    for order, f in enumerate(LANE_FIELDS):
        col, rec = getattr(tr, f).astype(float), getattr(lane, f).astype(float)
        bad = col[:len(rec)].view(np.int64) != rec[:len(col)].view(np.int64)
        if bad.any():
            found.append((int(np.argmax(bad)), order, f))
    if not found:  # the lane recorded alone agrees with the rerun: the streamed one did not
        return f"scalar run_trial differs from the streamed lane of trial {t}, not from the lane recorded alone"
    n, _, f = min(found)
    return (f"scalar run_trial differs from recorded trial {t} at step {n}: "
            f"{f}={getattr(tr, f)[n].item()!r}, recorded {getattr(lane, f)[n].item()!r}")


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


def check_drift(cfg: ExperimentConfig, outs: list | None = None) -> CheckResult:
    """Drift from ``outs``, its pass's chunk results (``run_ensembles``), else from a pass of its own."""
    horizon = min(cfg.horizon, DRIFT_HORIZON_CAP)
    stats, n_div = envelope_moments(replace(cfg, horizon=horizon), outs)
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


def check_oracle_match(cfg: ExperimentConfig, outs: dict | None = None) -> CheckResult:
    """The oracles from ``outs``, their chunk results by policy kind (``run_ensembles``), else their own."""
    mu_a, var_a = moments(cfg.a_spec)
    mu_w, var_w = moments(cfg.w_spec)
    a_m = (mu_a, math.sqrt(var_a))
    w_m = (mu_w, math.sqrt(var_w))
    problems = []

    steps, h = min(ORACLE_STEPS, cfg.horizon), cfg.horizon
    # zero_control at every n <= steps, then perfect_observation at the horizon
    for policy, horizon, indices in ((Policy.zero(), steps, range(steps + 1)), (Policy.perfect(), h, [h])):
        stats, _ = run_experiment(replace(cfg, policy=policy, horizon=horizon), outs=outs and outs[policy.kind])
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
        "drift": lambda rec: check_drift(cfg, outs.get("drift")),
        "oracle_match": lambda rec: check_oracle_match(cfg, outs),
    }
    shared = [n for n in tracked if n in EXACT_CHECKS and (n != "tracker_equality" or trace_cols is None)]
    outs = run_ensembles(cfg, (SCALAR_REPLAYS if "tracker_equality" in shared else 0) if shared else None,
                         "drift" in names, "oracle_match" in names)
    done = {}
    if shared:
        try:
            tally = outs["exact"].finish()
        except ProtocolError as exc:
            done = {name: CheckResult(name, False, str(exc)) for name in shared}
        else:
            done = {name: checks[name](tally) for name in shared}
    results = []
    for name in names:
        if name not in done:
            done[name] = checks[name](None)
        results.append(done[name])
    return results
