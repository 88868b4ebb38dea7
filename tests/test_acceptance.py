"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
measured numbers).  Reference system: gaussian gain (mean 1, stddev 0.5),
standard normal disturbance, tail order alpha = 4.5; strategy parameters
are the certified ones frozen in configs/reference.cfg.  The heavy-tail
variant swaps the gain for a Student-t(5) scaled to the same mean and
stddev.  Every ensemble is seed-pinned and therefore deterministic.

Criteria 2, 4 and 10 are structural (they hold for any parameters): they
are checked both on the certified reference ensemble and on an
uncertified, aggressively zooming configuration where roughly 30% of the
steps run in emergency mode, so the zoom-out machinery is genuinely
exercised.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zoomctl import analysis
from zoomctl.codec import StrategyParams, rate
from zoomctl.config import load_config
from zoomctl.distributions import moment_summary, moments
from zoomctl.harness import (
    FULL_RECORD_FIELDS,
    ExperimentConfig,
    Policy,
    run_experiment,
    run_recorded_bundle,
    trial_seed,
)
from zoomctl.loop import run_trial, validate_trace_columns

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# statistical scales shared by several criteria
DRIFT_TRIALS = 2000
DRIFT_HORIZON = 1500
DOMINATION_TRIALS = 100
DOMINATION_N0 = 1000


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS: {message}")


@pytest.fixture(scope="session")
def reference_cfg() -> ExperimentConfig:
    return load_config(CONFIG_DIR / "reference.cfg")


@pytest.fixture(scope="session")
def student_cfg() -> ExperimentConfig:
    return load_config(CONFIG_DIR / "reference_student_t.cfg")


@pytest.fixture(scope="session")
def static_cfg() -> ExperimentConfig:
    return load_config(CONFIG_DIR / "static_baseline.cfg")


@pytest.fixture(scope="session")
def emergency_cfg() -> ExperimentConfig:
    return load_config(CONFIG_DIR / "emergency_rich.cfg")


@pytest.fixture(scope="session")
def reference_run(reference_cfg):
    t0 = time.time()
    stats, _ = run_experiment(reference_cfg)
    return stats, time.time() - t0


@pytest.fixture(scope="session")
def student_run(student_cfg):
    stats, _ = run_experiment(student_cfg)
    return stats


def _recorded(cfg, trials, horizon):
    """X, M, I and the mode flags of the first ``trials`` trials."""
    sub = replace(cfg, trials=trials, horizon=horizon)
    rec, diverged_at = run_recorded_bundle(sub)
    assert not np.any(diverged_at >= 0), "recorded trials must not diverge"
    return rec


def _bundle(rec):
    return rec["M"], rec["I"], rec["normal"]


@pytest.fixture(scope="session")
def reference_rec(reference_cfg):
    return _recorded(reference_cfg, DRIFT_TRIALS, DRIFT_HORIZON)


@pytest.fixture(scope="session")
def student_rec(student_cfg):
    return _recorded(student_cfg, DRIFT_TRIALS, DRIFT_HORIZON)


@pytest.fixture(scope="session")
def emergency_rec(emergency_cfg):
    return _recorded(emergency_cfg, 300, DRIFT_HORIZON)


def _d_const(cfg) -> float:
    _, var_w = moments(cfg.w_spec)
    return 2.0 * var_w + (1.0 + cfg.params.K) * cfg.params.M0**2


def _check_domination(rec, params, seed) -> tuple[int, int, float]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5EED])))
    per_trace = DOMINATION_N0 // DOMINATION_TRIALS
    n0 = rng.integers(0, rec["M"].shape[1], size=(DOMINATION_TRIALS, per_trace))
    trace = np.repeat(np.arange(DOMINATION_TRIALS), per_trace)
    rep = analysis.domination_report(rec, trace, n0.ravel(), params)
    return rep.checked, len(rep.violations), rep.max_ratio


# --------------------------------------------------------------------------
# criterion 1: the certified strategy stabilizes the reference system
# --------------------------------------------------------------------------

def test_criterion_01_reference_stability(reference_cfg, reference_run):
    a_m = moment_summary(reference_cfg.a_spec, reference_cfg.alpha)
    w_m = moment_summary(reference_cfg.w_spec, reference_cfg.alpha)
    fr = analysis.feasibility(
        reference_cfg.params.c, reference_cfg.params, a_m, w_m, reference_cfg.alpha
    )
    assert fr.ok, "reference parameters must certify"
    stats, elapsed = reference_run
    assert stats.trials == 2000 and stats.horizon == 10_000
    assert stats.verdict == "stable"
    assert stats.diverged_count == 0
    assert 0.5 <= stats.window_ratio <= 1.5
    assert stats.emergency_fraction < 0.05
    report(
        1,
        f"verdict=stable, diverged=0/2000, window_ratio={stats.window_ratio:.4f}, "
        f"ensemble runtime {elapsed:.1f}s (target 300s)",
    )


# --------------------------------------------------------------------------
# criterion 2: domination |X_n0| <= N_n0, exact, zero violations
# --------------------------------------------------------------------------

def test_criterion_02_domination(reference_cfg, reference_rec):
    checked, violations, max_ratio = _check_domination(
        reference_rec, reference_cfg.params, reference_cfg.master_seed
    )
    assert checked == DOMINATION_N0
    assert violations == 0
    report(2, f"{checked} freeze points, 0 violations (max |X|/N = {max_ratio:.4f})")


def test_criterion_02_domination_zoom_heavy(emergency_cfg, emergency_rec):
    checked, violations, max_ratio = _check_domination(
        emergency_rec, emergency_cfg.params, emergency_cfg.master_seed
    )
    assert violations == 0
    report(2, f"zoom-heavy supplement: {checked} freeze points, 0 violations "
              f"(max |X|/N = {max_ratio:.4f})")


# --------------------------------------------------------------------------
# criterion 3: drift contraction and cap on E[N^2]
# --------------------------------------------------------------------------

def test_criterion_03_drift(reference_cfg, reference_rec):
    d_const = _d_const(reference_cfg)
    rep = analysis.drift_estimate(
        *_bundle(reference_rec), reference_cfg.params.K, reference_cfg.params.c, d_const
    )
    assert rep.num_traces >= 2000
    assert rep.flagged == []
    assert rep.cap_violations == []
    assert rep.mean_nsq[0] == (1.0 + reference_cfg.params.K) * reference_cfg.params.M0**2
    report(
        3,
        f"{rep.num_traces} traces x {rep.n_checked} indices: 0 step flags, 0 cap "
        f"violations (max mean N^2 = {rep.mean_nsq.max():.3f} vs cap {rep.cap:.1f})",
    )


# --------------------------------------------------------------------------
# criterion 4: exact halving of N during zoom-out
# --------------------------------------------------------------------------

def test_criterion_04_emergency_halving(reference_cfg, reference_rec,
                                        emergency_cfg, emergency_rec):
    rep_ref = analysis.check_emergency_halving(*_bundle(reference_rec), reference_cfg.params.K)
    assert rep_ref.ok
    rep_em = analysis.check_emergency_halving(*_bundle(emergency_rec), emergency_cfg.params.K)
    assert rep_em.ok
    assert rep_em.emergency_pairs > 10_000, "the supplement must exercise zoom-out"
    report(
        4,
        f"N halves exactly at every in-round step: reference "
        f"{rep_ref.emergency_pairs} pairs, zoom-heavy {rep_em.emergency_pairs} pairs, "
        "0 violations",
    )


# --------------------------------------------------------------------------
# criterion 5: oracle equivalence for the idealized policies
# --------------------------------------------------------------------------

def test_criterion_05_oracle_equivalence(reference_cfg):
    mu_a, var_a = moments(reference_cfg.a_spec)
    mu_w, var_w = moments(reference_cfg.w_spec)
    a_m, w_m = (mu_a, math.sqrt(var_a)), (mu_w, math.sqrt(var_w))

    zero_cfg = replace(reference_cfg, policy=Policy.zero(), horizon=20, trials=3000)
    stats_z, _ = run_experiment(zero_cfg, envelope=False)
    oracle = analysis.moment_recursion_curve("zero_control", a_m, w_m, 20)
    se = analysis.oracle_mean_stderr(
        "zero_control", reference_cfg.a_spec, reference_cfg.w_spec, 20, zero_cfg.trials
    )
    worst = float(np.max(np.abs(stats_z.curve_mean - oracle) / np.where(se > 0, 3 * se, 1.0)))
    assert np.all(np.abs(stats_z.curve_mean - oracle) <= 3.0 * se)

    perfect_cfg = replace(
        reference_cfg, policy=Policy.perfect(), horizon=10_000, trials=10_000,
        master_seed=reference_cfg.master_seed + 12,
    )
    stats_p, _ = run_experiment(perfect_cfg, envelope=False)
    plateau = var_w / (1.0 - var_a)
    rel = abs(stats_p.curve_mean[-1] - plateau) / plateau
    assert plateau == pytest.approx(4.0 / 3.0)
    assert rel <= 0.05
    report(
        5,
        f"zero_control within 3 exact se for n<=20 (worst {worst:.2f} of band); "
        f"perfect_observation mean at n=1e4 within {rel:.2%} of 4/3",
    )


# --------------------------------------------------------------------------
# criterion 6: static quantizer with the same symbol budget fails
# --------------------------------------------------------------------------

def test_criterion_06_static_failure(reference_cfg, reference_run, static_cfg):
    assert static_cfg.params.L == reference_cfg.params.L, "same symbol budget"
    stats_s, _ = run_experiment(static_cfg, envelope=False)
    assert stats_s.verdict == "unstable"
    _, terminal_static = stats_s.terminal_mean()
    stats_a, _ = reference_run
    _, terminal_adaptive = stats_a.terminal_mean()
    assert terminal_static >= 10.0 * terminal_adaptive
    report(
        6,
        f"static verdict=unstable (ratio {stats_s.window_ratio:.1f}); terminal mean "
        f"{terminal_static:.1f} vs adaptive {terminal_adaptive:.2f} "
        f"({terminal_static / terminal_adaptive:.0f}x)",
    )


# --------------------------------------------------------------------------
# criterion 7: encoder and controller trackers are bit-identical
# --------------------------------------------------------------------------

def test_criterion_07_common_knowledge(reference_cfg, emergency_cfg):
    # the scalar loop maintains both trackers and compares exactly per step;
    # replaying the symbol stream must reproduce the recorded tracker columns
    for cfg, horizon in ((reference_cfg, 1000), (emergency_cfg, 1000)):
        mu_a, mu_w = moments(cfg.a_spec)[0], moments(cfg.w_spec)[0]
        for t in range(50):
            tr = run_trial(cfg.a_spec, cfg.w_spec, cfg.params, horizon, trial_seed(cfg.master_seed, t))
            assert validate_trace_columns(vars(tr), cfg.params, mu_a, mu_w).ok
    report(7, "100 seeded trials (2 configs x 50): trackers bit-identical at every step")


# --------------------------------------------------------------------------
# criterion 8: rate contract
# --------------------------------------------------------------------------

def test_criterion_08_rate_contract(emergency_cfg):
    for L, want in ((1, 2), (2, 3), (4, 4), (8, 5), (16, 6)):
        params = StrategyParams(L=L, P=2.0, M0=0.1, K=8.0, c=0.2)
        assert rate(params) == want
        assert params.num_symbols == 2 * L + 1
        cfg = replace(emergency_cfg, params=params, trials=20, horizon=500)
        rec, _ = run_recorded_bundle(cfg, fields=FULL_RECORD_FIELDS)
        syms = rec["symbol"]
        assert np.all(syms >= 0)
        assert np.all(syms <= 2 * L)
        assert np.any(syms == 2 * L), "zoom-out codeword must occur in this config"
    report(8, "emitted symbols always in [0, 2L]; R = ceil(log2(2L+1)) for L in {1,2,4,8,16}")


# --------------------------------------------------------------------------
# criterion 9: heavy-tailed gain (Student-t, dof 5) passes criteria 1-4
# --------------------------------------------------------------------------

def test_criterion_09_student_t(student_cfg, student_run, student_rec):
    mu_a, var_a = moments(student_cfg.a_spec)
    assert (mu_a, var_a) == (1.0, pytest.approx(0.25))
    a_m = moment_summary(student_cfg.a_spec, student_cfg.alpha)
    w_m = moment_summary(student_cfg.w_spec, student_cfg.alpha)
    fr = analysis.feasibility(student_cfg.params.c, student_cfg.params, a_m, w_m, student_cfg.alpha)
    assert fr.ok

    stats = student_run
    assert stats.verdict == "stable"
    assert stats.diverged_count == 0
    assert 0.5 <= stats.window_ratio <= 1.5

    checked, violations, _ = _check_domination(
        student_rec, student_cfg.params, student_cfg.master_seed
    )
    assert checked == DOMINATION_N0 and violations == 0

    rep = analysis.drift_estimate(
        *_bundle(student_rec), student_cfg.params.K, student_cfg.params.c, _d_const(student_cfg)
    )
    assert rep.flagged == [] and rep.cap_violations == []

    halving = analysis.check_emergency_halving(*_bundle(student_rec), student_cfg.params.K)
    assert halving.ok
    report(
        9,
        f"student-t gain: stable (ratio {stats.window_ratio:.3f}), domination 0/{checked}, "
        f"drift clean over {rep.n_checked} indices, halving clean",
    )


# --------------------------------------------------------------------------
# criterion 10: containment in the canonical interval at unclamped steps
# --------------------------------------------------------------------------

def _containment_violations(cfg, trials, horizon):
    sub = replace(cfg, trials=trials, horizon=horizon)
    rec, diverged_at = run_recorded_bundle(sub, fields=FULL_RECORD_FIELDS)
    assert not np.any(diverged_at >= 0)
    eligible = rec["normal"] & ~rec["clamped"]
    x = rec["X"][:, :horizon]
    rx = rec["rho"] * x
    bad = eligible & ((rx < rec["M"] - 2.0 * rec["I"]) | (rx > rec["M"]))
    return int(bad.sum()), int(eligible.sum())


def test_criterion_10_containment(reference_cfg, emergency_cfg):
    bad_ref, n_ref = _containment_violations(reference_cfg, 100, 1500)
    assert bad_ref == 0
    bad_em, n_em = _containment_violations(emergency_cfg, 100, 1500)
    assert bad_em == 0
    assert n_em > 0
    report(
        10,
        f"X_n in rho*[M-2I, M] at every unclamped normal step: reference {n_ref} steps, "
        f"zoom-heavy {n_em} steps, 0 violations",
    )
