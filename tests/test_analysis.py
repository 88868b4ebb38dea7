import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zoomctl.analysis import (
    BoundDomainError,
    DominatingSeqError,
    MomentOrderError,
    UnstabilizableError,
    _nsq_from_tau,
    _tau_backward,
    check_emergency_halving,
    dominating_seq,
    domination_report,
    drift_estimate,
    envelope_squared,
    epsilon_bound,
    feasibility,
    freeze_arrays,
    min_zoom_factor,
    moment_recursion_curve,
    oracle_mean_stderr,
)
from zoomctl.codec import StrategyParams
from zoomctl.config import load_config
from zoomctl.distributions import DistributionSpec, moment_summary, moments
from zoomctl.harness import ExperimentConfig, Policy, run_recorded_bundle
from zoomctl.loop import run_trial

A_REF = DistributionSpec.gaussian(1.0, 0.5)
W_REF = DistributionSpec.gaussian(0.0, 1.0)
EMERGENCY_PARAMS = StrategyParams(L=8, P=2.0, M0=0.1, K=8.0, c=0.2)
UNIT_PARAMS = StrategyParams(L=2, P=2.0, M0=1.0, K=8.0, c=0.2)


def emergency_trial(horizon=2000, seed=42):
    return run_trial(A_REF, W_REF, EMERGENCY_PARAMS, horizon, seed)


def recorded(tr):
    """A scalar trace's executed steps as a one-trial recorded bundle."""
    steps = tr.steps
    return {"X": tr.X[None, : steps + 1], "M": tr.M[None, :steps], "I": tr.I[None, :steps],
            "normal": (tr.mode[:steps] == 0)[None]}


def point_n(x_abs, M, I, normal, params):
    """(N, J) at freeze points through freeze_arrays and dominating_seq."""
    x_abs, M, I, normal = (np.atleast_1d(np.asarray(v)) for v in (x_abs, M, I, normal))
    g, J = freeze_arrays(x_abs, M, normal, params.P)
    return dominating_seq(g, I, J, params.K), J


def frozen_n_by_definition(x_abs, m_prev, m, i, P, K):
    """(N_n0, tau - n0) from a frozen trace built step by step.

    From n0 on the state stays x_abs, I stays i, and the tracker, starting
    at M_{n0} = m, grows by P while below x_abs; tau is the first step whose
    guard |X| <= P * (tracker one step earlier) holds, M_{n0-1} = m_prev
    being the tracker before n0.
    """
    mt = [m_prev, m]  # the tracker at n0 - 1, n0, n0 + 1, ...
    while not x_abs <= P * mt[-2]:  # the guard of step n0 + len(mt) - 2
        mt.append(P * mt[-1] if x_abs > mt[-1] else mt[-1])
    j = len(mt) - 2
    q = np.float64(mt[-1])
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(q * q + K * (np.float64(i) * i)), j), j


# --- freeze -----------------------------------------------------------------

def test_freeze_grows_tracker_until_it_covers_the_state():
    g, J = freeze_arrays(np.array([10.0, 16.0, 16.5]), np.array([2.0, 2.0, 2.0]),
                         np.zeros(3, dtype=bool), 2.0)
    assert g.tolist() == [16.0, 16.0, 32.0]
    assert J.tolist() == [3, 3, 4]


def test_freeze_constant_when_state_already_covered():
    # a normal step passed its guard |X| <= P*M_{n0-1}: its round exits at
    # n0, whatever M_{n0} is
    g, J = freeze_arrays(np.array([0.5, 3.0]), np.array([1.0, 1.0]), np.ones(2, dtype=bool), 2.0)
    assert g.tolist() == [1.0, 1.0]
    assert J.tolist() == [0, 0]


def test_freeze_at_origin_is_trivial():
    tr = emergency_trial(200, 3)
    N, J = point_n(abs(tr.X[0]), tr.M[0], tr.I[0], tr.mode[0] == 0, EMERGENCY_PARAMS)
    assert tr.X[0] == 0.0 and J.tolist() == [0]
    assert N[0] == math.sqrt(tr.M[0] ** 2 + EMERGENCY_PARAMS.K * tr.I[0] ** 2)


# --- dominating sequence ------------------------------------------------------

def test_all_normal_segment_has_tau_identity():
    M = np.array([1.0, 2.0, 0.5, 3.0])
    I = np.array([1.0, 0.25, 0.5, 1.5])
    N, J = point_n(M, M, I, np.ones(4, dtype=bool), UNIT_PARAMS)
    assert J.tolist() == [0, 0, 0, 0]
    assert N.tobytes() == np.sqrt(M**2 + UNIT_PARAMS.K * I**2).tobytes()
    assert _tau_backward(np.ones(4, dtype=bool)).tolist() == [0, 1, 2, 3]


def test_q_value_example():
    assert dominating_seq(np.array([1.0]), np.array([1.0]), np.array([0]), 8.0).tolist() == [3.0]


def test_emergency_span_tau_and_n():
    # M_{n0-1} = 1, so the zoom-out step has M_{n0} = 2 < 30; frozen, the
    # tracker grows 2 -> 4 -> 8 -> 16 -> 32 and the guard 30 <= 2*16 holds
    # four steps on: N_{n0} = 2^4 Q with Q = sqrt(32^2 + K*1^2)
    params = UNIT_PARAMS
    N, J = point_n(30.0, 2.0, 1.0, False, params)
    assert J.tolist() == [4]
    assert N[0] == math.sqrt(32.0**2 + params.K) * 16.0
    assert (N[0], 4) == frozen_n_by_definition(30.0, 1.0, 2.0, 1.0, params.P, params.K)
    # the recorded round of the same shape: three zoom-out steps, then normal
    tau = _tau_backward(np.array([True, True, False, False, False, True]))
    assert tau.tolist() == [0, 1, 5, 5, 5, 5]
    assert np.all(tau[tau] == tau)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_tau_idempotent_on_simulated_traces(seed):
    tr = emergency_trial(400, seed)
    assert not tr.diverged
    tau = _tau_backward(tr.mode[: tr.steps] == 0)
    resolved = tau >= 0
    assert resolved.all() == (tr.mode[tr.steps - 1] == 0)
    assert np.all(tau[resolved] >= np.flatnonzero(resolved))
    assert np.all(tau[tau[resolved]] == tau[resolved])


ZOOM_FACTORS = (1.001, 1.3, 2.0, 1e13, 1e300)


@st.composite
def freeze_points(draw):
    """(|X_n0|, M_{n0-1}, M_n0, I_n0, normal, P) as the engine records them."""
    P = draw(st.sampled_from(ZOOM_FACTORS))
    # the live range P*M_{n0-1} is finite
    m_prev = 10.0 ** draw(st.floats(-300.0, 308.0 - math.log10(P)))
    lim = P * m_prev
    i = 10.0 ** draw(st.floats(-300.0, 300.0))
    if draw(st.booleans()):  # normal: the guard holds, M_n0 comes from the cell
        return lim * draw(st.floats(0.0, 1.0)), m_prev, 10.0 ** draw(st.floats(-300.0, 300.0)), i, True, P
    # zoom-out: M_n0 = P*M_{n0-1} < |X_n0| < inf; at P = 1.001 the round
    # lasts at most some ten thousand steps
    span = min(4.0 if P < 1.01 else 300.0, math.log10(sys.float_info.max / lim))
    x = lim * 10.0 ** (span * draw(st.floats(1e-6, 1.0)))
    assume(lim < x < math.inf)
    return x, m_prev, lim, i, False, P


@settings(max_examples=300, deadline=None)
@given(st.lists(freeze_points(), min_size=1, max_size=6))
def test_point_form_matches_frozen_trace(points):
    for P in ZOOM_FACTORS:
        pts = [pt for pt in points if pt[5] == P]
        if not pts:
            continue
        x, m_prev, m, i, normal, _ = map(np.array, zip(*pts))
        params = replace(UNIT_PARAMS, P=P)
        N, J = point_n(x, m, i, normal, params)
        expected = [frozen_n_by_definition(*pt[:4], P, params.K) for pt in pts]
        assert J.tolist() == [j for _, j in expected]
        assert N.tobytes() == np.array([n for n, _ in expected]).tobytes()
        assert np.all(J[normal] == 0) and np.all(J[~normal] >= 1)


def _tau_by_definition(row):
    """min{m >= n : row[m]} for each n, or -1 where no such m exists."""
    return [next((m for m in range(n, len(row)) if row[m]), -1) for n in range(len(row))]


def _guard_rows(width):
    return st.one_of(
        st.just([True] * width),
        st.just([False] * width),
        st.lists(st.booleans(), min_size=width, max_size=width),
        # a resolved prefix followed by an unresolved (all-False) suffix
        st.integers(0, width).flatmap(
            lambda k: st.lists(st.booleans(), min_size=k, max_size=k).map(
                lambda head: head + [False] * (width - k)
            )
        ),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(_guard_rows))
def test_tau_backward_matches_definition_1d(row):
    tau = _tau_backward(np.array(row, dtype=bool))
    assert tau.dtype == np.int64
    assert tau.tolist() == _tau_by_definition(row)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 25).flatmap(lambda w: st.lists(_guard_rows(w), min_size=1, max_size=6)))
def test_tau_backward_matches_definition_2d(rows):
    tau = _tau_backward(np.array(rows, dtype=bool))
    assert tau.shape == (len(rows), len(rows[0]))
    assert tau.tolist() == [_tau_by_definition(r) for r in rows]


@pytest.mark.parametrize("seed", [7171, 3, 11])
def test_envelope_matches_definition_on_emergency_bundles(seed):
    cfg = load_config(
        Path(__file__).resolve().parent.parent / "configs" / "emergency_rich.cfg",
        ["trials=40", "horizon=600", f"seed={seed}"],
    )
    rec, div = run_recorded_bundle(cfg)
    assert not np.any(div >= 0)
    bundle = rec["M"], rec["I"], rec["normal"]
    K = cfg.params.K
    nsq, h = envelope_squared(*bundle, K)

    taus = np.array([_tau_by_definition(row) for row in rec["normal"].tolist()])
    resolved = (taus >= 0).sum(axis=1)
    assert resolved.min() < cfg.horizon  # some trace ends inside a round
    assert h == resolved.min()
    qsq = rec["M"] ** 2 + K * rec["I"] ** 2
    expected = np.empty((cfg.trials, h))
    for t in range(cfg.trials):
        tau = taus[t, :h]
        expected[t] = np.ldexp(qsq[t, tau], 2 * (tau - np.arange(h)))
    assert nsq.shape == expected.shape
    assert nsq.tobytes() == expected.tobytes()


def test_envelope_all_normal_fast_path_matches_tau_path():
    # tracker values over most of float64's range, every step normal
    rng = np.random.default_rng(3)
    M, I = (10.0 ** rng.uniform(-150, 150, size=(6, 50)) for _ in range(2))
    normal = np.ones((6, 50), dtype=bool)
    nsq, h = envelope_squared(M, I, normal, 8.0)
    assert h == 50
    assert nsq.tobytes() == _nsq_from_tau(M, I, 8.0, _tau_backward(normal)).tobytes()


def test_domination_exact_on_simulated_traces():
    tr = emergency_trial(2000, 77)
    n0 = np.random.default_rng(1).integers(0, tr.steps, 300)
    rep = domination_report(recorded(tr), np.zeros(300, dtype=np.int64), n0, EMERGENCY_PARAMS)
    assert rep.ok
    assert rep.checked == 300
    assert rep.max_ratio <= 1.0
    assert rep.unbounded == 0
    zoom = tr.mode[n0] == 1
    assert 0 < zoom.sum() < 300
    # each point's N from a frozen trace built step by step
    expected = [frozen_n_by_definition(abs(tr.X[n]), tr.M[n - 1] if n else EMERGENCY_PARAMS.M0, tr.M[n],
                                       tr.I[n], EMERGENCY_PARAMS.P, EMERGENCY_PARAMS.K)[0] for n in n0]
    assert rep.N.tobytes() == np.array(expected).tobytes()


def test_halving_exact_during_emergencies():
    cfg = ExperimentConfig(
        a_spec=A_REF, w_spec=W_REF, params=EMERGENCY_PARAMS, policy=Policy.adaptive(),
        horizon=1500, trials=150, master_seed=5, alpha=4.5,
    )
    rec, div = run_recorded_bundle(cfg)
    assert not np.any(div >= 0)
    bundle = rec["M"], rec["I"], rec["normal"]
    rep = check_emergency_halving(*bundle, EMERGENCY_PARAMS.K)
    assert rep.emergency_pairs > 1000
    assert rep.ok


def test_envelope_requires_resolution():
    # a trace that never leaves emergency mode has no resolved tau
    with pytest.raises(DominatingSeqError):
        envelope_squared(np.ones((1, 3)), np.ones((1, 3)), np.zeros((1, 3), dtype=bool), 1.0)


# --- drift -------------------------------------------------------------------

def certified_bundle(trials=150, horizon=800, seed=11):
    params = StrategyParams(L=200_000_000_000_000, P=1e13, M0=1.0, K=2.0, c=0.2)
    cfg = ExperimentConfig(
        a_spec=A_REF, w_spec=W_REF, params=params, policy=Policy.adaptive(),
        horizon=horizon, trials=trials, master_seed=seed, alpha=4.5,
    )
    rec, div = run_recorded_bundle(cfg)
    assert not np.any(div >= 0)
    return (rec["M"], rec["I"], rec["normal"]), params


def test_drift_holds_for_certified_params():
    bundle, params = certified_bundle()
    d_const = 2.0 + (1.0 + params.K) * params.M0**2
    rep = drift_estimate(*bundle, params.K, params.c, d_const)
    assert rep.ok
    assert rep.flagged == [] and rep.cap_violations == []
    # the initial envelope is deterministic: N_0^2 = (1+K) M0^2 exactly
    assert rep.mean_nsq[0] == (1.0 + params.K) * params.M0**2
    assert rep.stderr_nsq[0] == 0.0


def test_drift_requires_enough_traces():
    bundle, params = certified_bundle(trials=50, horizon=100)
    with pytest.raises(ValueError, match="at least 100"):
        drift_estimate(*bundle, params.K, params.c, 5.0)


def test_drift_report_serialization(tmp_path):
    bundle, params = certified_bundle(trials=120, horizon=200)
    rep = drift_estimate(*bundle, params.K, params.c, 5.0)
    rep.to_json(tmp_path / "drift.json")
    rep.to_csv(tmp_path / "drift.csv")
    import json

    payload = json.loads((tmp_path / "drift.json").read_text())
    assert payload["ok"] is True
    lines = (tmp_path / "drift.csv").read_text().splitlines()
    assert lines[0] == "n,mean_Nsq,stderr_Nsq,step_excess,step_stderr"
    assert len(lines) == rep.n_checked + 1


def cuts(data, lo, hi, n):
    """Sorted cut points lo < ... < hi splitting [lo, hi) into at most n pieces."""
    inner = data.draw(st.lists(st.integers(lo + 1, hi - 1), max_size=n - 1, unique=True)) if hi - lo > 1 else []
    return [lo, *sorted(inner), hi]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_envelope_moments_match_two_pass_over_any_split(data):
    from zoomctl.analysis import EnvelopeMoments

    T, h, c, D = data.draw(st.integers(2, 24)), data.draw(st.integers(1, 20)), 0.2, 3.0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nsq = rng.exponential(size=(T, h)) * 10.0 ** rng.integers(-2, 3, size=(T, 1))
    inside = rng.random((T, h)) < 0.5
    for t, n in zip(*np.nonzero(inside[:, :-1] & (rng.random((T, h - 1)) < 0.7))):
        nsq[t, n + 1] = nsq[t, n] / 4.0  # most emergency pairs halve exactly
    # trial groups, each resolving its own prefix of columns, fed in batches
    groups, bounds = [], cuts(data, 0, T, 4)
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        acc = EnvelopeMoments.sized(g1 - g0, h, c, g0)
        batches = cuts(data, 0, data.draw(st.integers(1, h)), 5)
        for a, b in zip(batches[:-1], batches[1:]):
            flags = inside[g0:g1, a:b]
            acc.add(nsq[g0:g1, a:b], ~flags if flags.any() else None)
        groups.append(acc)
    r = min(g.resolved for g in groups)
    merged = functools.reduce(EnvelopeMoments.merge, groups)
    got, halving = merged.drift_report(D), merged.halving_report()

    x = nsq[:, :r]
    d = x[:, 1:] - (1.0 - c) * x[:, :-1]
    mean, step_mean = x.mean(axis=0), d.mean(axis=0)
    se, step_se = x.std(axis=0, ddof=1) / math.sqrt(T), d.std(axis=0, ddof=1) / math.sqrt(T)
    assert (got.num_traces, got.n_checked) == (T, r)
    scale = np.abs(x).max(axis=0)
    for value, want, size in [(got.mean_nsq, mean, scale), (got.stderr_nsq, se, scale),
                              (got.step_excess + D, step_mean, scale[1:]), (got.step_stderr, step_se, scale[1:])]:
        assert np.all(np.abs(value - want) <= 1e-12 * np.maximum(np.abs(want), size))
    assert got.flagged == np.flatnonzero(step_mean > D + 3.0 * step_se).tolist()
    assert got.cap_violations == np.flatnonzero(mean > D / c * (1.0 + 3.0 * se / mean)).tolist()
    pairs = inside[:, :r - 1]
    bad = pairs & (x[:, 1:] != x[:, :-1] / 4.0)
    assert halving.emergency_pairs == int(pairs.sum())
    assert halving.violations == [(int(t), int(n), math.sqrt(x[t, n]), math.sqrt(x[t, n + 1]))
                                  for t, n in zip(*np.nonzero(bad))]


# --- feasibility ---------------------------------------------------------------

def summaries(a_spec=A_REF, w_spec=W_REF, alpha=4.5):
    return moment_summary(a_spec, alpha), moment_summary(w_spec, alpha)


def test_feasibility_margin_example():
    # sigma_A=0.5, mu_A=1, c=0.2, K=2, P=10, delta=1e-4
    params = StrategyParams(L=10_000, P=10.0, M0=1.0, K=2.0, c=0.2)
    a_m, w_m = summaries()
    rep = feasibility(0.2, params, a_m, w_m, 4.5)
    assert rep.margin_drift == pytest.approx(0.545, abs=5e-4)
    assert rep.drift_ok
    assert rep.margin_K == pytest.approx(0.6)


def test_feasibility_constants_example():
    # sigma_W=1, K=2, M0=1, c=0.2 -> D = 5, C = 25
    params = StrategyParams(L=10_000, P=10.0, M0=1.0, K=2.0, c=0.2)
    a_m, w_m = summaries()
    rep = feasibility(0.2, params, a_m, w_m, 4.5)
    assert rep.D == 5.0
    assert rep.C == 25.0
    assert rep.R == 15  # 20001 symbols


def test_feasibility_unstabilizable():
    a_bad = DistributionSpec.gaussian(1.0, 1.1)
    a_m, w_m = summaries(a_spec=a_bad)
    params = StrategyParams(L=4, P=2.0, M0=1.0, K=2.0, c=0.2)
    with pytest.raises(UnstabilizableError, match="not second-moment stabilizable"):
        feasibility(0.2, params, a_m, w_m, 4.5)


def test_feasibility_requires_alpha_above_four():
    a_m, w_m = summaries(alpha=4.0)
    params = StrategyParams(L=4, P=2.0, M0=1.0, K=2.0, c=0.2)
    with pytest.raises(MomentOrderError):
        feasibility(0.2, params, a_m, w_m, 4.0)


def test_feasibility_negative_margin_for_coarse_codebook():
    params = StrategyParams(L=1, P=100.0, M0=1.0, K=2.0, c=0.2)
    a_m, w_m = summaries()
    rep = feasibility(0.2, params, a_m, w_m, 4.5)
    assert rep.margin_drift < 0
    assert not rep.ok


def test_feasibility_certified_reference():
    params = StrategyParams(L=200_000_000_000_000, P=1e13, M0=1.0, K=2.0, c=0.2)
    a_m, w_m = summaries()
    rep = feasibility(0.2, params, a_m, w_m, 4.5)
    assert rep.ok
    assert rep.R == 49
    assert rep.c + rep.epsilon_estimate < min(1.0 - rep.sigma_A**2, 0.75)


@settings(max_examples=60, deadline=None)
@given(
    l1=st.integers(1, 10**6),
    factor=st.integers(2, 100),
    p=st.floats(1.01, 1e4),
    k=st.floats(0.1, 50.0),
    c=st.floats(0.01, 0.74),
)
def test_margin_drift_monotone_in_codebook_size(l1, factor, p, k, c):
    a_m, w_m = summaries()
    p1 = StrategyParams(L=l1, P=p, M0=1.0, K=k, c=c)
    p2 = StrategyParams(L=l1 * factor, P=p, M0=1.0, K=k, c=c)
    r1 = feasibility(c, p1, a_m, w_m, 4.5)
    r2 = feasibility(c, p2, a_m, w_m, 4.5)
    assert r2.margin_drift >= r1.margin_drift


# --- zoom-out tail bound --------------------------------------------------------

M_ALPHA = 34.462427155686235  # E[(|A|+1)^4.5] for the reference gain
ELL_ALPHA = 4.316439532977922  # E[|W|^4.5] for the standard normal


def test_epsilon_bound_decreasing_in_p():
    vals = [epsilon_bound(p, 1.0, 4.5, M_ALPHA, ELL_ALPHA) for p in (10.0, 100.0, 1e4, 1e8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_epsilon_bound_vanishes_for_large_p():
    assert epsilon_bound(1e30, 1.0, 4.5, M_ALPHA, ELL_ALPHA) < 1e-8


def test_epsilon_bound_domain_errors():
    with pytest.raises(MomentOrderError):
        epsilon_bound(10.0, 1.0, 4.0, M_ALPHA, ELL_ALPHA)
    with pytest.raises(BoundDomainError, match="M0 >= 1"):
        epsilon_bound(10.0, 0.5, 4.5, M_ALPHA, ELL_ALPHA)
    with pytest.raises(BoundDomainError, match="increase P or M0"):
        epsilon_bound(1.01, 1.0, 4.5, 1e9, ELL_ALPHA)


def test_min_zoom_factor_search():
    # the numeric search example: M0 = 4, target 0.05
    a_m, w_m = summaries()
    p_star = min_zoom_factor(4.0, 4.5, a_m.shifted_abs_moment_alpha, w_m.abs_moment_alpha, 0.05)
    assert epsilon_bound(p_star, 4.0, 4.5, a_m.shifted_abs_moment_alpha, w_m.abs_moment_alpha) < 0.05
    assert (
        epsilon_bound(p_star / 1.1, 4.0, 4.5, a_m.shifted_abs_moment_alpha, w_m.abs_moment_alpha)
        >= 0.05
    )


# --- closed-form oracles ---------------------------------------------------------

def test_oracle_zero_control_two_steps():
    # mu_A=1, sigma_A=0.5, sigma_W=1: E_1 = 1, E_2 = 1.25 + 1 = 2.25
    curve = moment_recursion_curve("zero_control", (1.0, 0.5), (0.0, 1.0), 2)
    assert curve.tolist() == [0.0, 1.0, 2.25]


def test_oracle_perfect_observation_fixed_point():
    val = moment_recursion_curve("perfect_observation", (1.0, 0.5), (0.0, 1.0), 200)[-1]
    assert val == pytest.approx(4.0 / 3.0, rel=1e-9)


@pytest.mark.parametrize("name", ["reference", "reference_student_t", "static_baseline", "emergency_rich"])
def test_oracle_equals_the_plateau_from_step_1000(name):
    # so oracle_match's z-test at n = horizon >= 1000 compares the mean
    # with the plateau Var(W) / (1 - Var(A)) itself
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg")
    (mu_a, var_a), (mu_w, var_w) = moments(cfg.a_spec), moments(cfg.w_spec)
    curve = moment_recursion_curve(
        "perfect_observation", (mu_a, math.sqrt(var_a)), (mu_w, math.sqrt(var_w)), cfg.horizon)
    assert cfg.horizon >= 1000
    assert np.all(curve[1000:] == var_w / (1.0 - var_a))


def test_oracle_initial_state():
    for policy in ("zero_control", "perfect_observation"):
        assert moment_recursion_curve(policy, (1.0, 0.5), (0.0, 1.0), 0).tolist() == [0.0]


def test_oracle_rejects_unknown_policy():
    with pytest.raises(ValueError):
        moment_recursion_curve("adaptive", (1.0, 0.5), (0.0, 1.0), 3)


def test_oracle_stderr_matches_empirical_spread():
    # empirical X^2 variance of the zero_control ensemble vs the exact recursion
    rng = np.random.Generator(np.random.PCG64(1))
    trials, n = 200_000, 5
    x = np.zeros(trials)
    for _ in range(n):
        x = (1.0 + 0.5 * rng.standard_normal(trials)) * x + rng.standard_normal(trials)
    se = oracle_mean_stderr("zero_control", A_REF, W_REF, n, trials)
    emp_se = (x**2).std() / math.sqrt(trials)
    assert se[n] == pytest.approx(emp_se, rel=0.1)


def test_oracle_stderr_requires_symmetric_noise():
    skewed = DistributionSpec.two_point(0.0, 0.9, 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        oracle_mean_stderr("zero_control", A_REF, skewed, 5, 100)


def test_oracle_stderr_perfect_observation_matches_empirical():
    rng = np.random.Generator(np.random.PCG64(2))
    trials, n = 200_000, 40
    x = np.zeros(trials)
    for _ in range(n):
        x = 0.5 * rng.standard_normal(trials) * x + rng.standard_normal(trials)
    se = oracle_mean_stderr("perfect_observation", A_REF, W_REF, n, trials)
    emp_se = (x**2).std() / math.sqrt(trials)
    assert se[n] == pytest.approx(emp_se, rel=0.05)
