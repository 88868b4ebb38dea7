import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoomctl.codec import ProtocolError, StrategyParams
from zoomctl.distributions import DistributionSpec, moments
from zoomctl.loop import (
    DIVERGENCE_LIMIT,
    TraceValidation,
    TrackerState,
    TrialDiverged,
    controller_step,
    encoder_step,
    initial_tracker,
    plant_step,
    read_trace_csv,
    run_trial,
    validate_trace_columns,
)

A_REF = DistributionSpec.gaussian(1.0, 0.5)
W_REF = DistributionSpec.gaussian(0.0, 1.0)
PARAMS = StrategyParams(L=8, P=2.0, M0=0.1, K=8.0, c=0.2)


# --- single steps -----------------------------------------------------------

def test_encoder_step_examples():
    p = StrategyParams(L=2, P=2.0, M0=0.1, K=2.0, c=0.2)
    t = TrackerState(True, 1.0, 0.1, 1, 0)
    sym, t1 = encoder_step(1.3, t, p)
    assert (sym, t1.M, t1.I, t1.rho, t1.normal) == (3, 2.0, 0.5, 1, True)
    sym, t2 = encoder_step(5.0, t, p)
    assert (sym, t2.M, t2.I, t2.normal) == (4, 2.0, 0.1, False)
    assert t2.rho == t.rho
    sym, t3 = encoder_step(-2.0, t, p)
    assert sym == 0 and t3.normal


def test_encoder_step_nonfinite_raises():
    t = initial_tracker(PARAMS)
    with pytest.raises(TrialDiverged):
        encoder_step(math.inf, t, PARAMS)


def test_controller_step_examples():
    p = StrategyParams(L=2, P=2.0, M0=0.1, K=2.0, c=0.2)
    t = TrackerState(True, 1.0, 0.1, 1, 0)
    u, t1 = controller_step(3, t, 1.0, 0.0, p)
    assert u == 1.5
    u, t2 = controller_step(1, t, 0.8, 0.0, p)
    assert u == pytest.approx(-0.4)
    u, t3 = controller_step(p.emergency_symbol, t, 1.0, 0.0, p)
    assert u == 0.0 and t3.M == 2.0 and not t3.normal


def test_controller_step_rejects_unused_codeword():
    p = StrategyParams(L=2, P=2.0, M0=0.1, K=2.0, c=0.2)
    t = initial_tracker(p)
    for bad in (5, 7, -1):
        with pytest.raises(ProtocolError):
            controller_step(bad, t, 1.0, 0.0, p)


def test_controller_recenters_by_noise_mean():
    p = StrategyParams(L=2, P=2.0, M0=0.1, K=2.0, c=0.2)
    t = TrackerState(True, 1.0, 0.1, 1, 0)
    u, _ = controller_step(p.emergency_symbol, t, 1.0, 0.7, p)
    assert u == 0.7
    u_n, _ = controller_step(3, t, 1.0, 0.7, p)
    assert u_n == pytest.approx(1.5 + 0.7)


def test_plant_step_examples():
    assert plant_step(1.0, 0.0, 2.0, 0.5) == 2.5
    assert plant_step(0.0, 0.0, 3.7, 0.25) == 0.25
    assert plant_step(3.0, 3.0, 1.0, 0.0) == 0.0


# --- full trials -------------------------------------------------------------

def test_run_trial_horizon_zero():
    # as ExperimentConfig does; a zero-step trace has no last tracker for its file's end row
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        run_trial(A_REF, W_REF, PARAMS, 0, 1)


def test_run_trial_zero_dynamics():
    a_one = DistributionSpec.two_point(1.0, 1.0, 0.0)
    w_zero = DistributionSpec.two_point(0.0, 1.0, 0.0)
    tr = run_trial(a_one, w_zero, PARAMS, 100, 5)
    assert np.all(tr.X == 0.0)
    assert np.all(tr.U[: tr.steps] == 0.0)
    assert not tr.diverged


def test_run_trial_deterministic():
    t1 = run_trial(A_REF, W_REF, PARAMS, 500, 42)
    t2 = run_trial(A_REF, W_REF, PARAMS, 500, 42)
    assert np.array_equal(t1.X, t2.X)
    assert np.array_equal(t1.symbol, t2.symbol)
    t3 = run_trial(A_REF, W_REF, PARAMS, 500, 43)
    assert not np.array_equal(t1.X, t3.X)


def test_run_trial_mean_below_theoretical_bound():
    # feasibility constant for certified params: C = D / c bounds E[X^2]
    params = StrategyParams(L=200_000_000_000_000, P=1e13, M0=1.0, K=2.0, c=0.2)
    tr = run_trial(A_REF, W_REF, params, 10_000, 3)
    bound = (2.0 * 1.0 + (1.0 + params.K) * params.M0**2) / params.c
    last_half = tr.X[tr.steps // 2 :]
    assert float(np.mean(last_half**2)) < bound
    assert not tr.diverged


def test_trace_round_and_mode_semantics(tmp_path):
    tr = run_trial(A_REF, W_REF, PARAMS, 2000, 9)
    steps = tr.steps
    normal = tr.normal[:steps]
    # every normal step opens a new round; emergencies continue the round
    tr.to_csv(tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    round_id = np.array([int(line.split(",")[10]) for line in lines])
    expected_round = np.cumsum(normal.astype(int)) - 1
    assert np.array_equal(round_id[:steps], np.maximum(expected_round, 0))
    # the reader checks round_id and gives the mode back as the normal flag
    assert np.array_equal(read_trace_csv(tmp_path / "trace.csv")["normal"], normal)
    # step 0 is always normal (the state starts at zero)
    assert normal[0]
    # emergency exit: a step after an emergency with |X| <= P*M_prev is normal
    for n in range(1, steps):
        if not tr.normal[n - 1] and abs(tr.X[n]) <= PARAMS.P * tr.M[n - 1]:
            assert tr.normal[n]


def test_emergency_semantics():
    tr = run_trial(A_REF, W_REF, PARAMS, 3000, 11)
    steps = tr.steps
    em = np.nonzero(~tr.normal[:steps])[0]
    assert len(em) > 0, "config should produce emergencies"
    for n in em:
        m_prev = tr.M[n - 1] if n > 0 else PARAMS.M0
        assert abs(tr.X[n]) > PARAMS.P * m_prev
        assert tr.M[n] == PARAMS.P * m_prev
        # controller idles apart from the recentering shift (mu_W = 0 here)
        assert tr.U[n] == 0.0
        assert tr.symbol[n] == PARAMS.emergency_symbol
        if n > 0:
            assert tr.I[n] == tr.I[n - 1] and tr.rho[n] == tr.rho[n - 1]


def test_control_error_bound():
    # |mu_A X - (U - mu_W)| <= |mu_A| I at every normal step
    w_shift = DistributionSpec.gaussian(0.4, 1.0)
    tr = run_trial(A_REF, w_shift, PARAMS, 2000, 13)
    steps = tr.steps
    normal = tr.normal[:steps]
    mu_a, mu_w = 1.0, 0.4
    err = np.abs(mu_a * tr.X[:steps] - (tr.U[:steps] - mu_w))
    assert np.all(err[normal] <= abs(mu_a) * tr.I[:steps][normal] + 1e-12)


def test_tracker_floors_hold_everywhere():
    tr = run_trial(A_REF, W_REF, PARAMS, 2000, 17)
    assert np.all(tr.M >= PARAMS.M0)
    assert np.all(tr.I >= PARAMS.M0)
    assert np.all(tr.I <= tr.M)


def test_divergence_flagging():
    # an explosive gain with no disturbance and huge M0 forces zoom-out growth
    a_big = DistributionSpec.two_point(4.0, 1.0, 0.0)
    w_one = DistributionSpec.two_point(1.0, 1.0, 0.0)
    params = StrategyParams(L=1, P=1.5, M0=1.0, K=1.0, c=0.2)
    tr = run_trial(a_big, w_one, params, 10_000, 1)
    assert tr.diverged
    assert tr.diverged_at == tr.steps
    assert abs(tr.X[tr.steps]) > DIVERGENCE_LIMIT or not math.isfinite(tr.X[tr.steps])


# --- common knowledge --------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_common_knowledge_encoder_controller(seed):
    # run_trial maintains both trackers and raises on any disagreement;
    # replaying the recorded symbols must reproduce the recorded tracker
    tr = run_trial(A_REF, W_REF, PARAMS, 300, seed)
    assert validate_trace_columns(vars(tr), PARAMS, moments(A_REF)[0], moments(W_REF)[0]).ok


# --- serialization ------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    tr = run_trial(A_REF, W_REF, PARAMS, 200, 23)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    cols = read_trace_csv(path)
    # a Trace's array fields: X_0..X_steps, and steps entries of the rest
    assert cols.keys() == {"X", "symbol", "normal", "M", "I", "rho", "U", "A", "W"}
    for f, col in cols.items():
        assert np.array_equal(col, getattr(tr, f)), f
        assert col.dtype == getattr(tr, f).dtype, f
    assert len(cols["X"]) == tr.steps + 1 and len(cols["symbol"]) == tr.steps
    lines = path.read_text().splitlines()
    assert lines[0] == "n,X,symbol,mode,M,I,rho,U,A,W,round_id"
    assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(tr.steps + 1)]
    # the trailing state-only row: the last step's tracker, U = 0, NaN draws
    assert lines[-1].split(",")[1:] == [repr(float(tr.X[-1])), "-1", "end", repr(float(tr.M[-1])),
                                        repr(float(tr.I[-1])), str(tr.rho[-1]), "0.0", "nan", "nan",
                                        lines[-2].split(",")[10]]


def test_validate_trace_detects_corruption(tmp_path):
    tr = run_trial(A_REF, W_REF, PARAMS, 200, 31)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    cols = read_trace_csv(path)
    cols["M"][50] += 0.125
    result = validate_trace_columns(cols, PARAMS, 1.0, 0.0)
    assert not result.ok
    assert result.first_mismatch == 50
    assert result.field == "M"


def test_audit_plant_is_bit_for_bit(tmp_path):
    # the lane audit's plant check
    tr = run_trial(A_REF, W_REF, PARAMS, 200, 31)
    tr.to_csv(tmp_path / "trace.csv")
    cols = read_trace_csv(tmp_path / "trace.csv")
    assert validate_trace_columns(cols, PARAMS, 1.0, 0.0) == TraceValidation(True, steps=200)
    # one ulp off at X_120 fails at step 119, the step that forms it
    cols["X"][120] = np.nextafter(cols["X"][120], math.inf)
    got = validate_trace_columns(cols, PARAMS, 1.0, 0.0)
    assert (got.ok, got.first_mismatch, got.field) == (False, 119, "plant")
    # NaN equals NaN whatever its sign bit, and a file without an end row
    # holds the next state of all but its last step: a normal step from
    # X_0 = 0, then a zoom-out from X_1 = NaN
    nan = {"X": [0.0, -math.nan], "symbol": [8, 16], "normal": [True, False], "M": [0.1, 0.2], "I": [0.1, 0.1],
           "rho": [1, 1], "U": [0.0, 0.0], "A": [math.nan, 1.0], "W": [1.0, 1.0]}
    assert validate_trace_columns({f: np.array(v) for f, v in nan.items()}, PARAMS, 1.0, 0.0) == TraceValidation(
        True, steps=2)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name, uncertified", [
    ("reference", False), ("reference_student_t", False), ("emergency_rich", True), ("static_baseline", False),
])
def test_uncertified_warning_on_shipped_configs(name, uncertified):
    # which shipped configs fail the drift and K margins is pinned; only
    # emergency_rich, the zoom-out demo, runs outside them
    from zoomctl.analysis import feasibility
    from zoomctl.config import load_config
    from zoomctl.distributions import moment_summary

    cfg = load_config(CONFIGS / f"{name}.cfg")
    report = feasibility(cfg.params, moment_summary(cfg.a_spec, cfg.alpha),
                         moment_summary(cfg.w_spec, cfg.alpha), cfg.alpha)
    assert (not (report.drift_ok and report.K_ok)) == uncertified


# --- the vectorized replay against a step-by-step one ------------------------

def _bits(v):
    """A float's bits, one pattern for every NaN."""
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def stepwise_validation(cols, params, mu_A, mu_W):
    """Reference audit, one step at a time: controller_step, then plant_step, then encoder_step."""
    tracker = initial_tracker(params)
    steps = len(cols["symbol"])
    x = [float(v) for v in cols["X"]]
    for i in range(steps):
        symbol = int(cols["symbol"][i])
        entering = tracker
        try:
            u, tracker = controller_step(symbol, tracker, mu_A, mu_W, params)
        except ProtocolError as exc:
            return TraceValidation(False, i, "symbol", str(exc))
        checks = (
            ("normal", symbol != params.emergency_symbol, bool(cols["normal"][i])),
            ("M", tracker.M, float(cols["M"][i])),
            ("I", tracker.I, float(cols["I"][i])),
            ("rho", tracker.rho, int(cols["rho"][i])),
            ("U", u, float(cols["U"][i])),
        )
        for name, want, got in checks:
            if want != got:
                return TraceValidation(False, i, name, f"expected {name}={want!r}, trace has {got!r}")
        if i == 0 and _bits(x[0]) != _bits(0.0):
            return TraceValidation(False, 0, "plant", f"expected X_0=0.0, trace has {x[0]!r}")
        if i + 1 < len(x):
            want = plant_step(x[i], u, float(cols["A"][i]), float(cols["W"][i]))
            if _bits(want) != _bits(x[i + 1]):
                return TraceValidation(False, i, "plant", f"expected X_{i + 1}={want!r}, trace has {x[i + 1]!r}")
        sent, _ = encoder_step(x[i], entering, params)
        if sent != symbol:
            return TraceValidation(False, i, "encoder", f"X_{i}={x[i]!r} encodes to symbol {sent}, trace has {symbol}")
    return TraceValidation(True, steps=steps)


REPLAY_PARAMS = [
    PARAMS,
    StrategyParams(L=1, P=1.5, M0=0.3, K=1.0, c=0.2),
    StrategyParams(L=2**50, P=1e13, M0=1.0, K=2.0, c=0.2),
    StrategyParams(L=3, P=1.0000001, M0=0.05, K=2.0, c=0.2),
]
REPLAY_GAINS = [A_REF, DistributionSpec.uniform(0.5, 2.5), DistributionSpec.two_point(1e30, 0.02, 1.0)]


@settings(max_examples=150, deadline=None)
@given(
    params=st.sampled_from(REPLAY_PARAMS),
    a_spec=st.sampled_from(REPLAY_GAINS),
    mu_w=st.sampled_from([0.0, 0.4]),
    seed=st.integers(0, 2**20),
    field=st.sampled_from([None, "symbol", "normal", "M", "I", "rho", "U", "X", "A", "W"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    pick=st.integers(-3, 2**51),
    factor=st.sampled_from([0.5, 2.0, -1.0, 1.0 + 2.0**-52]),
)
def test_vectorized_replay_matches_stepwise(params, a_spec, mu_w, seed, field, where, pick, factor):
    from zoomctl.harness import ExperimentConfig, Policy, extract_trace

    cfg = ExperimentConfig(a_spec=a_spec, w_spec=DistributionSpec.gaussian(mu_w, 1.0), params=params,
                           policy=Policy.adaptive(), horizon=120, trials=1, master_seed=seed, alpha=4.5)
    tr = extract_trace(cfg, 0)
    cols = {f: getattr(tr, f).copy() for f in ("X", "symbol", "normal", "M", "I", "rho", "U", "A", "W")}
    if field is not None:
        # one cell of an executed step, or X_0..X_steps: any codeword or one
        # outside the codebook, either mode flag, any rho in {-1, 0, 1}, a
        # scaled value
        i = int(where * len(cols[field]))
        cols[field][i] = {
            "symbol": pick % (2 * params.L + 4) - 2 if pick < 2**50 else pick,
            "normal": pick % 2,
            "rho": pick % 3 - 1,
        }.get(field, factor * cols[field][i])
    mu_a = moments(a_spec)[0]
    got = validate_trace_columns(cols, params, mu_a, mu_w)
    assert got == stepwise_validation(cols, params, mu_a, mu_w)
    if field is None:
        assert got.ok
