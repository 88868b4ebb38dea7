import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoomctl.codec import StrategyParams
from zoomctl.distributions import DistributionSpec, moments
from zoomctl.harness import (
    FULL_RECORD_FIELDS,
    ExperimentConfig,
    Policy,
    SummaryStats,
    extract_trace,
    run_experiment,
    run_recorded_bundle,
    stability_verdict,
    sweep,
    trial_seed,
    write_curve_csv,
    write_summary_json,
    write_sweep_csv,
)
from zoomctl.loop import run_trial, validate_trace_columns
from zoomctl.verify import record_exact

A_REF = DistributionSpec.gaussian(1.0, 0.5)
W_REF = DistributionSpec.gaussian(0.0, 1.0)
EMERGENCY_PARAMS = StrategyParams(L=8, P=2.0, M0=0.1, K=8.0, c=0.2)
CERTIFIED = StrategyParams(L=200_000_000_000_000, P=1e13, M0=1.0, K=2.0, c=0.2)


def make_cfg(**over):
    base = dict(
        a_spec=A_REF,
        w_spec=W_REF,
        params=EMERGENCY_PARAMS,
        policy=Policy.adaptive(),
        horizon=400,
        trials=8,
        master_seed=99,
        alpha=4.5,
    )
    base.update(over)
    return ExperimentConfig(**base)


# --- policy / config validation ------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        Policy("bang_bang")
    with pytest.raises(ValueError):
        Policy("zero_control", range=3.0)
    with pytest.raises(ValueError):
        Policy.static(-1.0)
    assert Policy.static().range is None


def test_static_range_defaults_to_ten_m0():
    cfg = make_cfg(policy=Policy.static())
    assert cfg.static_range() == 10.0 * EMERGENCY_PARAMS.M0
    cfg2 = make_cfg(policy=Policy.static(2.5))
    assert cfg2.static_range() == 2.5


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(horizon=0)
    with pytest.raises(ValueError):
        make_cfg(trials=0)
    with pytest.raises(ValueError):
        make_cfg(master_seed=-1)
    # |mu_A|*P*M0 bounds the first control, mu_A times a point of [-P*M0, P*M0]
    huge_p = StrategyParams(L=4, P=1e300, M0=1e-5, K=2.0, c=0.2)
    with pytest.raises(ValueError, match=r"\|mu_A\|\*P\*M0, the bound on the first control, is not finite"):
        make_cfg(params=huge_p, a_spec=DistributionSpec.two_point(1e30, 0.01, 1.0))
    assert make_cfg(params=huge_p).params is huge_p
    # the static quantizer's control never sees P: its range is policy.range
    make_cfg(params=huge_p, a_spec=DistributionSpec.gaussian(1e30, 0.5), policy=Policy.static(1.5))
    # the bound is mu_A times P*M0: here |mu_A|*P alone would overflow, the control does not
    make_cfg(params=StrategyParams(L=4, P=1e300, M0=1e-20, K=2.0, c=0.2),
             a_spec=DistributionSpec.gaussian(1e10, 0.5))


# --- engine correctness ----------------------------------------------------------

def test_single_trial_curve_is_pointwise_square():
    cfg = make_cfg(trials=1, horizon=300)
    stats, traces = run_experiment(cfg, keep_traces=1)
    tr = traces[0]
    assert np.array_equal(stats.curve_mean, tr.X**2)


@pytest.mark.parametrize("params", [EMERGENCY_PARAMS, CERTIFIED])
def test_engine_matches_scalar_reference_loop(params):
    cfg = make_cfg(params=params, trials=4, horizon=600)
    for idx in range(cfg.trials):
        ref = run_trial(A_REF, W_REF, params, cfg.horizon, trial_seed(cfg.master_seed, idx))
        eng = extract_trace(cfg, idx)
        for field in ("X", "symbol", "normal", "M", "I", "rho", "U", "A", "W"):
            ref_col = getattr(ref, field)
            eng_col = getattr(eng, field)
            same = np.array_equal(ref_col, eng_col) or (
                np.allclose(ref_col, eng_col, rtol=0, atol=0, equal_nan=True)
            )
            assert same, f"column {field} differs for trial {idx}"
        assert validate_trace_columns(vars(eng), params, moments(A_REF)[0], moments(W_REF)[0]).ok


@settings(max_examples=25, deadline=None)
@given(
    L=st.integers(1, 32),
    P=st.floats(1.1, 50.0),
    M0=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**30),
    kind=st.sampled_from(["gaussian", "uniform", "student_t", "two_point"]),
)
def test_engine_equivalence_random_params(L, P, M0, seed, kind):
    a_spec = {
        "gaussian": A_REF,
        "uniform": DistributionSpec.uniform(0.2, 1.8),
        "student_t": DistributionSpec.student_t(5.0, 0.3872983346207417, 1.0),
        "two_point": DistributionSpec.two_point(0.5, 0.5, 1.4),
    }[kind]
    params = StrategyParams(L=L, P=P, M0=M0, K=2.0, c=0.2)
    cfg = ExperimentConfig(
        a_spec=a_spec, w_spec=W_REF, params=params, policy=Policy.adaptive(),
        horizon=150, trials=1, master_seed=seed, alpha=4.5,
    )
    ref = run_trial(a_spec, W_REF, params, 150, trial_seed(seed, 0))
    eng = extract_trace(cfg, 0)
    assert ref.diverged == eng.diverged and ref.steps == eng.steps
    for field in ("X", "symbol", "normal", "M", "I", "rho", "U"):
        assert np.array_equal(getattr(ref, field), getattr(eng, field)), field


def test_rerun_bit_identical():
    cfg = make_cfg(trials=30, horizon=200)
    base, _ = run_experiment(cfg)
    again, _ = run_experiment(cfg)
    assert np.array_equal(base.curve_mean, again.curve_mean)
    assert np.array_equal(base.curve_stderr, again.curve_stderr, equal_nan=True)
    assert base.diverged_count == again.diverged_count
    assert base.emergency_fraction == again.emergency_fraction
    assert base.window_ratio == again.window_ratio


def test_chunk_size_only_reorders_float_sums(monkeypatch):
    # chunk size is an implementation constant, not config; changing it may
    # reorder the reduction but nothing else
    import zoomctl.harness as hz

    cfg = make_cfg(trials=30, horizon=200)
    base, _ = run_experiment(cfg)
    monkeypatch.setattr(hz, "CHUNK_TRIALS", 7)
    chunked, _ = run_experiment(cfg)
    assert np.allclose(base.curve_mean, chunked.curve_mean, rtol=1e-12)
    assert base.diverged_count == chunked.diverged_count
    assert base.emergency_fraction == chunked.emergency_fraction


def test_trace_retention_does_not_change_stats():
    cfg = make_cfg(trials=12, horizon=150)
    bare, none_kept = run_experiment(cfg)
    kept, traces = run_experiment(cfg, keep_traces=3)
    assert none_kept == []
    assert len(traces) == 3
    assert np.array_equal(bare.curve_mean, kept.curve_mean)
    assert [t.seed for t in traces] == [trial_seed(cfg.master_seed, i) for i in range(3)]


def test_kept_traces_are_recorded_in_the_ensemble_pass(monkeypatch):
    import zoomctl.harness as hz

    # an oracle's 30 trials in 14-lane chunks (two 7-trial groups), the first
    # 20 kept, and a quantizer's 58 in 28-lane chunks (four groups), the first
    # 48 kept: each chunk runs once, recording its kept lanes
    monkeypatch.setattr(hz, "CHUNK_TRIALS", 7)
    calls = []
    run_chunk = hz._run_chunk

    def counting(cfg, indices, record_fields, envelope, **kwargs):
        calls.append((len(indices), record_fields))
        return run_chunk(cfg, indices, record_fields, envelope, **kwargs)

    monkeypatch.setattr(hz, "_run_chunk", counting)
    for policy, trials, kept, want in ((Policy.perfect(), 30, 20, [(14, 14), (14, 6), (2, 0)]),
                                       (Policy.adaptive(), 58, 48, [(28, 28), (28, 20), (2, 0)])):
        calls.clear()
        cfg = make_cfg(trials=trials, horizon=50, policy=policy)
        _, traces = run_experiment(cfg, keep_traces=kept)
        assert calls == want
        assert [t.seed for t in traces] == [trial_seed(cfg.master_seed, t) for t in range(kept)]


# rare huge gains: trials diverge at scattered steps, some never
JUMPY_A = DistributionSpec.two_point(1e30, 0.01, 1.0)
TRACE_FIELDS = ("X", "symbol", "normal", "M", "I", "rho", "U", "A", "W")


def jumpy_cfg():
    return make_cfg(a_spec=JUMPY_A, trials=12, horizon=400, master_seed=1)


def assert_same_trace(got, want):
    for field in TRACE_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field
    assert (got.diverged, got.diverged_at, got.seed) == (want.diverged, want.diverged_at, want.seed)


# codebook and zoom extremes; the gains include rare 1e30 draws, so
# some trials diverge and park their lanes mid-chunk
EXTREME_PARAMS = {
    "L=2^50": StrategyParams(L=2**50, P=1e13, M0=1.0, K=2.0, c=0.2),
    "L=1": StrategyParams(L=1, P=1.5, M0=1.0, K=1.0, c=0.2),
    "P=1.0000001": StrategyParams(L=8, P=1.0000001, M0=0.1, K=8.0, c=0.2),
    "M0=1e-300": StrategyParams(L=8, P=2.0, M0=1e-300, K=8.0, c=0.2),
    "M0=1e100": StrategyParams(L=8, P=2.0, M0=1e100, K=8.0, c=0.2),
}


@pytest.mark.parametrize("name", EXTREME_PARAMS)
@pytest.mark.parametrize("a_spec", [A_REF, DistributionSpec.two_point(1e30, 0.01, 1.0)])
def test_engine_matches_scalar_reference_loop_at_extremes(name, a_spec):
    cfg = make_cfg(params=EXTREME_PARAMS[name], a_spec=a_spec, trials=6, horizon=400)
    _, traces = run_experiment(cfg, keep_traces=cfg.trials, envelope=False)
    for idx, eng in enumerate(traces):
        ref = run_trial(a_spec, W_REF, cfg.params, cfg.horizon, trial_seed(cfg.master_seed, idx))
        assert_same_trace(eng, ref)
        assert validate_trace_columns(vars(eng), cfg.params, moments(a_spec)[0], moments(W_REF)[0]).ok


# the last case keeps 20 of 24 trials in 14-lane chunks, in 7-step blocks:
# all of the first chunk's lanes, whose gains the second chunk overwrites in
# the ensemble's buffer, and 6 of the second's 10
@pytest.mark.parametrize("chunk_trials, block_steps, trials, kept", [
    (512, 250, 12, 12), (7, 250, 12, 17), (7, 7, 24, 20)], ids=["512-12", "7-17", "7-7-24-20"])
def test_kept_traces_match_extract_trace(monkeypatch, chunk_trials, block_steps, trials, kept):
    import zoomctl.harness as hz

    monkeypatch.setattr(hz, "CHUNK_TRIALS", chunk_trials)
    monkeypatch.setattr(hz, "BLOCK_STEPS", block_steps)
    cfg = make_cfg(a_spec=JUMPY_A, trials=trials, horizon=400, master_seed=1)
    for envelope in (False, True):
        _, traces = run_experiment(cfg, keep_traces=kept, envelope=envelope)
        assert len(traces) == min(kept, trials)
        steps = [t.diverged_at for t in traces]
        assert None in steps and len(set(steps) - {None}) > 3
        for t, trace in enumerate(traces):
            assert_same_trace(trace, extract_trace(cfg, t))
    if kept < trials:  # kept lanes diverge in both chunks, and in several blocks
        assert {t // (2 * chunk_trials) for t, s in enumerate(steps) if s is not None} == {0, 1}
        assert len({s // block_steps for s in steps if s is not None}) > 3


def test_lanes_diverging_mid_chunk_match_run_trial():
    # one 12-lane chunk leaves its all-alive path at the first divergence
    cfg = jumpy_cfg()
    stats, traces = run_experiment(cfg, keep_traces=cfg.trials, envelope=False)
    refs = [
        run_trial(cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon, trial_seed(cfg.master_seed, t))
        for t in range(cfg.trials)
    ]
    for ref, eng in zip(refs, traces):
        assert_same_trace(eng, ref)
    # recorded columns match run_trial up to each trial's divergence step, X
    # through it; the replay's floor flags stop there
    rec, div = run_recorded_bundle(cfg)
    floored = record_exact(cfg)[0]["clamped"]
    for t, ref in enumerate(refs):
        steps = ref.steps
        assert div[t] == (steps if ref.diverged else -1)
        assert np.array_equal(rec["X"][t, : steps + 1], ref.X)
        for f in FULL_RECORD_FIELDS[1:]:
            assert np.array_equal(rec[f][t, :steps], getattr(ref, f)[:steps]), f
        assert not floored[t, steps:].any()
    # per-step sums run over the full chunk width, 0 at diverged lanes
    xsq = np.zeros((cfg.horizon + 1, cfg.trials))
    count = np.zeros(cfg.horizon + 1, dtype=np.int64)
    for t, ref in enumerate(refs):
        alive = ref.diverged_at if ref.diverged else ref.steps + 1
        xsq[:alive, t] = ref.X[:alive] ** 2
        count[:alive] += 1
    assert np.array_equal(count, stats.curve_count)
    sums = np.array([row.sum() for row in xsq])
    mean = np.where(count > 0, sums / np.maximum(count, 1), np.nan)
    assert np.array_equal(mean, stats.curve_mean, equal_nan=True)
    emergency = sum(int(np.sum(~ref.normal[: ref.steps])) for ref in refs)
    assert stats.emergency_fraction == emergency / sum(ref.steps for ref in refs)
    assert stats.diverged_count == sum(ref.diverged for ref in refs)


# --- time blocks and lane groups ---------------------------------------------------

# P = 1.3 zooms out slowly: under a gaussian(1, 1) gain some rounds run to the
# horizon, across many blocks, leaving an unresolved envelope suffix; under
# uniform(0.5, 2.5) many lanes never return to normal mode after step 0
SLOW_ZOOM = StrategyParams(L=8, P=1.3, M0=0.1, K=8.0, c=0.2)
# frequent huge gains: about half the trials diverge within 45 steps, at
# steps 20 and later
BURSTY_A = DistributionSpec.two_point(1e30, 0.1, 1.0)
BLOCK_CASES = {
    "adaptive": {},
    "static": dict(policy=Policy.static()),
    "perfect": dict(policy=Policy.perfect()),
    "zero": dict(policy=Policy.zero()),
    "diverging": dict(a_spec=BURSTY_A),
    "never_exits": dict(a_spec=DistributionSpec.gaussian(1.0, 1.0), params=SLOW_ZOOM),
    "never_returns": dict(a_spec=DistributionSpec.uniform(0.5, 2.5), params=SLOW_ZOOM),
}
STATS_FIELDS = ("curve_mean", "curve_stderr", "curve_count", "diverged_count",
                "emergency_fraction", "window_ratio", "max_mean_nsq", "verdict")


def block_case_cfg(case, **over):
    return make_cfg(**{"trials": 30, "horizon": 45, "master_seed": 3, **BLOCK_CASES[case], **over})


# sha256 of Trace.to_csv for one kept trace per policy the pinned benchmark
# traces do not reach, and for an adaptive trial diverging at step 20 of 45
KEPT_TRACE_DIGESTS = {
    ("static", 0): "69b3a47c724814ff4aec200de6549025634401ca77eb1993e5e10b28b4e527d8",
    ("perfect", 0): "e44d63b5d26f64820f59ba19c662ebb667c968f29a26d75e3b0fb5e7c82d8a70",
    ("zero", 0): "963e3e57bca73b92eea91b5f241156d03fef56ac1e348f820b9e11968a9da226",
    ("diverging", 2): "90baa84bbd84e461e12f8e3adf09ccb2a4b1b41aaff7ea415137351a260e2f19",
}


@pytest.mark.parametrize("case, trial", KEPT_TRACE_DIGESTS)
def test_kept_trace_csv_bytes_are_pinned(tmp_path, case, trial):
    cfg = block_case_cfg(case)
    traces = [extract_trace(cfg, trial)]
    if case == "diverging":
        traces.append(run_trial(cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon,
                                trial_seed(cfg.master_seed, trial)))
        assert traces[0].diverged_at == 20
    for tr in traces:
        tr.to_csv(tmp_path / "trace.csv")
        digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
        assert digest == KEPT_TRACE_DIGESTS[case, trial]


@pytest.mark.parametrize("case", ["adaptive", "static", "perfect", "zero", "diverging"])
def test_trace_is_its_recorded_lane(case):
    # a Trace holds X_0..X_steps and steps entries of every other field: its
    # lane of a FULL_RECORD_FIELDS recording up to the divergence step, under
    # every policy; in "diverging" about half of one chunk's lanes diverge
    cfg = block_case_cfg(case)
    rec, div = run_recorded_bundle(cfg)
    _, kept = run_experiment(cfg, keep_traces=cfg.trials, envelope=False)
    traces = [("kept", t, tr) for t, tr in enumerate(kept)]
    if cfg.policy.kind == "adaptive_fixed_rate":
        traces += [("run_trial", t, run_trial(cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon,
                                              trial_seed(cfg.master_seed, t))) for t in range(cfg.trials)]
    assert case != "diverging" or 0 < (div >= 0).sum() < cfg.trials
    for how, t, tr in traces:
        steps = cfg.horizon if div[t] < 0 else int(div[t])
        assert tr.steps == steps and tr.diverged_at == (None if div[t] < 0 else steps), (how, t)
        for f in FULL_RECORD_FIELDS:
            col = getattr(tr, f)
            assert len(col) == steps + (f == "X"), (how, t, f)
            assert col.dtype == rec[f].dtype, (how, t, f)
            assert np.array_equal(col, rec[f][t, :len(col)]), (how, t, f)


def block_draw_pairs(horizon):
    """(BLOCK_STEPS, DRAW_STEPS) pairs: a draw batch of one block, batches of
    two 7-step blocks with a partial last one (14, 14, 14 and 3 steps at
    horizon 45), and one block over the horizon, longer than its batch."""
    return (1, 1), (7, 20), (horizon, 7)


def engine_outputs(cfg, kept):
    stats, traces = run_experiment(cfg, keep_traces=kept)
    rec, div = run_recorded_bundle(cfg)
    return stats, traces, rec, div


def assert_same_outputs(got, want):
    for field in STATS_FIELDS:
        a, b = getattr(got[0], field), getattr(want[0], field)
        assert np.array_equal(a, b, equal_nan=isinstance(a, (float, np.ndarray))), field
    assert len(got[1]) == len(want[1])
    for trace, ref in zip(got[1], want[1]):
        assert_same_trace(trace, ref)
    assert got[2].keys() == want[2].keys()
    for f in want[2]:
        assert np.array_equal(got[2][f], want[2][f]), f
    assert np.array_equal(got[3], want[3])


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_results_independent_of_time_blocks_and_threads(monkeypatch, case):
    import zoomctl.harness as hz

    # groups of 9 trials: 50 trials fill chunks of 36 + 14 lanes under a
    # quantizer policy, of 18 + 18 + 14 under an oracle
    monkeypatch.setattr(hz, "CHUNK_TRIALS", 9)
    cfg = block_case_cfg(case, trials=50)
    want = engine_outputs(cfg, cfg.trials)  # one block: the horizon
    _, _, rec, div = want
    if case == "diverging":
        steps = div[div >= 0]
        assert np.count_nonzero(steps % 7 != 0) > 3  # lanes diverge mid-block
        assert all((div[g:g + 9] >= 0).any() for g in range(0, cfg.trials, 9))
    if case == "never_exits":
        # some round stays open from before the third-to-last block on
        assert min(np.flatnonzero(row)[-1] for row in rec["normal"]) < cfg.horizon - 14
    if case == "never_returns":
        # each group's envelope resolves column 0 only
        stuck = ~rec["normal"][:, 1:].any(axis=1)
        assert all(stuck[g:g + 9].any() for g in range(0, cfg.trials, 9))
    for block, draw in block_draw_pairs(cfg.horizon):
        monkeypatch.setattr(hz, "BLOCK_STEPS", block)
        monkeypatch.setattr(hz, "DRAW_STEPS", draw)
        assert_same_outputs(engine_outputs(cfg, cfg.trials), want)


def test_full_width_chunks_independent_of_time_blocks(monkeypatch):
    import zoomctl.harness as hz

    # 2054 trials: one chunk of four 512-trial groups, then 6 lanes
    cfg = make_cfg(trials=2054, horizon=30, a_spec=BURSTY_A)
    want = engine_outputs(cfg, 3)
    assert want[0].diverged_count > 0
    # one-step blocks in batches of 7; 7-step blocks in batches of 14 and a last of 2
    for block, draw in ((1, 7), (7, 20)):
        monkeypatch.setattr(hz, "BLOCK_STEPS", block)
        monkeypatch.setattr(hz, "DRAW_STEPS", draw)
        assert_same_outputs(engine_outputs(cfg, 3), want)


# every gain law, and rare huge gains under which most trials diverge
STREAM_LAWS = {
    "gaussian": A_REF,
    "uniform": DistributionSpec.uniform(0.2, 1.8),
    "two_point": DistributionSpec.two_point(0.5, 0.5, 1.4),
    "student_t": DistributionSpec.student_t(5.0, 0.3872983346207417, 1.0),
    "diverging": JUMPY_A,
}


@pytest.mark.parametrize("law", STREAM_LAWS)
@pytest.mark.parametrize("policy", [Policy.adaptive(), Policy.static()], ids=["adaptive", "static"])
def test_streamed_gains_are_the_whole_draw(monkeypatch, policy, law):
    import zoomctl.harness as hz

    # a quantizer chunk redraws its gains a batch at a time from a second
    # generator, its first one having drawn and dropped them; over 263 steps
    # that is 50-step blocks in a 250-step batch and one of 13, and 1-step
    # blocks in 1-step batches and in 7-step ones with a last of 4.  A batch
    # over the horizon draws the gains whole, from one generator
    cfg = make_cfg(a_spec=STREAM_LAWS[law], policy=policy, trials=8, horizon=263, master_seed=5)
    runs = [engine_outputs(cfg, 5)]
    monkeypatch.setattr(hz, "BLOCK_STEPS", 1)
    for draw in (1, 7, cfg.horizon):
        monkeypatch.setattr(hz, "DRAW_STEPS", draw)
        runs.append(engine_outputs(cfg, 5))
    for got in runs[:-1]:
        assert_same_outputs(got, runs[-1])
    if law == "diverging":
        assert 0 < runs[-1][0].diverged_count < cfg.trials
    if policy.kind == "adaptive_fixed_rate":
        for _, traces, _, _ in runs:
            for t, trace in enumerate(traces):
                assert_same_trace(trace, run_trial(cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon,
                                                   trial_seed(cfg.master_seed, t)))


# sha256 of diverged_at and of each lane's records up to its extent (X through
# its divergence step, every other field before it) on two 1100-trial
# recordings: the diverging block case, with lanes diverging from step 20 on,
# and emergency_rich.cfg at P=1.01, whose rounds stay open for long stretches
RECORDING_DIGESTS = {
    "diverging": "0ac58082cfda8bbd5a1db01aae71890a17d8b7f208efbb81678598cc158fb61c",
    "emergency_rich_open": "0b669e5a073bade5261ae95cf0d0e20d2450cfb470e22c8e57454111a24e35d9",
}


@pytest.mark.parametrize("case", RECORDING_DIGESTS)
def test_recorded_lanes_are_pinned_up_to_their_extent(case):
    from zoomctl.config import load_config

    if case == "diverging":
        cfg = block_case_cfg(case, trials=1100)
    else:
        cfg = load_config(CONFIGS / "emergency_rich.cfg", ["trials=1100", "P=1.01", "horizon=300"])
    rec, div = run_recorded_bundle(cfg)
    assert (case == "diverging") == (div >= 0).any()
    digest = hashlib.sha256(div.tobytes())
    for t, d in enumerate(div):
        steps = cfg.horizon if d < 0 else int(d)
        for f in FULL_RECORD_FIELDS:
            digest.update(rec[f][t, :steps + (f == "X")].tobytes())
    assert digest.hexdigest() == RECORDING_DIGESTS[case]


@pytest.mark.parametrize("fields", [("M", "I", "normal"), ("W", "U"), ("X", "A")])
def test_partial_records_of_lanes_diverging_after_a_block(monkeypatch, fields):
    import zoomctl.harness as hz
    from zoomctl.harness import recorded_lanes

    monkeypatch.setattr(hz, "BLOCK_STEPS", 7)
    cfg = block_case_cfg("diverging")
    full, div = run_recorded_bundle(cfg)
    late = np.flatnonzero(div > 8)
    assert len(late) > 3  # past the first block's state rows
    # those lanes recorded as a chunk of their own keep each field up to
    # their extent, as in the recording of every trial
    part = hz._run_chunk(cfg, late.tolist(), len(late), False)
    assert np.array_equal(part.diverged_at, div[late])
    _, part_lanes = recorded_lanes(part.records, part.diverged_at)
    _, full_lanes = recorded_lanes(full, div)
    for j, t in enumerate(late):
        for f in fields:
            assert np.array_equal(part_lanes[j][f], full_lanes[t][f]), (t, f)
    # the unrecorded chunk walks 7-step blocks too, with those lanes
    # diverging after the first, and sums as one block does
    blocked = hz._run_chunk(cfg, range(cfg.trials), 0, True)
    monkeypatch.setattr(hz, "BLOCK_STEPS", cfg.horizon)
    whole = hz._run_chunk(cfg, range(cfg.trials), 0, True)
    assert np.array_equal(blocked.diverged_at, div)
    for f in ("sum_xsq", "sum_x4", "count", "diverged_at"):
        assert np.array_equal(getattr(blocked, f).view(np.int64), getattr(whole, f).view(np.int64)), f
    assert (blocked.steps_alive, blocked.emergency_steps) == (whole.steps_alive, whole.emergency_steps)


@pytest.mark.parametrize("block", [1, 7, 45])
@pytest.mark.parametrize("case", ["adaptive", "diverging", "never_exits", "never_returns"])
def test_streamed_envelope_matches_envelope_squared(monkeypatch, case, block):
    import zoomctl.harness as hz
    from zoomctl.analysis import envelope_squared

    # groups of 20: wide enough that a pairwise sum differs from a sequential one
    monkeypatch.setattr(hz, "CHUNK_TRIALS", 20)
    monkeypatch.setattr(hz, "BLOCK_STEPS", block)
    cfg = block_case_cfg(case, trials=40)
    out = hz._run_chunk(cfg, range(cfg.trials), 0, True)
    rec, div = run_recorded_bundle(cfg)
    if case == "diverging":
        # the envelope covers ensembles with no diverged trial only
        assert all(0 < np.count_nonzero(div[g:g + 20] >= 0) < 20 for g in (0, 20))
        assert out.envelopes is None
        return
    assert len(out.envelopes) == 2
    resolved, pairwise_differs = [], []
    for g, acc in enumerate(out.envelopes):
        lanes = slice(20 * g, 20 * g + 20)
        nsq, hr = envelope_squared(rec["M"][lanes], rec["I"][lanes], rec["normal"][lanes], cfg.params.K)
        # each column summed lane by lane in trial order, a lone one too
        want = functools.reduce(np.add, nsq)
        assert (acc.c, acc.count, acc.first, acc.resolved) == (None, 20, 20 * g, hr)
        assert np.array_equal(acc.sums[0, :hr].view(np.int64), want.view(np.int64))
        assert not acc.sums[0, hr:].any()
        resolved.append(hr)
        pairwise_differs.append(bool((nsq.sum(axis=0) != want).any()))
    if case == "never_returns":
        # both groups resolve column 0 only, where numpy's pairwise sum of
        # the lone column differs from the lane-by-lane one
        assert resolved == [1, 1] and any(pairwise_differs)
    else:
        assert min(resolved) > 1


# tracker values with generic mantissas, so that sums depend on their order:
# no zoom-out (the fast path), rare ones (the tau path, some columns pending
# at block ends), and frequent ones
LAYOUT_CASES = {
    "all_normal": StrategyParams(L=2**40, P=1e5, M0=1e-3, K=2.0, c=0.2),
    "rare_zoom_out": StrategyParams(L=2**40, P=1e3, M0=1e-3, K=2.0, c=0.2),
    "zoom_out": EMERGENCY_PARAMS,
}


@pytest.mark.parametrize("drift", [False, True], ids=["sums", "drift"])
@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_envelope_fold_does_not_depend_on_layout(case, drift):
    import zoomctl.harness as hz
    from zoomctl.analysis import EnvelopeMoments, envelope_squared

    # one group of 20 trials, wide enough that numpy's pairwise column sums
    # differ from lane-by-lane ones
    cfg = make_cfg(params=LAYOUT_CASES[case], trials=20, horizon=45, master_seed=3)
    rec, div = run_recorded_bundle(cfg)
    assert not (div >= 0).any()
    cols = [np.ascontiguousarray(rec[f]) for f in ("M", "I", "normal")]
    nsq, h = envelope_squared(*cols, cfg.params.K)
    assert (np.asfortranarray(nsq).sum(axis=0) != functools.reduce(np.add, nsq)).any()

    def transposed(a):  # an F-ordered view, as of step-major block rows
        return np.ascontiguousarray(a.T).T

    accs = []
    for layout in (np.ascontiguousarray, transposed):
        acc, pending = EnvelopeMoments.sized(20, cfg.horizon, cfg.params.c if drift else None), None
        for b0 in range(0, cfg.horizon, 7):
            blk = [layout(c[:, b0:b0 + 7]) for c in cols]
            assert all(b.flags.f_contiguous != (layout is np.ascontiguousarray) for b in blk)
            pending = hz._chunk_envelope(acc, pending, *blk, cfg.params.K)
        accs.append(acc)
    a, b = accs
    assert a.resolved == b.resolved == h
    assert np.array_equal(a.sums[0, :h].view(np.int64), functools.reduce(np.add, nsq).view(np.int64))
    assert (a.count, a.mismatches) == (b.count, b.mismatches)
    assert np.array_equal(a.sums.view(np.int64), b.sums.view(np.int64))
    assert np.array_equal(a.pairs, b.pairs)
    if drift:
        assert all(np.array_equal(x, y) for x, y in zip(a.last, b.last))
    else:
        assert a.sums.shape == (1, cfg.horizon) and a.last is b.last is None


@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_sums_only_envelope_matches_drift_mode(monkeypatch, case):
    import zoomctl.harness as hz

    # two groups of 20 trials
    monkeypatch.setattr(hz, "CHUNK_TRIALS", 20)
    cfg = make_cfg(params=LAYOUT_CASES[case], trials=40, horizon=45, master_seed=3)
    first = None
    for block in (1, 7, cfg.horizon):
        monkeypatch.setattr(hz, "BLOCK_STEPS", block)
        sums, drift = (hz._run_chunk(cfg, range(cfg.trials), 0, True, drift=d).envelopes for d in (False, True))
        assert len(sums) == len(drift) == 2
        got = []
        for a, b in zip(sums, drift):
            assert (a.c, b.c) == (None, cfg.params.c)
            assert a.resolved == b.resolved > 1
            assert np.array_equal(a.sums[0].view(np.int64), b.sums[0].view(np.int64))
            got.append((a.resolved, a.sums[0].tobytes()))
        # and the time blocks change no bit
        first = first or got
        assert got == first


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# (config, overrides): reference and student-t never zoom out; emergency_rich
# does, about a third of its steps; at P = 1.01 rounds stay open across many
# blocks and some through the horizon, so the resolved horizon ends early
STREAM_CASES = {
    "reference": ("reference.cfg", []),
    "emergency_rich": ("emergency_rich.cfg", []),
    "reference_student_t": ("reference_student_t.cfg", []),
    "open_rounds": ("emergency_rich.cfg", ["P=1.01", "horizon=300"]),
}


def two_pass_drift(nsq, normal, c, D):
    """The drift and halving statistics by numpy two-pass reductions."""
    T, h = nsq.shape
    d = nsq[:, 1:] - (1.0 - c) * nsq[:, :-1]
    mean, step_mean = nsq.mean(axis=0), d.mean(axis=0)
    stderr = nsq.std(axis=0, ddof=1) / math.sqrt(T)
    step_stderr = d.std(axis=0, ddof=1) / math.sqrt(T)
    rel = np.where(mean > 0, stderr / np.where(mean > 0, mean, 1.0), 0.0)
    inside = ~normal[:, :h - 1]
    return {
        "mean_nsq": mean, "stderr_nsq": stderr, "step_mean": step_mean, "step_stderr": step_stderr,
        "flagged": np.flatnonzero(step_mean > D + 3.0 * step_stderr).tolist(),
        "cap_violations": np.flatnonzero(mean > D / c * (1.0 + 3.0 * rel)).tolist(),
        "pairs": int(inside.sum()),
        "mismatches": int((inside & (nsq[:, 1:] != nsq[:, :-1] / 4.0)).sum()),
    }


@pytest.mark.parametrize("case", STREAM_CASES)
def test_streamed_drift_matches_two_pass(monkeypatch, case):
    import zoomctl.harness as hz
    from zoomctl.analysis import envelope_squared
    from zoomctl.config import load_config

    name, overrides = STREAM_CASES[case]
    cfg = load_config(CONFIGS / name, ["trials=100", "horizon=60", "seed=5", *overrides])
    D = cfg.params.drift_constant(moments(cfg.w_spec)[1])
    # groups of 16, chunks of 32 lanes: group statistics merge across chunks
    monkeypatch.setattr(hz, "CHUNK_TRIALS", 16)
    streamed = []
    for block, draw in block_draw_pairs(cfg.horizon):
        monkeypatch.setattr(hz, "BLOCK_STEPS", block)
        monkeypatch.setattr(hz, "DRAW_STEPS", draw)
        stats, diverged = hz.envelope_moments(cfg)
        assert diverged == 0
        streamed.append((stats.drift_report(D), stats.halving_report()))
    got, halving = streamed[0]
    # the time blocks change no bit
    for rep, halv in streamed[1:]:
        assert halv == halving
        assert (rep.n_checked, rep.flagged, rep.cap_violations) == (got.n_checked, got.flagged, got.cap_violations)
        for field in ("mean_nsq", "stderr_nsq", "step_excess", "step_stderr"):
            assert np.array_equal(getattr(rep, field), getattr(got, field)), field

    rec, div = run_recorded_bundle(cfg)
    assert not (div >= 0).any()
    nsq, h = envelope_squared(rec["M"], rec["I"], rec["normal"], cfg.params.K)
    want = two_pass_drift(nsq, rec["normal"], cfg.params.c, D)
    if case == "open_rounds":
        assert 100 < h < cfg.horizon - 50 and want["pairs"] > 10_000
    assert (got.num_traces, got.n_checked) == (cfg.trials, h)
    assert got.flagged == want["flagged"] and got.cap_violations == want["cap_violations"]
    assert (halving.emergency_pairs, len(halving.violations)) == (want["pairs"], want["mismatches"])
    # relative to the value, or to the size of N^2 where the value is
    # rounding noise (the spread of a column of equal N^2 is 0 up to it)
    scale = np.maximum(want["mean_nsq"], D)
    for field, value, size in [("mean_nsq", got.mean_nsq, scale), ("stderr_nsq", got.stderr_nsq, scale),
                               ("step_mean", got.step_excess + D, scale[1:]),
                               ("step_stderr", got.step_stderr, scale[1:])]:
        err = np.abs(value - want[field]) / np.maximum(np.abs(want[field]), size)
        assert err.max(initial=0.0) <= 1e-12, field


def test_diverging_ensemble_has_no_drift_or_envelope(tmp_path):
    from zoomctl.verify import check_drift

    cfg = block_case_cfg("diverging", trials=100)
    stats, _ = run_experiment(cfg)
    assert 0 < stats.diverged_count < cfg.trials
    assert stats.max_mean_nsq is None
    write_summary_json(stats, cfg, tmp_path / "summary.json")
    assert json.loads((tmp_path / "summary.json").read_text())["max_mean_nsq"] is None
    result = check_drift(cfg)
    assert not result.passed
    assert result.detail == f"{stats.diverged_count} trials diverged; drift statistics not applicable"


def test_master_seed_changes_results():
    s1, _ = run_experiment(make_cfg(master_seed=1))
    s2, _ = run_experiment(make_cfg(master_seed=2))
    assert not np.array_equal(s1.curve_mean, s2.curve_mean)


# --- oracle policies ---------------------------------------------------------------

def test_zero_control_matches_recursion():
    from zoomctl.analysis import moment_recursion_curve, oracle_mean_stderr

    cfg = make_cfg(policy=Policy.zero(), trials=4000, horizon=20, master_seed=20240)
    stats, _ = run_experiment(cfg)
    oracle = moment_recursion_curve("zero_control", (1.0, 0.5), (0.0, 1.0), 20)
    se = oracle_mean_stderr("zero_control", A_REF, W_REF, 20, cfg.trials)
    assert np.all(np.abs(stats.curve_mean - oracle) <= 3.0 * se)


def test_perfect_observation_plateau():
    cfg = make_cfg(policy=Policy.perfect(), trials=3000, horizon=1200, master_seed=4)
    stats, _ = run_experiment(cfg)
    assert stats.curve_mean[-1] == pytest.approx(4.0 / 3.0, rel=0.05)
    assert stats.verdict == "stable"
    assert stats.emergency_fraction == 0.0
    assert stats.max_mean_nsq is None


def test_static_quantizer_saturates():
    # fixed window much narrower than the state's reach: watch it misbehave
    cfg = make_cfg(policy=Policy.static(1.5), params=CERTIFIED, trials=200, horizon=1500)
    stats, _ = run_experiment(cfg)
    # excursions far above the adaptive stationary level (~2) appear
    assert np.nanmax(stats.curve_mean) > 50.0
    # while the same budget spent adaptively stays flat
    stats_ad, _ = run_experiment(make_cfg(params=CERTIFIED, trials=200, horizon=1500))
    assert np.nanmax(stats_ad.curve_mean) < 10.0
    tr = extract_trace(cfg, 0)
    assert np.all(tr.symbol[: tr.steps] >= 0)
    assert np.all(tr.symbol[: tr.steps] <= 2 * CERTIFIED.L)


# --- divergence handling --------------------------------------------------------------

def test_divergence_counted_and_excluded():
    a_bad = DistributionSpec.two_point(4.0, 1.0, 0.0)
    w_one = DistributionSpec.two_point(1.0, 1.0, 0.0)
    params = StrategyParams(L=1, P=1.5, M0=1.0, K=1.0, c=0.2)
    cfg = ExperimentConfig(
        a_spec=a_bad, w_spec=w_one, params=params, policy=Policy.adaptive(),
        horizon=2000, trials=5, master_seed=0, alpha=4.5,
    )
    stats, traces = run_experiment(cfg, keep_traces=1)
    assert stats.diverged_count == 5
    assert traces[0].diverged
    # after every trial dies the curve has no samples
    assert stats.curve_count[-1] == 0
    assert math.isnan(stats.curve_mean[-1])
    assert stats.verdict == "unstable"


# --- verdicts ---------------------------------------------------------------------------

def fake_stats(curve, diverged=0, trials=100):
    curve = np.asarray(curve, dtype=float)
    return SummaryStats(
        policy="adaptive_fixed_rate",
        trials=trials,
        horizon=len(curve) - 1,
        curve_mean=curve,
        curve_stderr=np.zeros_like(curve),
        curve_count=np.full(len(curve), trials),
        diverged_count=diverged,
        emergency_fraction=0.0,
        window_ratio=math.nan,
        max_mean_nsq=None,
        verdict="",
    )


def test_verdict_flat_curve_stable():
    assert stability_verdict(fake_stats(np.ones(2001))) == "stable"


def test_verdict_growing_curve_unstable():
    curve = 1.02 ** np.arange(2001)
    assert stability_verdict(fake_stats(curve)) == "unstable"


def test_verdict_mild_growth_inconclusive():
    # ratio 2 between the last two quarters
    curve = 2.0 ** (np.arange(2001) / 500.0)
    assert stability_verdict(fake_stats(curve)) == "inconclusive"


def test_verdict_divergence_rules():
    flat = np.ones(2001)
    assert stability_verdict(fake_stats(flat, diverged=2, trials=100)) == "unstable"
    assert stability_verdict(fake_stats(flat, diverged=1, trials=100)) == "inconclusive"


def test_verdict_requires_horizon():
    with pytest.raises(ValueError):
        stability_verdict(fake_stats(np.ones(500)))


# --- sweeps ------------------------------------------------------------------------------

def test_sweep_rate_column():
    cfg = make_cfg(trials=2, horizon=50)
    rows = sweep(cfg, "L", [1, 2, 8])
    assert [r.R for r in rows] == [2, 3, 5]
    assert [r.value for r in rows] == [1.0, 2.0, 8.0]


def test_sweep_single_value_matches_run_experiment():
    cfg = make_cfg(trials=6, horizon=120)
    rows = sweep(cfg, "P", [2.0])
    assert len(rows) == 1
    stats, _ = run_experiment(cfg, envelope=False)
    assert rows[0].terminal_mean_xsq == stats.terminal_mean()[1]
    assert rows[0].verdict == stats.verdict


def test_sweep_r_dimension_picks_largest_codebook():
    cfg = make_cfg(trials=2, horizon=50)
    rows = sweep(cfg, "R", [3, 5])
    assert [r.R for r in rows] == [3, 5]


def test_sweep_rejects_bad_input():
    cfg = make_cfg(trials=2, horizon=50)
    with pytest.raises(ValueError):
        sweep(cfg, "Q", [1.0])
    with pytest.raises(ValueError):
        sweep(cfg, "P", [])


def test_sweep_large_p_drives_verdict_unstable():
    # with L fixed, growing P inflates the cell width P*M/L until the
    # contraction margin flips sign and the tracker feeds back on itself
    cfg = make_cfg(trials=40, horizon=1200,
                   params=StrategyParams(L=32, P=2.0, M0=1.0, K=2.0, c=0.2))
    rows = sweep(cfg, "P", [2.0, 3200.0])
    assert rows[0].verdict == "stable"
    assert rows[-1].verdict == "unstable"


# --- output files ---------------------------------------------------------------------------

def test_written_files_deterministic(tmp_path):
    cfg = make_cfg(trials=10, horizon=120)
    stats, _ = run_experiment(cfg)
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        write_summary_json(stats, cfg, d / "summary.json")
        write_curve_csv(stats, cfg, d / "curve.csv")
        write_sweep_csv(sweep(cfg, "L", [2]), cfg, d / "sweep.csv")
    for fname in ("summary.json", "curve.csv", "sweep.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
    payload = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert payload["config"]["strategy"]["L"] == EMERGENCY_PARAMS.L
    curve_lines = (tmp_path / "a" / "curve.csv").read_text().splitlines()
    assert curve_lines[0].startswith("# config:")
    assert curve_lines[1] == "n,mean,stderr"


def test_recorded_bundle_matches_traces():
    cfg = make_cfg(trials=5, horizon=200)
    rec, div = run_recorded_bundle(cfg)
    assert not np.any(div >= 0)
    for idx in range(cfg.trials):
        tr = extract_trace(cfg, idx)
        assert np.array_equal(rec["X"][idx], tr.X)
        assert np.array_equal(rec["M"][idx], tr.M[: tr.steps])
        assert np.array_equal(rec["normal"][idx], tr.normal[: tr.steps])


# --- engine memory ---------------------------------------------------------------


def traced_peak(run):
    """tracemalloc's peak over ``run()``, in bytes, and what ``run`` returned."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_streamed_chunk_peak_is_flat_in_the_horizon():
    import zoomctl.harness as hz
    from zoomctl.config import load_config

    # one unrecorded 1024-lane chunk per quantizer policy, at 1000 and 4000
    # steps: an adaptive one with drift statistics, a third of its steps in
    # zoom-out, and a static one.  Their noise is drawn a batch at a time, so
    # only the per-step sums and envelope statistics, tens of bytes per step
    # and group, grow with the horizon: nothing holds 8 bytes per lane and step
    for name in ("emergency_rich", "static_baseline"):
        peaks = []
        for horizon in (1000, 4000):
            cfg = load_config(CONFIGS / f"{name}.cfg", ["trials=1024", f"horizon={horizon}"])
            peak, out = traced_peak(lambda: hz._run_chunk(cfg, range(cfg.trials), 0, True, drift=True))
            assert len(out.sum_xsq) == 2
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 3000 * 100 * 2, name


def test_engine_peak_is_a_small_multiple_of_the_gains():
    from zoomctl.config import load_config

    # an oracle's chunk draws its gains whole: 16 MB at 1024 lanes and 2000
    # steps, beside which its blocks and disturbance draws are small
    cfg = load_config(CONFIGS / "emergency_rich.cfg", ["trials=1024", "horizon=2000",
                                                        "policy=perfect_observation"])
    gains = cfg.trials * cfg.horizon * 8
    peak, _ = traced_peak(lambda: run_experiment(cfg))
    assert gains <= peak <= 1.6 * gains


def test_one_chunk_recording_holds_one_copy_of_its_records():
    # a recording is one chunk, whose block rows are the records, at 40
    # trials and at 1030, more than two trial groups
    for trials in (40, 1030):
        cfg = make_cfg(trials=trials, horizon=2000)
        peak, (rec, div) = traced_peak(lambda: run_recorded_bundle(cfg))
        held = sum(col.nbytes for col in rec.values()) + div.nbytes
        # a second copy of the records would double them
        assert peak <= 1.5 * held, trials


def test_narrow_last_chunk_reuses_the_gains_buffer(monkeypatch):
    import zoomctl.harness as hz

    # an oracle's chunks draw their gains whole: at 1030 trials a chunk of
    # two 512-trial groups, then one of 6 lanes, whose gains take the first
    # rows of the ensemble's buffer
    cfg = make_cfg(trials=1030, horizon=600, policy=Policy.perfect())
    drawn = []
    predraw = hz._predraw

    def spy(cfg, indices, out=None, batch=None):
        a, rngs, a_rngs = predraw(cfg, indices, out, batch)
        drawn.append(a)
        return a, rngs, a_rngs

    monkeypatch.setattr(hz, "_predraw", spy)
    outs = hz._run_chunks(cfg, False)
    assert [a.shape for a in drawn] == [(1024, 600), (6, 600)]
    assert np.shares_memory(drawn[0], drawn[1])
    traces = [extract_trace(cfg, t) for t in range(1024, 1030)]
    assert not any(tr.diverged for tr in traces)
    # the last group's per-step sums are those of its trials' X^2, in trial order
    want = functools.reduce(np.add, (tr.X * tr.X for tr in traces))
    assert np.array_equal(outs[-1].sum_xsq[-1].view(np.int64), want.view(np.int64))
