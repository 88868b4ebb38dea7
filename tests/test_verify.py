"""The exact checks' shared recorded pass, through the CLI."""

import csv
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import zoomctl.harness as hz
from zoomctl import verify
from zoomctl.cli import main
from zoomctl.config import load_config

EMERGENCY_CFG = str(Path(__file__).resolve().parent.parent / "configs" / "emergency_rich.cfg")
SMALL = ["--set", "trials=120", "--set", "horizon=300"]


def run_verify(capsys, checks=None):
    argv = ["verify", EMERGENCY_CFG] + SMALL
    if checks is not None:
        argv += ["--checks", checks]
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    # (name, verdict, detail); the name column's padding depends on the set
    return code, [tuple(line.split(None, 2)) for line in captured.out.splitlines()]


def test_all_checks_match_single_check_runs(capsys):
    code_all, lines_all = run_verify(capsys)
    singles = []
    for name in verify.CHECK_NAMES:
        _, lines = run_verify(capsys, name)
        singles += lines
    assert [line[0] for line in lines_all] == list(verify.CHECK_NAMES)
    assert lines_all == singles
    assert code_all == (0 if all(line[1] == "PASS" for line in singles) else 2)


def test_checks_keep_requested_order(capsys):
    _, lines = run_verify(capsys, "drift,containment")
    _, drift = run_verify(capsys, "drift")
    _, containment = run_verify(capsys, "containment")
    assert lines == drift + containment


def test_exact_checks_share_one_recorded_pass(capsys, monkeypatch):
    calls = []
    run_chunk = hz._run_chunk

    def counting(cfg, indices, record_fields, envelope, **kwargs):
        calls.append((len(indices), cfg.horizon, record_fields))
        return run_chunk(cfg, indices, record_fields, envelope, **kwargs)

    monkeypatch.setattr(hz, "_run_chunk", counting)
    code, lines = run_verify(capsys, "tracker_equality,containment,domination")
    assert code == 0
    assert [line[1] for line in lines] == ["PASS"] * 3
    assert calls == [(verify.EXACT_TRIALS, 300, verify.EXACT_TRIALS)]


# (config, overrides, --checks, engine passes): one pass per horizon.  At
# emergency_rich's 2000 steps the exact checks' lanes lead drift's adaptive
# slice beside perfect_observation, and zero_control's 20 steps run apart; at
# reference's 10 000 the exact lanes ride beside perfect_observation and
# drift, capped at 2000 steps, runs apart too
PASS_COUNTS = [
    ("emergency_rich.cfg", ["trials=2000"], None, 2),
    ("reference.cfg", [], None, 3),
    ("emergency_rich.cfg", ["trials=2000"], "oracle_match", 2),
    ("emergency_rich.cfg", ["trials=2049"], None, 2),
    ("reference.cfg", ["trials=2049", "horizon=2100"], None, 3),
    ("emergency_rich.cfg", ["trials=2049"], "oracle_match", 2),
]


@pytest.mark.parametrize("name, sets, checks, passes", PASS_COUNTS)
def test_verify_runs_one_engine_pass_per_horizon(capsys, monkeypatch, name, sets, checks, passes):
    # _predraw seeds each engine chunk's trials, once per chunk of 2048
    calls = []
    predraw = hz._predraw

    def counting(cfg, indices):
        calls.append((cfg.horizon, len(indices)))
        return predraw(cfg, indices)

    monkeypatch.setattr(hz, "_predraw", counting)
    trials = load_config(Path(EMERGENCY_CFG).parent / name, sets).trials
    argv = ["verify", str(Path(EMERGENCY_CFG).parent / name)] + [a for s in sets for a in ("--set", s)]
    assert main(argv + (["--checks", checks] if checks else [])) in (0, 2)
    chunks = -(-trials // (4 * hz.CHUNK_TRIALS))
    assert len(calls) == passes * chunks, calls
    assert "Traceback" not in capsys.readouterr().err


def corrupt_streamed_pass(monkeypatch, *cells):
    """``verify.run_recorded_bundle`` with each (field, trial, index, corrupt) cell corrupted in copies of the
    block rows that hold it, before the exact checks' pass reads them."""
    def corrupted(cfg, consume):
        def changed(b0, rows, diverged_at):
            rows = {f: c.copy() for f, c in rows.items()}
            for field, trial, index, corrupt in cells:
                if 0 <= index - b0 < rows[field].shape[1]:
                    rows[field][trial, index - b0] = corrupt(rows[field][trial, index - b0])
            consume(b0, rows, diverged_at)
        return hz.run_recorded_bundle(cfg, changed)

    monkeypatch.setattr(verify, "run_recorded_bundle", corrupted)


# (field, trial, step, corruption) of one recorded value in the shared pass
CORRUPTIONS = [
    ("M", 0, 0, lambda v: 2.0 * v),
    ("I", 7, 150, lambda v: 0.5 * v),
    ("rho", 99, 299, lambda v: -v),
    ("U", 60, 42, lambda v: v + 1.0),
    ("normal", 33, 201, lambda v: not v),
    ("symbol", 2, 3, lambda v: -7),
]


def test_tracker_desync_fails_every_exact_check(capsys, monkeypatch):
    for field, trial, step, corrupt in CORRUPTIONS:
        corrupt_streamed_pass(monkeypatch, (field, trial, step, corrupt))
        code, lines = run_verify(capsys, "domination,tracker_equality,containment")
        assert code == 2
        msg = f"recorded trial {trial} differs at step {step} ({field}): "
        if field == "symbol":
            msg += "received symbol -7 outside codebook [0, 16]"
        else:
            msg += f"expected {field}="
        assert [line[:2] for line in lines] == [
            (name, "FAIL") for name in ("domination", "tracker_equality", "containment")
        ]
        assert all(line[2].startswith(msg) for line in lines), lines


def test_lowest_corrupted_trial_fails_though_its_bad_cell_is_in_a_later_block(capsys, monkeypatch):
    # 50-step blocks: trial 40 goes bad in the first, trial 7 only in the
    # sixth, at two steps; the lowest trial is reported, at its first bad step
    corrupt_streamed_pass(monkeypatch, ("M", 40, 20, lambda v: 2.0 * v), ("U", 7, 280, lambda v: v + 1.0),
                          ("I", 7, 260, lambda v: 0.5 * v))
    code, lines = run_verify(capsys, "tracker_equality,containment,domination")
    assert code == 2
    assert [line[:2] for line in lines] == [(name, "FAIL") for name in verify.EXACT_CHECKS]
    assert all(line[2].startswith("recorded trial 7 differs at step 260 (I): expected I=") for line in lines), lines


# (config, overrides) whose verify output must not depend on the time blocks;
# in the last, every recorded trial diverges inside the horizon
BLOCK_CASES = {
    "reference": ("reference.cfg", ["trials=120", "horizon=300"]),
    "emergency_rich": ("emergency_rich.cfg", SMALL[1::2]),
    "diverging": ("emergency_rich.cfg", ["trials=120", "horizon=400", "A.stddev=0.99", "P=64"]),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_verify_is_independent_of_time_blocks(capsys, monkeypatch, tmp_path, case):
    name, sets = BLOCK_CASES[case]
    runs = []
    for block, draw in ((1, 1), (7, 7), (hz.BLOCK_STEPS, hz.DRAW_STEPS), (400, 400)):
        monkeypatch.setattr(hz, "BLOCK_STEPS", block)
        monkeypatch.setattr(hz, "DRAW_STEPS", draw)
        out = tmp_path / f"{block}-{draw}"
        code = main(["verify", str(Path(EMERGENCY_CFG).parent / name), "--out", str(out)]
                    + [arg for item in sets for arg in ("--set", item)])
        runs.append((code, capsys.readouterr().out, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert all(run == runs[0] for run in runs[1:])
    if case == "diverging":
        assert "100 trials (100 diverged)" in runs[0][1]


@pytest.mark.parametrize("checks", ["containment", "drift,domination", "trace-file-replay"])
def test_exact_checks_need_adaptive_policy(capsys, tmp_path, checks):
    argv = ["verify", EMERGENCY_CFG, "--set", "policy=zero_control", "--checks", checks]
    if checks == "trace-file-replay":
        # an adaptive trace replayed under static_baseline.cfg, which sets no P, K or c
        main(["simulate", EMERGENCY_CFG, "--out", str(tmp_path), "--keep-traces", "1",
              "--set", "horizon=20", "--set", "trials=2"])
        capsys.readouterr()
        argv = ["verify", str(Path(EMERGENCY_CFG).parent / "static_baseline.cfg"), "--checks", "tracker_equality",
                "--trace-file", str(tmp_path / "trace_0000.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "requires policy=adaptive_fixed_rate" in captured.err
    assert captured.out == ""


# (field, trial, index, the step whose plant forms the changed value)
PLANT_CORRUPTIONS = [("X", 12, 40, 39), ("A", 55, 7, 7), ("W", 99, 299, 299)]


@pytest.mark.parametrize("field, trial, index, step", PLANT_CORRUPTIONS, ids=[c[0] for c in PLANT_CORRUPTIONS])
def test_recorded_plant_change_fails_every_exact_check(capsys, monkeypatch, field, trial, index, step):
    corrupt_streamed_pass(monkeypatch, (field, trial, index, lambda v: 2.0 * v + 1.0))
    code, lines = run_verify(capsys, "containment,domination,tracker_equality")
    assert code == 2
    assert [line[:2] for line in lines] == [
        (name, "FAIL") for name in ("containment", "domination", "tracker_equality")
    ]
    msg = f"recorded trial {trial} differs at step {step} (plant): expected X_{step + 1}="
    assert all(line[2].startswith(msg) for line in lines), lines


# the scalar reruns of trials 0-2, each changed before the pass compares
# its lanes with them: X in the first block and in the sixth (at 50-step
# blocks), and the divergence step
SCALAR_DETAILS = {
    "X": "scalar run_trial differs from recorded trial 1 at step 10: X=",
    "X_late": "scalar run_trial differs from recorded trial 1 at step 260: X=",
    "diverged_at": "scalar run_trial of trial 2 diverges at step 250, its recorded lane at -1 (-1: never)",
}


@pytest.mark.parametrize("column", SCALAR_DETAILS)
def test_scalar_replays_compare_every_recorded_column(capsys, monkeypatch, column):
    rerun, reruns = verify.run_trial, []

    def corrupted(*args):  # trials 0, 1 and 2, in order
        tr = rerun(*args)
        if column.startswith("X") and len(reruns) == 1:
            tr.X[260 if column == "X_late" else 10] *= 2.0
        if column == "diverged_at" and len(reruns) == 2:
            tr = replace(tr, diverged_at=250)
        reruns.append(tr)
        return tr

    monkeypatch.setattr(verify, "run_trial", corrupted)
    code, lines = run_verify(capsys, "tracker_equality")
    assert code == 2
    assert lines[0][:2] == ("tracker_equality", "FAIL")
    assert lines[0][2].startswith(SCALAR_DETAILS[column]), lines


def test_scalar_rerun_matching_only_the_lane_recorded_alone_fails(capsys, monkeypatch):
    # the reruns are compared with the streamed lanes through block digests,
    # and a difference is located in the lane recorded again alone; when that
    # lane agrees with the rerun (here both carry the same planted change),
    # the streamed lane is named
    rerun = verify.run_trial

    def changed(a_spec, w_spec, params, horizon, seed):
        tr = rerun(a_spec, w_spec, params, horizon, seed)
        tr.X[10] *= 2.0
        return tr

    monkeypatch.setattr(verify, "run_trial", changed)
    monkeypatch.setattr(verify, "extract_trace", lambda cfg, t: changed(
        cfg.a_spec, cfg.w_spec, cfg.params, cfg.horizon, hz.trial_seed(cfg.master_seed, t)))
    code, lines = run_verify(capsys, "tracker_equality")
    assert code == 2
    assert lines == [("tracker_equality", "FAIL", "scalar run_trial differs from the streamed lane of trial 0, "
                                                  "not from the lane recorded alone")]


def test_domination_violation_names_its_trial(capsys, monkeypatch, tmp_path):
    n_at = verify.dominating_at

    def inflated(x_abs, *args):
        x_abs[37] = 1e6  # trial 37's |X| where domination reads it; the lane audit would catch it in the rows
        return n_at(x_abs, *args)

    monkeypatch.setattr(verify, "dominating_at", inflated)
    code = main(["verify", EMERGENCY_CFG, "--checks", "domination", "--out", str(tmp_path)] + SMALL)
    out = capsys.readouterr().out
    with open(tmp_path / "domination_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert code == 2
    # every normal step of trial 37 fails and its zoom-out steps pass, as
    # their frozen tracker grows to 1e6
    rec, _ = hz.run_recorded_bundle(load_config(EMERGENCY_CFG, ["trials=100", "horizon=300"]))
    normal = rec["normal"][37]
    first = int(np.argmax(normal))
    assert 0 < normal.sum() < len(normal)
    assert [row for row in rows if row["violations"] != "0"] == [
        {"trace": "37", "steps": "300", "unbounded": "0", "violations": str(normal.sum()),
         "first_violation": str(first), "max_ratio": rows[37]["max_ratio"]}]
    assert float(rows[37]["max_ratio"]) > 1.0
    report = json.loads((tmp_path / "domination_report.json").read_text())
    assert [(v["trace"], v["n0"], v["abs_x"]) for v in report["first_violations"]] == [(37, first, 1e6)]
    assert (report["checked"], report["ok"]) == (100 * 300, False)
    assert out.startswith(f"domination  FAIL  {normal.sum()} violations / 30000; "
                          f"first at trial 37, |X_{first}|=1000000.0 > N=")


def test_planted_domination_violation_fails_at_one_step_whatever_the_blocks(capsys, monkeypatch, tmp_path):
    # N scaled by 0.9: emergency_rich's max ratio is 0.985, here as over its
    # full 2000 steps, so 0.99 would still pass.  The first violation lands
    # in a different time block at each block length
    n_at = verify.dominating_at
    monkeypatch.setattr(verify, "dominating_at", lambda *args: 0.9 * n_at(*args))
    runs = []
    for block, draw in ((1, 1), (7, 7), (hz.BLOCK_STEPS, hz.DRAW_STEPS), (400, 400)):
        monkeypatch.setattr(hz, "BLOCK_STEPS", block)
        monkeypatch.setattr(hz, "DRAW_STEPS", draw)
        out = tmp_path / f"{block}-{draw}"
        code = main(["verify", EMERGENCY_CFG, "--checks", "domination", "--out", str(out)] + SMALL)
        runs.append((code, capsys.readouterr().out, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert all(run == runs[0] for run in runs[1:])
    code, line, files = runs[0]
    assert code == 2
    assert line.startswith("domination  FAIL  2832 violations / 30000; first at trial 0, |X_10|=")
    assert json.loads(files["domination_report.json"])["first_violations"][0]["n0"] == 10


# containment's detail line and the sha256 of the recorded pass's floor
# flags (C-ordered bool bytes, trials x horizon, gathered from the lane
# audit of each block); a change to where the flags are formed must leave
# both as they are
CONTAINMENT_PINS = [
    ("emergency_rich.cfg", ["trials=150", "horizon=3000"],
     "0 violations over 211230 normal steps (137892 unfloored, 73338 floored at M0; 100 trials)",
     "5862e096a9693acc53ffb08f904a80a36ed4f11b7e91456e4630b1befca3e98e"),
    ("reference.cfg", ["trials=150", "horizon=3000"],
     "0 violations over 300000 normal steps (0 unfloored, 300000 floored at M0; 100 trials)",
     "f0a1c470ca104347cd08ab760cb2db9d3f9c6ccc7497c21b5a713646d7ec3c41"),
    ("emergency_rich.cfg", ["P=1.01", "horizon=300"],
     "0 violations over 1313 normal steps (0 unfloored, 1313 floored at M0; 100 trials)",
     "ffb26fe4ffc2393b2e68f0620670ce5b17eff257f0416415bded5f8853510071"),
    # every recorded trial diverges at step 168: only its executed steps count
    ("emergency_rich.cfg", ["A.stddev=0.99", "P=64", "horizon=3000"],
     "0 violations over 16800 normal steps (16800 unfloored, 0 floored at M0; 100 trials)",
     "886715e4051e827f4fe215df3053af3f85ad0d352db2c829c7487af6d78efe30"),
    # P/L >= 2 leaves step 0 unfloored, with X_0 = 0 exactly at M - 2I
    ("emergency_rich.cfg", ["L=1", "P=4", "horizon=200"],
     "0 violations over 19993 normal steps (19993 unfloored, 0 floored at M0; 100 trials)",
     "28b4f41a7f3ee6d8cc87272db6e09c6d3566551fd4d18702b041a21658272a85"),
]
# what tracker_equality's PASS line says it replayed where a recorded trial
# diverged; else it is 100 trials x the horizon
TRACKER_DIVERGED = {
    ("A.stddev=0.99", "P=64", "horizon=3000"): "100 trials (100 diverged), 16800 executed steps",
}
# domination reads only a diverged trial's executed steps; with its
# divergence step, where |X| has blown up, the max ratio would read 0.311
DOMINATION_DIVERGED = {
    ("A.stddev=0.99", "P=64", "horizon=3000"):
        "|X_n| <= N_n at all 16800 executed steps of 100 trials (max ratio 0.238)",
}


@pytest.mark.parametrize("name, overrides, detail, digest", CONTAINMENT_PINS)
def test_containment_floor_counts_are_pinned(exact_pass, name, overrides, detail, digest):
    cfg = load_config(Path(EMERGENCY_CFG).parent / name, overrides)
    recorded, clamped = exact_pass(cfg)
    assert clamped.dtype == bool and clamped.shape == (verify.EXACT_TRIALS, cfg.horizon)
    assert hashlib.sha256(np.ascontiguousarray(clamped).tobytes()).hexdigest() == digest
    result = verify.check_containment(cfg, recorded)
    assert result.passed and result.detail == detail
    examined = TRACKER_DIVERGED.get(tuple(overrides), f"100 trials x {cfg.horizon} steps")
    tracker = verify.check_tracker_equality(cfg, recorded=recorded)
    assert tracker.passed and tracker.detail == f"{examined} replayed from their symbols, trackers bit-identical"
    if tuple(overrides) in DOMINATION_DIVERGED:
        assert verify.check_domination(cfg, recorded).detail == DOMINATION_DIVERGED[tuple(overrides)]


def test_containment_admits_a_state_exactly_at_its_live_range():
    from zoomctl.distributions import DistributionSpec

    # L = 1, P = 4, M0 = 1/8: X_0 = 0 falls in the cell [0, 1/2], so U_0 = 1/4
    # (mu_A = 1, mu_W = 0), and W_0 = 2.25 puts X_1 = 2 exactly on the live
    # range P*M_0, the top of its cell, where rho*X_1 = M_1
    cfg = replace(load_config(EMERGENCY_CFG, ["L=1", "P=4", "M0=0.125", "horizon=20"]),
                  w_spec=DistributionSpec.two_point(2.25, 0.5, -2.25))
    rec, _ = hz.run_recorded_bundle(replace(cfg, trials=min(cfg.trials, verify.EXACT_TRIALS)))
    at_top = rec["normal"] & (rec["rho"] * rec["X"][:, :cfg.horizon] == rec["M"])
    assert np.count_nonzero(at_top[:, 1]) == np.count_nonzero(at_top) == 54
    result = verify.check_containment(cfg, verify.record_exact(cfg))
    assert result.passed
    assert result.detail == "0 violations over 1953 normal steps (1953 unfloored, 0 floored at M0; 100 trials)"
