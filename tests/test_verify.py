"""The exact checks' shared recorded pass, through the CLI."""

import csv
import hashlib
import json
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

    def counting(cfg, indices, record_fields, envelope):
        calls.append((len(indices), cfg.horizon, record_fields))
        return run_chunk(cfg, indices, record_fields, envelope)

    monkeypatch.setattr(hz, "_run_chunk", counting)
    code, lines = run_verify(capsys, "tracker_equality,containment,domination")
    assert code == 0
    assert [line[1] for line in lines] == ["PASS"] * 3
    assert calls == [(verify.EXACT_TRIALS, 300, verify.EXACT_TRIALS)]


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
    record = verify.run_recorded_bundle
    for field, trial, step, corrupt in CORRUPTIONS:
        def corrupted(cfg):
            rec, diverged_at = record(cfg)
            rec[field][trial, step] = corrupt(rec[field][trial, step])
            return rec, diverged_at

        monkeypatch.setattr(verify, "run_recorded_bundle", corrupted)
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
    record = verify.run_recorded_bundle

    def corrupted(cfg):
        rec, diverged_at = record(cfg)
        rec[field][trial, index] = 2.0 * rec[field][trial, index] + 1.0
        return rec, diverged_at

    monkeypatch.setattr(verify, "run_recorded_bundle", corrupted)
    code, lines = run_verify(capsys, "containment,domination,tracker_equality")
    assert code == 2
    assert [line[:2] for line in lines] == [
        (name, "FAIL") for name in ("containment", "domination", "tracker_equality")
    ]
    msg = f"recorded trial {trial} differs at step {step} (plant): expected X_{step + 1}="
    assert all(line[2].startswith(msg) for line in lines), lines


def _changed_after_audit(monkeypatch, change):
    """``verify.record_exact`` with ``change`` applied to its audited records."""
    record = verify.record_exact

    def changed(cfg):
        rec, diverged_at = record(cfg)
        change(rec, diverged_at)
        return rec, diverged_at

    monkeypatch.setattr(verify, "record_exact", changed)


# changed after record_exact's audit, which would catch the X change; the
# scalar reruns of trials 0-2 compare X and the divergence steps with the
# recorded pass
SCALAR_DETAILS = {
    "X": "scalar run_trial differs from recorded trial 1 at step 10: X=",
    "diverged_at": "scalar run_trial of trial 2 diverges at step -1, its recorded lane at 250 (-1: never)",
}


@pytest.mark.parametrize("column", SCALAR_DETAILS)
def test_scalar_replays_compare_every_recorded_column(capsys, monkeypatch, column):
    def corrupt(rec, diverged_at):
        if column == "X":
            rec["X"][1, 10] *= 2.0
        else:
            diverged_at[2] = 250

    _changed_after_audit(monkeypatch, corrupt)
    code, lines = run_verify(capsys, "tracker_equality")
    assert code == 2
    assert lines[0][:2] == ("tracker_equality", "FAIL")
    assert lines[0][2].startswith(SCALAR_DETAILS[column]), lines


def test_domination_violation_names_its_trial(capsys, monkeypatch, tmp_path):
    def inflate(rec, diverged_at):
        rec["X"][37] = 1e6  # after record_exact's audit, which would catch it

    _changed_after_audit(monkeypatch, inflate)
    code = main(["verify", EMERGENCY_CFG, "--checks", "domination", "--out", str(tmp_path)] + SMALL)
    out = capsys.readouterr().out
    with open(tmp_path / "domination_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [row for row in rows if row["ok"] == "0"]
    assert code == 2
    # the sampled freeze points, each trial's 10 drawn from [0, its executed
    # steps) in trial order, pinned by the sha256 of the (trace, n0) rows
    points = "".join(f"{row['trace']},{row['n0']}\n" for row in rows)
    assert hashlib.sha256(points.encode()).hexdigest() == (
        "b4714416c2057863d8c831305bde8d04a8f24a72a22317744245732ee55c1d3a")
    assert 0 < len(bad) < verify.DOMINATION_N0_PER_TRACE  # the zoom-out points still pass
    assert {row["trace"] for row in bad} == {"37"}
    report = json.loads((tmp_path / "domination_report.json").read_text())
    assert [(v["trace"], v["n0"]) for v in report["violations"]] == [(37, int(row["n0"])) for row in bad]
    assert out.startswith(f"domination  FAIL  {len(bad)} violations / 1000; "
                          f"first at trial 37, |X_{bad[0]['n0']}|=1000000.0 > N=")


# containment's detail line and the sha256 of the recorded pass's floor
# flags (C-ordered bool bytes, trials x horizon); a change to where the
# flags are formed must leave both as they are
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
]
# what tracker_equality's PASS line says it replayed where a recorded trial
# diverged; else it is 100 trials x the horizon
TRACKER_DIVERGED = {
    ("A.stddev=0.99", "P=64", "horizon=3000"): "100 trials (100 diverged), 16800 executed steps",
}


@pytest.mark.parametrize("name, overrides, detail, digest", CONTAINMENT_PINS)
def test_containment_floor_counts_are_pinned(name, overrides, detail, digest):
    cfg = load_config(Path(EMERGENCY_CFG).parent / name, overrides)
    recorded = verify.record_exact(cfg)
    clamped = recorded[0]["clamped"]
    assert clamped.dtype == bool and clamped.shape == (verify.EXACT_TRIALS, cfg.horizon)
    assert hashlib.sha256(np.ascontiguousarray(clamped).tobytes()).hexdigest() == digest
    result = verify.check_containment(cfg, recorded)
    assert result.passed and result.detail == detail
    examined = TRACKER_DIVERGED.get(tuple(overrides), f"100 trials x {cfg.horizon} steps")
    tracker = verify.check_tracker_equality(cfg, recorded=recorded)
    assert tracker.passed and tracker.detail == f"{examined} replayed from their symbols, trackers bit-identical"
