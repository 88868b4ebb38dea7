"""The exact checks' shared recorded pass, through the CLI."""

import csv
import json
from pathlib import Path

import pytest

import zoomctl.harness as hz
from zoomctl import verify
from zoomctl.cli import main

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
    assert calls == [(verify.EXACT_TRIALS, 300, verify.EXACT_FIELDS)]


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
        def corrupted(cfg, **kwargs):
            rec, diverged_at = record(cfg, **kwargs)
            rec[field][trial, step] = corrupt(rec[field][trial, step])
            return rec, diverged_at

        monkeypatch.setattr(verify, "run_recorded_bundle", corrupted)
        code, lines = run_verify(capsys, "domination,tracker_equality,containment")
        assert code == 2
        msg = f"replayed tracker differs at trial {trial}, step {step}: "
        if field == "symbol":
            msg += "received symbol -7 outside codebook [0, 16]"
        else:
            msg += f"expected {'mode' if field == 'normal' else field}="
        assert [line[:2] for line in lines] == [
            (name, "FAIL") for name in ("domination", "tracker_equality", "containment")
        ]
        assert all(line[2].startswith(msg) for line in lines), lines


@pytest.mark.parametrize("checks", ["containment", "drift,domination"])
def test_exact_checks_need_adaptive_policy(capsys, checks):
    code = main(["verify", EMERGENCY_CFG, "--set", "policy=zero_control", "--checks", checks])
    captured = capsys.readouterr()
    assert code == 1
    assert "requires policy=adaptive_fixed_rate" in captured.err
    assert captured.out == ""


# the symbol replay reads neither X nor the divergence steps; the scalar
# reruns of trials 0-2 compare both with the recorded pass
SCALAR_DETAILS = {
    "X": "scalar run_trial differs from recorded trial 1 at step 10: X=",
    "diverged_at": "scalar run_trial of trial 2 diverges at step -1, its recorded lane at 250 (-1: never)",
}


@pytest.mark.parametrize("column", SCALAR_DETAILS)
def test_scalar_replays_compare_every_recorded_column(capsys, monkeypatch, column):
    record = verify.run_recorded_bundle

    def corrupted(cfg, **kwargs):
        rec, diverged_at = record(cfg, **kwargs)
        if column == "X":
            rec["X"][1, 10] *= 2.0
        else:
            diverged_at[2] = 250
        return rec, diverged_at

    monkeypatch.setattr(verify, "run_recorded_bundle", corrupted)
    code, lines = run_verify(capsys, "tracker_equality")
    assert code == 2
    assert lines[0][:2] == ("tracker_equality", "FAIL")
    assert lines[0][2].startswith(SCALAR_DETAILS[column]), lines


def test_domination_violation_names_its_trial(capsys, monkeypatch, tmp_path):
    record = verify.run_recorded_bundle

    def inflated(cfg, **kwargs):
        # the symbol replay reads no X, so only domination sees the change
        rec, diverged_at = record(cfg, **kwargs)
        rec["X"][37] = 1e6
        return rec, diverged_at

    monkeypatch.setattr(verify, "run_recorded_bundle", inflated)
    code = main(["verify", EMERGENCY_CFG, "--checks", "domination", "--out", str(tmp_path)] + SMALL)
    out = capsys.readouterr().out
    with open(tmp_path / "domination_report.csv", newline="") as fh:
        bad = [row for row in csv.DictReader(fh) if row["ok"] == "0"]
    assert code == 2
    assert 0 < len(bad) < verify.DOMINATION_N0_PER_TRACE  # the zoom-out points still pass
    assert {row["trace"] for row in bad} == {"37"}
    report = json.loads((tmp_path / "domination_report.json").read_text())
    assert [(v["trace"], v["n0"]) for v in report["violations"]] == [(37, int(row["n0"])) for row in bad]
    assert out.startswith(f"domination  FAIL  {len(bad)} violations / 1000; "
                          f"first at trial 37, |X_{bad[0]['n0']}|=1000000.0 > N=")
