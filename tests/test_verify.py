"""The exact checks' shared recorded pass, through the CLI."""

from pathlib import Path

import numpy as np
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


def test_tracker_desync_fails_every_exact_check(capsys, monkeypatch):
    decode = hz._decode_symbol

    def mirrored(symbol, L, k_out, normal_out):
        # the controller reads every normal symbol as the mirrored cell
        decode(symbol, L, k_out, normal_out)
        np.subtract(-1.0, k_out, out=k_out)

    monkeypatch.setattr(hz, "_decode_symbol", mirrored)
    code, lines = run_verify(capsys, "domination,tracker_equality,containment")
    assert code == 2
    msg = "encoder and controller trackers disagree at step 0"
    assert lines == [(name, "FAIL", msg) for name in ("domination", "tracker_equality", "containment")]


@pytest.mark.parametrize("checks", ["containment", "drift,domination"])
def test_exact_checks_need_adaptive_policy(capsys, checks):
    code = main(["verify", EMERGENCY_CFG, "--set", "policy=zero_control", "--checks", checks])
    captured = capsys.readouterr()
    assert code == 1
    assert "requires policy=adaptive_fixed_rate" in captured.err
    assert captured.out == ""
