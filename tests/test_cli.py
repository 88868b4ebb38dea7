import json
import warnings
from pathlib import Path

import pytest

from zoomctl.cli import main
from zoomctl.config import ConfigError, build_experiment, load_config, parse_config_text

GOOD_CFG = """
# comment line
A.kind = gaussian
A.mean = 1.0
A.stddev = 0.5
W.kind = gaussian
W.mean = 0.0
W.stddev = 1.0
P = 2.0
L = 8
M0 = 0.1
K = 8.0
c = 0.2
policy = adaptive_fixed_rate
horizon = 1200
trials = 150
seed = 7
alpha = 4.5
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "good.cfg"
    path.write_text(GOOD_CFG)
    return path


# --- config parsing -------------------------------------------------------------

def test_parse_and_build(cfg_file):
    cfg = load_config(cfg_file)
    assert cfg.params.L == 8
    assert cfg.horizon == 1200
    assert cfg.a_spec.kind == "gaussian"
    assert cfg.policy.kind == "adaptive_fixed_rate"


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config_text("A.kind = gaussian\nbogus = 1\n")
    assert err.value.line == 2
    assert "bogus" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("P = 2\nP = 3\n")


def test_missing_strategy_keys_for_adaptive():
    text = GOOD_CFG.replace("K = 8.0\n", "")
    with pytest.raises(ConfigError, match="requires strategy keys: K"):
        build_experiment(parse_config_text(text))


def test_oracle_policy_needs_no_strategy_block():
    text = """
A.kind = gaussian
A.mean = 1.0
A.stddev = 0.5
W.kind = gaussian
W.mean = 0.0
W.stddev = 1.0
policy = zero_control
horizon = 100
trials = 10
seed = 1
"""
    cfg = build_experiment(parse_config_text(text))
    assert cfg.policy.kind == "zero_control"


def test_unstabilizable_gain_rejected():
    text = GOOD_CFG.replace("A.stddev = 0.5", "A.stddev = 1.1")
    with pytest.raises(ConfigError, match="not second-moment stabilizable"):
        build_experiment(parse_config_text(text))


def test_mismatched_family_parameter_rejected():
    text = GOOD_CFG.replace("A.mean = 1.0", "A.mean = 1.0\nA.dof = 5.0")
    with pytest.raises(ConfigError, match="does not apply"):
        build_experiment(parse_config_text(text))


def test_overrides(cfg_file):
    cfg = load_config(cfg_file, ["L=16", "trials=3"])
    assert cfg.params.L == 16
    assert cfg.trials == 3
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(cfg_file, ["nope=1"])


def test_range_key_only_for_static(cfg_file):
    with pytest.raises(ConfigError, match="static_quantizer only"):
        load_config(cfg_file, ["policy.range=5.0"])
    cfg = load_config(cfg_file, ["policy=static_quantizer", "policy.range=5.0"])
    assert cfg.static_range() == 5.0


# --- CLI end to end -------------------------------------------------------------

def test_cli_rate(capsys):
    assert main(["rate", "8"]) == 0
    assert capsys.readouterr().out == "L=8 num_symbols=17 R=5\n"
    assert main(["rate", str(2**60)]) == 0
    assert capsys.readouterr().out.endswith(f"num_symbols={2**61 + 1} R=62\n")
    assert main(["rate", "0"]) == 1


def test_cli_simulate_writes_outputs(tmp_path, cfg_file, capsys):
    out = tmp_path / "out"
    code = main(
        ["simulate", str(cfg_file), "--out", str(out), "--keep-traces", "2",
         "--set", "horizon=1100", "--set", "trials=60"]
    )
    assert code == 0  # stable config
    assert (out / "summary.json").exists()
    assert (out / "curve.csv").exists()
    assert (out / "trace_0000.csv").exists()
    assert (out / "trace_0001.csv").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["verdict"] == "stable"
    assert payload["config"]["horizon"] == 1100


def test_cli_simulate_keep_traces_zero(tmp_path, cfg_file):
    out = tmp_path / "out0"
    main(["simulate", str(cfg_file), "--out", str(out),
          "--set", "horizon=1100", "--set", "trials=30"])
    assert not list(out.glob("trace_*.csv"))


def test_cli_simulate_reruns_byte_identical(tmp_path, cfg_file):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        main(["simulate", str(cfg_file), "--out", str(out),
              "--set", "horizon=1100", "--set", "trials=40"])
        outs.append(out)
    for fname in ("summary.json", "curve.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_cli_simulate_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CFG.replace("A.stddev = 0.5", "A.stddev = 1.1"))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 1
    missing = tmp_path / "nope.cfg"
    assert main(["simulate", str(missing), "--out", str(tmp_path / "o")]) == 1


def test_cli_feasibility_exit_codes(tmp_path, cfg_file):
    # coarse codebook: negative drift margin -> exit 2
    assert main(["feasibility", str(cfg_file)]) == 2
    ref = Path("configs/reference.cfg")
    assert main(["feasibility", str(ref)]) == 0
    # alpha at the boundary of the tail analysis -> exit 1
    assert main(["feasibility", str(cfg_file), "--set", "alpha=4.0"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CFG.replace("A.stddev = 0.5", "A.stddev = 1.1"))
    assert main(["feasibility", str(bad)]) == 1


def test_cli_feasibility_prints_table_and_json(cfg_file, capsys):
    main(["feasibility", str(cfg_file)])
    out = capsys.readouterr().out
    assert "margin_drift" in out
    assert '"ok": false' in out


def test_cli_sweep(tmp_path, cfg_file, capsys):
    out = tmp_path / "sw"
    code = main(
        ["sweep", str(cfg_file), "--dim", "L", "--values", "1,2,8",
         "--out", str(out), "--set", "trials=3", "--set", "horizon=60"]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    rows = [line.split(",") for line in lines[2:]]
    assert [r[2] for r in rows] == ["2", "3", "5"]


def test_cli_sweep_bad_inputs(tmp_path, cfg_file):
    assert main(["sweep", str(cfg_file), "--dim", "Z", "--values", "1", "--out", str(tmp_path)]) == 1
    assert main(["sweep", str(cfg_file), "--dim", "P", "--values", "", "--out", str(tmp_path)]) == 1
    assert main(["sweep", str(cfg_file), "--dim", "P", "--values", "a,b", "--out", str(tmp_path)]) == 1


def test_cli_verify_structural_checks(cfg_file, capsys):
    code = main(
        ["verify", str(cfg_file), "--checks",
         "tracker_equality,containment,domination,oracle_match",
         "--set", "trials=200", "--set", "horizon=600", "--set", "seed=20240"]
    )
    out = capsys.readouterr().out
    assert "tracker_equality" in out and "PASS" in out
    assert code == 0


def test_cli_verify_drift_insufficient_trials(cfg_file):
    code = main(["verify", str(cfg_file), "--checks", "drift", "--set", "trials=50"])
    assert code == 1


def test_cli_verify_corrupted_trace(tmp_path, cfg_file, capsys):
    out = tmp_path / "sim"
    main(["simulate", str(cfg_file), "--out", str(out), "--keep-traces", "1",
          "--set", "horizon=1100", "--set", "trials=5"])
    trace_path = out / "trace_0000.csv"
    lines = trace_path.read_text().splitlines()
    # corrupt the tracker column of step 40 (field index 4 = M)
    parts = lines[41].split(",")
    parts[4] = repr(float(parts[4]) * 1.5)
    lines[41] = ",".join(parts)
    trace_path.write_text("\n".join(lines) + "\n")
    code = main(["verify", str(cfg_file), "--checks", "tracker_equality",
                 "--trace-file", str(trace_path)])
    outtxt = capsys.readouterr().out
    assert code == 2
    assert "first divergent index 40" in outtxt


def test_cli_verify_reports_written(tmp_path, cfg_file):
    out = tmp_path / "rep"
    main(["verify", str(cfg_file), "--checks", "drift,domination", "--out", str(out),
          "--set", "trials=150", "--set", "horizon=900"])
    for name in ("drift_report", "domination_report"):
        assert (out / f"{name}.json").exists()
        assert (out / f"{name}.csv").exists()
    dom_lines = (out / "domination_report.csv").read_text().splitlines()
    assert dom_lines[0] == "trace,n0,abs_x,N,ok"
    assert len(dom_lines) > 100


def test_cli_verify_unknown_check(cfg_file):
    assert main(["verify", str(cfg_file), "--checks", "nonsense"]) == 1


def test_cli_sweep_rate_dimension(tmp_path, cfg_file):
    out = tmp_path / "swr"
    code = main(
        ["sweep", str(cfg_file), "--dim", "R", "--values", "3,5",
         "--out", str(out), "--set", "trials=3", "--set", "horizon=60"]
    )
    assert code == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[2:]]
    assert [(r[0], r[2]) for r in rows] == [("R", "3"), ("R", "5")]
    assert main(["sweep", str(cfg_file), "--dim", "R", "--values", "1", "--out", str(out)]) == 1


def test_cli_rejects_non_integer_thread_count(tmp_path, cfg_file, monkeypatch, capsys):
    monkeypatch.setenv("ZOOMCTL_THREADS", "abc")
    for argv in (
        ["simulate", str(cfg_file), "--out", str(tmp_path / "o")],
        ["verify", str(cfg_file), "--checks", "tracker_equality"],
        ["sweep", str(cfg_file), "--dim", "P", "--values", "2", "--out", str(tmp_path / "s")],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ZOOMCTL_THREADS must be an integer")
    assert not (tmp_path / "o").exists()


def test_cli_verify_engine_tracker_desync_fails(cfg_file, monkeypatch, capsys):
    import zoomctl.verify as verify

    record = verify.run_recorded_bundle

    def desynced(cfg, **kwargs):
        # the engine's recorded tracker leaves the symbol stream at one step
        rec, diverged_at = record(cfg, **kwargs)
        rec["I"][4, 9] *= 2.0
        return rec, diverged_at

    monkeypatch.setattr(verify, "run_recorded_bundle", desynced)
    code = main(["verify", str(cfg_file), "--checks", "tracker_equality",
                 "--set", "trials=20", "--set", "horizon=50"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("tracker_equality  FAIL  replayed tracker differs at trial 4, step 9: expected I=")


def test_cli_verify_scalar_tracker_desync_fails(cfg_file, monkeypatch, capsys):
    import dataclasses

    import zoomctl.loop as loop

    step = loop.controller_step

    def skewed(*args):
        u, tracker = step(*args)
        return u, dataclasses.replace(tracker, M=2.0 * tracker.M)

    monkeypatch.setattr(loop, "controller_step", skewed)
    code = main(["verify", str(cfg_file), "--checks", "tracker_equality",
                 "--set", "trials=20", "--set", "horizon=50"])
    out = capsys.readouterr().out
    assert code == 2
    assert "tracker_equality  FAIL  tracker mismatch at step 0" in out


@pytest.mark.parametrize("dim,value", [("L", "2.9"), ("R", "3.7")])
def test_cli_sweep_rejects_non_integer_codebook_values(tmp_path, cfg_file, capsys, dim, value):
    out = tmp_path / "sw"
    code = main(["sweep", str(cfg_file), "--dim", dim, "--values", f"4,{value}",
                 "--out", str(out), "--set", "trials=3", "--set", "horizon=60"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: sweep over {dim} needs integer values")
    assert not (out / "sweep.csv").exists()


STUDENT_T_CFG = Path(__file__).resolve().parent.parent / "configs" / "reference_student_t.cfg"


@pytest.mark.parametrize("argv", [
    ["simulate", "--set", "A.dof=2"],
    ["verify", "--set", "A.dof=4", "--checks", "oracle_match"],
    ["feasibility", "--set", "A.dof=4"],
    ["sweep", "--set", "A.dof=2", "--dim", "P", "--values", "2"],
], ids=lambda argv: argv[0])
def test_cli_missing_moment_exits_1(tmp_path, capsys, argv):
    command, *rest = argv
    extra = ["--out", str(tmp_path / "o")] if command in ("simulate", "sweep") else []
    code = main([command, str(STUDENT_T_CFG), "--set", "trials=4", "--set", "horizon=20"]
                + rest + extra)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "dof=" in captured.err
    assert "Traceback" not in captured.err


EMERGENCY_CFG = Path(__file__).resolve().parent.parent / "configs" / "emergency_rich.cfg"


@pytest.mark.parametrize("command", ["simulate", "verify", "feasibility", "sweep"])
@pytest.mark.parametrize("overrides, message", [
    (["M0=1e-310"], "cell width P*M0/L"),
    (["P=1e300", "M0=1e10"], "P*M0 overflows"),
])
def test_cli_degenerate_cell_width_exits_1(tmp_path, capsys, command, overrides, message):
    extra = ["--out", str(tmp_path / "o")] if command in ("simulate", "sweep") else []
    if command == "sweep":
        extra += ["--dim", "K", "--values", "2"]
    sets = [arg for item in overrides + ["horizon=1000"] for arg in ("--set", item)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, str(EMERGENCY_CFG)] + sets + extra)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "o").exists()


def test_cli_verify_drift_reports_lanes_diverging_after_a_block(monkeypatch, capsys):
    import zoomctl.harness as hz

    # P = 1e10 sends every trial past the divergence limit at step 17 or 18,
    # beyond the first 7-step block of the drift recording
    monkeypatch.setattr(hz, "BLOCK_STEPS", 7)
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "drift",
                 "--set", "P=1e10", "--set", "horizon=60"])
    captured = capsys.readouterr()
    assert code == 2
    assert "drift  FAIL  200 trials diverged" in captured.out
    assert "Traceback" not in captured.err


def test_cli_verify_halving_with_no_pairs_says_so(capsys):
    # reference.cfg never zooms out: the halving check examines no pair
    code = main(["verify", str(EMERGENCY_CFG.parent / "reference.cfg"), "--checks", "drift",
                 "--set", "trials=100", "--set", "horizon=50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("drift  PASS  100 traces, 50 indices")
    assert out.endswith("halving pairs=0 violations=0 (not exercised)\n")


def test_cli_verify_drift_fails_on_corrupted_halving(monkeypatch, capsys):
    import re

    import numpy as np

    import zoomctl.analysis as analysis

    nsq_from_tau = analysis._nsq_from_tau
    corrupted = []

    def corrupt_one(M, I, K, tau):
        nsq = nsq_from_tau(M, I, K, tau)
        if tau is not None and not corrupted:
            # tau now holds 2 * (tau(n) - n), positive at steps inside a round;
            # corrupt the first such value, early in the envelope fold
            lane, n = np.argwhere(tau > 0)[0]
            nsq[lane, n] *= 3.0
            corrupted.append((lane, n))
        return nsq

    monkeypatch.setattr(analysis, "_nsq_from_tau", corrupt_one)
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "drift", "--set", "horizon=300"])
    out = capsys.readouterr().out
    assert corrupted
    assert code == 2
    assert out.startswith("drift  FAIL  200 traces")
    pairs, violations = map(int, re.search(r"halving pairs=(\d+) violations=(\d+)$", out).groups())
    assert pairs > 10_000 and violations in (1, 2)


def test_cli_simulate_parked_lanes_do_not_overflow(tmp_path, capsys):
    import hashlib

    # P*M0 = 1e295: every trial passes the divergence limit at step 1, and
    # its parked lane would overflow if its tracker kept zooming out
    out = tmp_path / "o"
    sets = ["P=1e300", "M0=1e-5", "horizon=200", "trials=20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", str(EMERGENCY_CFG), "--out", str(out)]
                    + [arg for item in sets for arg in ("--set", item)])
    assert code == 3
    assert "diverged=20/20" in capsys.readouterr().out
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("summary.json", "curve.csv")}
    # the bytes written before parked lanes left the zoom-out multiply
    assert digests == {
        "summary.json": "cf20a6c196c162b0adf46802e5b822fa71ff0aa089e6a06ee951369cac4af0a8",
        "curve.csv": "e2b6460ebca4b433c4b12e6892d63ccfd5fb9de910bf46c3ee7a46bf092b100d",
    }


def test_cli_containment_counts_floored_steps(capsys):
    # reference.cfg floors every normal step at M0; emergency_rich.cfg has both kinds
    code = main(["verify", str(EMERGENCY_CFG.parent / "reference.cfg"), "--checks", "containment",
                 "--set", "trials=20", "--set", "horizon=300"])
    assert code == 0
    assert capsys.readouterr().out == (
        "containment  PASS  0 violations over 6000 normal steps (0 unfloored, 6000 floored at M0; 20 trials)\n"
    )
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "containment",
                 "--set", "trials=20", "--set", "horizon=300"])
    assert code == 0
    counts = capsys.readouterr().out.split("(")[1].split(";")[0].split(", ")
    unfloored, floored = (int(part.split()[0]) for part in counts)
    assert unfloored > 0 and floored > 0
