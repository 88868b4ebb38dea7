import csv
import json
import runpy
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from zoomctl.cli import main
from zoomctl.config import ConfigError, build_experiment, load_config, parse_config_text
from zoomctl.loop import TRACE_CSV_HEADER

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


# L=4, P=1e300, M0=1e-5: the gain mean times the first live range 1e295,
# the bound on the first control, overflows
OVERFLOW_STRATEGY = GOOD_CFG.replace("L = 8", "L = 4").replace("P = 2.0", "P = 1e300").replace(
    "M0 = 0.1", "M0 = 1e-5")
# sigma_A^2 = 0.25: only the overflow rejects this gain
GAIN_MEAN_1E30 = OVERFLOW_STRATEGY.replace("A.mean = 1.0", "A.mean = 1e30")
FIRST_CONTROL_INF = "error: |mu_A|*P*M0, the bound on the first control, is not finite: mu_A={}, P=1e+300, M0={}\n"
# (config text, extra arguments, the one stderr line) per case
FIRST_CONTROL_CASES = {
    "simulate": (GAIN_MEAN_1E30, [], FIRST_CONTROL_INF.format("1e+30", "1e-05")),
    "verify": (GAIN_MEAN_1E30, [], FIRST_CONTROL_INF.format("1e+30", "1e-05")),
    # the config loads at P = 2; the swept P = 1e300 is rejected
    "sweep": (GOOD_CFG.replace("A.mean = 1.0", "A.mean = 1e25"), ["--dim", "P", "--values", "1e300"],
              FIRST_CONTROL_INF.format("1e+25", "0.1")),
}


@pytest.mark.parametrize("case", FIRST_CONTROL_CASES)
def test_cli_rejects_a_strategy_whose_first_control_overflows(tmp_path, case):
    import os
    import subprocess
    import sys

    text, extra, message = FIRST_CONTROL_CASES[case]
    path = tmp_path / "overflow.cfg"
    path.write_text(text)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [case, str(path), "--out", str(tmp_path / "o"), *extra]
    # a fresh interpreter shows what a user sees: warnings print once, uncaught
    proc = subprocess.run([sys.executable, "-m", "zoomctl.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)
    assert not (tmp_path / "o").exists()


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
    assert main(["feasibility", REFERENCE_CFG]) == 0
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


@pytest.mark.parametrize("sets, code, row", [
    # E|W|^4.5 = 1397.5 for W ~ N(5, 0.01): epsilon is about 1.28, past c's room
    (["W.mean=5", "W.stddev=0.01"], 2, "ell_alpha         1397.59"),
    # E[(|A| + 1)^4.5] = 22.63 for A ~ N(1, 0.001): epsilon is about 0.035
    (["A.stddev=0.001"], 0, "m_alpha           22.6275"),
])
def test_cli_feasibility_of_narrow_laws_far_from_0(capsys, sets, code, row):
    argv = ["feasibility", REFERENCE_CFG]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == code
    assert row in capsys.readouterr().out.splitlines()


def test_find_reference_params_prints_the_shipped_blocks(monkeypatch, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "find_reference_params.py"
    for system, cfg in (("gaussian", "reference.cfg"), ("student_t", "reference_student_t.cfg")):
        monkeypatch.setattr("sys.argv", [str(script), "--system", system])
        runpy.run_path(str(script), run_name="__main__")
        block = capsys.readouterr().out.split("config block:\n")[1]
        printed = {k: float(v) for k, v in (line.split(" = ") for line in block.splitlines())}
        params = load_config(EMERGENCY_CFG.parent / cfg).params
        assert printed == {k: getattr(params, k) for k in ("P", "L", "M0", "K", "c")}, system
    assert (printed["P"], printed["L"]) == (2e13, 5e14)


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


# (sweep arguments, the message of the one error line), both from harness.sweep
SWEEP_INPUT_ERRORS = {
    "dim-X": (["--dim", "X", "--values", "1"], "dimension must be one of ('P', 'L', 'K', 'M0', 'R'), got 'X'"),
    "no-values": (["--dim", "P", "--values", ","], "sweep needs at least one value"),
}


@pytest.mark.parametrize("case", SWEEP_INPUT_ERRORS)
def test_cli_sweep_input_errors_are_one_line(tmp_path, cfg_file, capsys, case):
    argv, message = SWEEP_INPUT_ERRORS[case]
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg_file), *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (out / "sweep.csv").exists()


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


def test_cli_verify_flipped_mode_word_fails_at_its_index(tmp_path, capsys):
    # every executed row, normal or emergency, flipped to the other word, with
    # the round_id cells the reader checks rewritten to follow the words
    sim = tmp_path / "sim"
    main(["simulate", str(EMERGENCY_CFG), "--out", str(sim), "--keep-traces", "1",
          "--set", "horizon=40", "--set", "trials=2"])
    lines = (sim / "trace_0000.csv").read_text().splitlines()
    words = [line.split(",")[3] for line in lines[1:-1]]
    assert {"normal", "emergency"} <= set(words)
    trace_path = tmp_path / "flipped.csv"
    for i, word in enumerate(words):
        flip = "emergency" if word == "normal" else "normal"
        trace_path.write_text(_with_modes(lines, words[:i] + [flip] + words[i + 1:]))
        capsys.readouterr()
        code = main(["verify", str(EMERGENCY_CFG), "--checks", "tracker_equality", "--trace-file", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 2
        assert (f"first divergent index {i} (normal): expected normal={word == 'normal'}, "
                f"trace has {flip == 'normal'}") in out


README = Path(__file__).resolve().parent.parent / "README.md"


def _x_cell(lines, value):
    """The header and the first row of a trace CSV, with that row's X cell set to ``value``."""
    row = lines[1].split(",")
    row[1] = value
    return "\n".join([lines[0], ",".join(row)])


def _set_cells(lines, row, cells):
    """A trace CSV's text with the given cells (column index: text) of line ``row`` replaced."""
    parts = lines[row].split(",")
    for col, text in cells.items():
        parts[col] = text
    return "\n".join(lines[:row] + [",".join(parts)] + lines[row + 1:]) + "\n"


def _with_modes(lines, modes):
    """A trace CSV's text with its executed rows' mode words set to ``modes``, and round_id as they give it."""
    rows = [line.split(",") for line in lines[1:]]
    round_id = np.maximum(np.cumsum([m == "normal" for m in modes] + [False]) - 1, 0)
    for row, mode, r in zip(rows, modes + ["end"], round_id):
        row[3], row[10] = mode, str(r)
    return "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"


# (malformed trace text from a good trace's lines, end of the stderr message)
MALFORMED_TRACES = {
    "readme": (lambda lines: README.read_text(), "unexpected trace header ['# zoomctl']"),
    "bad-cell": (lambda lines: _x_cell(lines, "abc"), "column X: could not convert string to float: 'abc'"),
    "short-row": (lambda lines: "\n".join([lines[0], lines[1], "1,0.5,3"]), "row 2 has 3 cells, expected 11"),
    "header-only": (lambda lines: lines[0] + "\n", "no trace rows"),
    "bogus-mode": (lambda lines: _set_cells(lines, 5, {3: "bogus"}), "column mode: row 5 has mode 'bogus'"),
    "end-on-executed-row": (lambda lines: _set_cells(lines, 3, {3: "end"}), "column mode: row 3 has mode 'end'"),
    "end-with-a-symbol": (lambda lines: _set_cells(lines, 21, {2: "0"}), "column mode: row 21 has mode 'end'"),
    "n-cell": (lambda lines: _set_cells(lines, 5, {0: "999"}), "column n: row 5 has 999, expected 4"),
    "round_id-cell": (lambda lines: _set_cells(lines, 5, {10: "77"}), "column round_id: row 5 has 77, expected 1"),
    "no-executed-step": (lambda lines: lines[0] + "\n0,123.0,-1,end,0.1,0.1,1,0.0,nan,nan,0\n",
                         "no executed step to replay"),
}


# (cells changed, as {row: {column index: text}}, the FAIL the plant audit
# prints); the symbols and trackers stay as recorded, so the controller
# replay alone passes each of these
PLANT_MUTATIONS = {
    "X-cell": ({5: {1: "12345.678"}}, "first divergent index 4 (plant): expected X_5="),
    "A-cell": ({7: {8: "-3.5"}}, "first divergent index 7 (plant): expected X_8="),
    "X-and-A-cells": ({5: {1: "12345.678"}, 7: {8: "-3.5"}}, "first divergent index 4 (plant): expected X_5="),
    "X_0": ({0: {1: "0.5"}}, "first divergent index 0 (plant): expected X_0=0.0, trace has 0.5"),
}


@pytest.mark.parametrize("case", PLANT_MUTATIONS)
def test_cli_verify_trace_file_audits_the_plant(tmp_path, capsys, case):
    cells, message = PLANT_MUTATIONS[case]
    sim = tmp_path / "sim"
    main(["simulate", str(EMERGENCY_CFG), "--out", str(sim), "--keep-traces", "1",
          "--set", "horizon=30", "--set", "trials=2"])
    lines = (sim / "trace_0000.csv").read_text().splitlines()
    for row, changed in cells.items():
        lines = _set_cells(lines, row + 1, changed).splitlines()
    trace_path = tmp_path / "bad.csv"
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "tracker_equality", "--trace-file", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith(f"tracker_equality  FAIL  {message}")
    assert captured.out.count("\n") == 1 and captured.err == ""


def _changed_cell(lines, row, column):
    """An emergency_rich trace CSV's text with one cell of executed row ``row`` changed: numbers v -> 2v + 1,
    the symbol to the next of the 17 codewords, rho negated, the mode word swapped (round_id following it),
    n and round_id + 1."""
    parts = lines[row + 1].split(",")
    name, text = TRACE_CSV_HEADER[column], parts[column]
    if name == "mode":
        words = [line.split(",")[3] for line in lines[1:-1]]
        words[row] = "emergency" if text == "normal" else "normal"
        return _with_modes(lines, words)
    if name in ("n", "symbol", "rho", "round_id"):
        value = int(text)
        text = str({"symbol": (value + 1) % 17, "rho": -value}.get(name, value + 1))
    else:
        text = repr(2 * float(text) + 1)
    return _set_cells(lines, row + 1, {column: text})


def test_cli_verify_trace_file_fails_on_every_cell_change(tmp_path, capsys):
    # each cell of each executed row of a 30-step trace, changed one at a
    # time: the step that uses it fails (X_n at step n - 1, which forms it),
    # and n and round_id are format errors.  Only A_0 passes: X_0 = 0
    # makes it unobservable
    sim = tmp_path / "sim"
    main(["simulate", str(EMERGENCY_CFG), "--out", str(sim), "--keep-traces", "1",
          "--set", "horizon=30", "--set", "trials=2"])
    lines = (sim / "trace_0000.csv").read_text().splitlines()
    assert len(lines) == 32
    trace_path = tmp_path / "bad.csv"
    wrong = []
    for row in range(30):
        for column, name in enumerate(TRACE_CSV_HEADER):
            trace_path.write_text(_changed_cell(lines, row, column))
            capsys.readouterr()
            code = main(["verify", str(EMERGENCY_CFG), "--checks", "tracker_equality",
                         "--trace-file", str(trace_path)])
            captured = capsys.readouterr()
            if name in ("n", "round_id"):
                ok = code == 1 and captured.err.startswith(f"error: {trace_path}: column {name}: ")
            elif (row, name) == (0, "A"):
                ok = code == 0
            else:
                step = max(row - 1, 0) if name == "X" else row
                ok = (code == 2 and captured.err == "" and captured.out.count("\n") == 1
                      and captured.out.startswith(f"tracker_equality  FAIL  first divergent index {step} ("))
            if not ok:
                wrong.append((row, name, code, captured.out + captured.err))
    assert wrong == []


def test_cli_verify_trace_reader_strips_only_an_end_row(tmp_path, capsys, monkeypatch):
    sim = tmp_path / "sim"
    main(["simulate", str(EMERGENCY_CFG), "--out", str(sim), "--keep-traces", "1",
          "--set", "horizon=20", "--set", "trials=2"])
    lines = (sim / "trace_0000.csv").read_text().splitlines()
    # the last row as an executed normal step, with the round_id that gives: its
    # symbol -1 is replayed, not skipped as a state-only row's
    last = lines[-1].split(",")
    assert last[2:4] == ["-1", "end"]
    last[3], last[10] = "normal", str(int(lines[-2].split(",")[10]) + 1)
    trace_path = tmp_path / "not_end.csv"
    trace_path.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
    capsys.readouterr()
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "tracker_equality", "--trace-file", str(trace_path)])
    assert code == 2
    assert capsys.readouterr().out.startswith(
        "tracker_equality  FAIL  first divergent index 20 (symbol): received symbol -1 outside codebook [0, ")
    # a file of only an end row has no step to replay, and is refused before
    # the recorded ensemble the other exact checks share
    trace_path.write_text(lines[0] + "\n" + ",".join(["0"] + lines[-1].split(",")[1:-1] + ["0"]) + "\n")
    monkeypatch.setattr("zoomctl.verify.record_exact", lambda cfg: pytest.fail("an ensemble ran"))
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "containment,tracker_equality",
                 "--trace-file", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {trace_path}: no executed step to replay\n"


@pytest.mark.parametrize("case", MALFORMED_TRACES)
def test_cli_verify_malformed_trace_file_exits_1(tmp_path, capsys, case):
    make, message = MALFORMED_TRACES[case]
    sim = tmp_path / "sim"
    main(["simulate", str(EMERGENCY_CFG), "--out", str(sim), "--keep-traces", "1",
          "--set", "horizon=20", "--set", "trials=2"])
    trace_path = tmp_path / "bad.csv"
    trace_path.write_text(make((sim / "trace_0000.csv").read_text().splitlines()))
    capsys.readouterr()
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "tracker_equality", "--trace-file", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {trace_path}: {message}\n"
    assert captured.out == ""


def test_cli_verify_reports_written(tmp_path, cfg_file):
    out = tmp_path / "rep"
    main(["verify", str(cfg_file), "--checks", "drift,domination", "--out", str(out),
          "--set", "trials=150", "--set", "horizon=900"])
    for name in ("drift_report", "domination_report"):
        assert (out / f"{name}.json").exists()
        assert (out / f"{name}.csv").exists()
    # one row per trial of the exact checks' pass
    dom_lines = (out / "domination_report.csv").read_text().splitlines()
    assert dom_lines[0] == "trace,steps,unbounded,violations,first_violation,max_ratio"
    assert len(dom_lines) == 1 + 100


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


def test_cli_simulate_ignores_a_thread_count_variable(tmp_path, cfg_file, monkeypatch):
    # the engine has no thread setting: a leftover ZOOMCTL_THREADS is not read
    monkeypatch.setenv("ZOOMCTL_THREADS", "abc")
    out = tmp_path / "o"
    code = main(["simulate", str(cfg_file), "--out", str(out), "--set", "horizon=1100", "--set", "trials=60"])
    assert (json.loads((out / "summary.json").read_text())["verdict"], code) == ("stable", 0)


def test_cli_verify_engine_tracker_desync_fails(cfg_file, monkeypatch, capsys):
    import zoomctl.harness as hz
    import zoomctl.verify as verify

    def desynced(cfg, consume):
        # the engine's recorded tracker leaves the symbol stream at one step,
        # in a copy of the block rows the exact checks' pass reads
        def changed(b0, rows, diverged_at):
            if b0 == 0:
                rows = dict(rows, I=rows["I"].copy())
                rows["I"][4, 9] *= 2.0
            consume(b0, rows, diverged_at)
        return hz.run_recorded_bundle(cfg, changed)

    monkeypatch.setattr(verify, "run_recorded_bundle", desynced)
    code = main(["verify", str(cfg_file), "--checks", "tracker_equality",
                 "--set", "trials=20", "--set", "horizon=50"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("tracker_equality  FAIL  recorded trial 4 differs at step 9 (I): expected I=")


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


# the static cell width 2*range/(2L+1) overflows at range 1e308 and at the
# default range 10*M0 = 5e308, underflows to 0 at range 1e-310, and is
# subnormal at range 1e-300
@pytest.mark.parametrize("config, overrides, width, srange, L", [
    ("static_baseline", ["policy.range=1e308"], "inf", "1e+308", 200000000000000),
    ("emergency_rich", ["policy=static_quantizer", "M0=5e307", "P=2"], "inf", "inf", 8),
    ("static_baseline", ["policy.range=1e-310"], "0.0", "1e-310", 200000000000000),
    ("static_baseline", ["policy.range=1e-300"], "5e-315", "1e-300", 200000000000000),
], ids=["range_overflows", "default_range_overflows", "range_underflows", "range_subnormal"])
def test_cli_degenerate_static_cell_width_exits_1(tmp_path, capsys, config, overrides, width, srange, L):
    sets = [arg for item in overrides + ["trials=3", "horizon=5"] for arg in ("--set", item)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(EMERGENCY_CFG.parent / f"{config}.cfg"), "--out", str(tmp_path / "o")] + sets)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: static cell width 2*range/(2L+1) = {width} is not a finite normal float: "
                            f"range={srange}, L={L}\n")
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


@pytest.mark.parametrize("horizon, capped", [(1, False), (2000, False), (2001, True)])
def test_cli_verify_drift_says_capped_only_when_it_caps(capsys, horizon, capped):
    code = main(["verify", REFERENCE_CFG, "--checks", "drift",
                 "--set", "trials=100", "--set", f"horizon={horizon}"])
    out = capsys.readouterr().out
    assert code == 0
    assert ("indices (horizon capped at 2000); " in out) == capped
    assert ("indices; " in out) != capped
    assert "halving pairs=0 violations=0" in out


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


def test_cli_simulate_x4_sums_across_groups_do_not_warn(tmp_path, capsys):
    import hashlib

    # 1025 trials are three trial groups, all diverging by step 168: their
    # X^4 sums near the float limit saturate to inf when the groups are
    # added, as they do inside a group, with no warning
    out = tmp_path / "o"
    sets = ["trials=1025", "horizon=300", "A.stddev=0.99", "P=64"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(EMERGENCY_CFG), "--out", str(out)]
                    + [arg for item in sets for arg in ("--set", item)])
    assert code == 3
    assert "diverged=1025/1025" in capsys.readouterr().out
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("summary.json", "curve.csv")}
    # the bytes written with the overflow warning left a warning
    assert digests == {
        "summary.json": "28e29de3a99fd77fbcad5f8246d113b0fa3f9a1d04491edf810b479e5cc6e1fd",
        "curve.csv": "6a468eda8bfaec5cce809b43a81185dcbead2a4b8cbf44abfa6a55caa2edd3ca",
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


REFERENCE_CFG = str(EMERGENCY_CFG.parent / "reference.cfg")


MISSING = "[Errno 2] No such file or directory: 'no_such.cfg'"
# emergency_rich with laws oracle_match's exact standard errors cannot take:
# a skewed disturbance, and a gain with no finite fourth moment; and a trace
# file with a wrong header.  The cases write them into their working
# directory.
_EMERGENCY_TEXT = EMERGENCY_CFG.read_text()
DERIVED_FILES = {
    "asymmetric_w.cfg": _EMERGENCY_TEXT.replace(
        "W.kind = gaussian\nW.mean = 0.0\nW.stddev = 1.0", "W.kind = two_point\nW.v1 = 1\nW.p = 0.3\nW.v2 = -1"),
    "student_t_gain.cfg": _EMERGENCY_TEXT.replace(
        "A.kind = gaussian\nA.mean = 1.0\nA.stddev = 0.5", "A.kind = student_t\nA.dof = 3.5\nA.scale = 0.3\nA.shift = 1.0"),
    "bad_trace.csv": "n,X\n0,0.0\n",
}
SMALL = ["--set", "trials=100", "--set", "horizon=50"]
UNKNOWN_KEY = "unknown key 'bogus' in --set"
BOGUS = ["--set", "bogus=1"]
SWEEP_ARGS = ["--dim", "P", "--values", "2"]
# (arguments, stderr message) per case
USER_ERRORS = {
    "simulate-missing": (["simulate", "no_such.cfg"], MISSING),
    "verify-missing": (["verify", "no_such.cfg"], MISSING),
    "feasibility-missing": (["feasibility", "no_such.cfg"], MISSING),
    "sweep-missing": (["sweep", "no_such.cfg", *SWEEP_ARGS], MISSING),
    "simulate-unknown-key": (["simulate", REFERENCE_CFG, *BOGUS], UNKNOWN_KEY),
    "verify-unknown-key": (["verify", REFERENCE_CFG, *BOGUS], UNKNOWN_KEY),
    "feasibility-unknown-key": (["feasibility", REFERENCE_CFG, *BOGUS], UNKNOWN_KEY),
    "sweep-unknown-key": (["sweep", REFERENCE_CFG, *BOGUS, *SWEEP_ARGS], UNKNOWN_KEY),
    "verify-drift-trials": (["verify", REFERENCE_CFG, "--checks", "drift", "--set", "trials=50"],
                            "drift needs at least 100 trials, config has 50"),
    "feasibility-alpha": (["feasibility", REFERENCE_CFG, "--set", "alpha=4"],
                          "feasibility requires a tail moment order alpha > 4, got 4.0"),
    "simulate-negative-keep-traces": (["simulate", REFERENCE_CFG, "--keep-traces", "-2",
                                       "--set", "trials=10", "--set", "horizon=50"],
                                      "--keep-traces must be >= 0, got -2"),
    "verify-asymmetric-w": (["verify", "asymmetric_w.cfg", *SMALL],
                            "oracle_match: exact oracle stderr requires a symmetric disturbance law, "
                            "got E[W_c^3]=0.672"),
    "verify-student-t-gain": (["verify", "student_t_gain.cfg", *SMALL],
                              "oracle_match: student_t central moment of order 4 requires dof > 4, got dof=3.5"),
    "verify-unread-trace-file": (["verify", REFERENCE_CFG, "--checks", "containment",
                                  "--trace-file", "no_such.csv"],
                                 "--trace-file is read by the tracker_equality check only, which is not asked for"),
    "verify-duplicate-check": (["verify", REFERENCE_CFG, "--checks", "containment,containment"],
                               "check 'containment' is named more than once"),
    # the trace file is read before the recorded ensemble the other exact checks share
    "verify-missing-trace-file": (["verify", REFERENCE_CFG, "--checks", "containment,tracker_equality",
                                   "--trace-file", "no_such.csv"],
                                  "[Errno 2] No such file or directory: 'no_such.csv'"),
    "verify-malformed-trace-file": (["verify", REFERENCE_CFG, "--checks", "containment,tracker_equality",
                                     "--trace-file", "bad_trace.csv"],
                                    "bad_trace.csv: unexpected trace header ['n', 'X']"),
}


@pytest.mark.parametrize("case", USER_ERRORS)
def test_cli_user_errors_exit_1(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    for name, text in DERIVED_FILES.items():
        (tmp_path / name).write_text(text)
    argv, message = USER_ERRORS[case]

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran before the input was rejected")

    monkeypatch.setattr("zoomctl.harness._run_chunk", no_ensemble)
    extra = ["--out", str(tmp_path / "o")] if argv[0] in ("simulate", "sweep") else []
    code = main(argv + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


# arguments the parser itself rejects, with the start of its error line
PARSER_ERRORS = {
    "no-command": ([], "zoomctl: error: the following arguments are required: command"),
    "rate-not-int": (["rate", "abc"], "zoomctl rate: error: argument L: invalid int value: 'abc'"),
    "sweep-no-dim": (["sweep", REFERENCE_CFG], "zoomctl sweep: error: the following arguments are required: --dim"),
    "keep-traces-not-int": (["simulate", "--keep-traces", "x", REFERENCE_CFG],
                            "zoomctl simulate: error: argument --keep-traces: invalid int value: 'x'"),
    "unknown-flag": (["verify", REFERENCE_CFG, "--bogus"], "zoomctl: error: unrecognized arguments: --bogus"),
}


@pytest.mark.parametrize("case", PARSER_ERRORS)
def test_cli_parser_errors_exit_1(capsys, case):
    argv, message = PARSER_ERRORS[case]
    # the parser ends the process through SystemExit, which prints no traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: zoomctl")
    assert [line for line in lines if "error: " in line] == [lines[-1]]
    assert lines[-1].startswith(message)


@pytest.mark.parametrize("sets, message", [
    (["policy=zero_control"], "check 'drift' requires policy=adaptive_fixed_rate"),
    (["trials=50"], "drift needs at least 100 trials, config has 50"),
], ids=["zero_control", "trials=50"])
def test_cli_verify_checks_inputs_before_any_ensemble(monkeypatch, capsys, sets, message):
    import zoomctl.harness as hz

    calls = []
    run_chunk = hz._run_chunk

    def counting(*args, **kwargs):
        calls.append(args[1])
        return run_chunk(*args, **kwargs)

    monkeypatch.setattr(hz, "_run_chunk", counting)
    argv = ["verify", REFERENCE_CFG, "--checks", "oracle_match,drift", "--set", "horizon=20"]
    code = main(argv + [arg for item in sets for arg in ("--set", item)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    # the counter does see oracle_match's ensembles when it runs alone
    assert main(argv[:3] + ["oracle_match"] + argv[4:]) in (0, 2)
    assert calls


def test_cli_verify_drift_flags_columns_whose_spread_overflows(tmp_path, capsys):
    import csv

    # at P = 1.01 some rounds run long enough for N^2 to pass 1e154 near
    # step 446, where the squared deviations of d and then of N^2 overflow
    out = tmp_path / "rep"
    sets = ["P=1.01", "horizon=1000", "trials=100"]
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "drift", "--out", str(out)]
                + [arg for item in sets for arg in ("--set", item)])
    assert code == 2
    with open(out / "drift_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    step_inf = [int(r["n"]) for r in rows if r["step_stderr"] == "inf"]
    nsq_inf = [int(r["n"]) for r in rows if r["stderr_Nsq"] == "inf"]
    assert step_inf == list(range(446, 452)) and nsq_inf == list(range(447, 453))
    report = json.loads((out / "drift_report.json").read_text())
    assert set(step_inf) <= set(report["flagged"])
    assert set(nsq_inf) <= set(report["cap_violations"])
    assert "flagged=[446, 447, 448, 449, 450]" in capsys.readouterr().out


def test_cli_verify_oracle_match_fails_where_its_stderr_is_not_finite(capsys):
    # at A.stddev = 0.99 perfect_observation's E[X^4] grows about 2.9-fold a
    # step (3 sigma_A^4), so its exact standard error at step 3000 is inf: a
    # test of nothing, which fails as drift's does, with no overflow warning
    sets = ["A.stddev=0.99", "P=64", "horizon=3000"]
    code = main(["verify", str(EMERGENCY_CFG), "--checks", "oracle_match"]
                + [arg for item in sets for arg in ("--set", item)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == [
        "oracle_match  FAIL  perfect_observation n=3000: exact standard error not finite (3se=inf)"]
    assert captured.err == ""


def test_cli_verify_scalar_replays_catch_an_engine_cell_shift(monkeypatch, capsys):
    import numpy as np

    import zoomctl.harness as hz
    import zoomctl.loop as loop

    # the engine's encoder, and the lane audit's, pick the cell above the
    # right one; the recorded trackers still follow the recorded symbols, so
    # only the independent scalar encoder can tell
    cell_tracker = hz.cell_tracker

    def shifted(x, live_range, L, M0, k, out, work):
        cell_tracker(x, live_range, L, M0, k, out, work)
        if x is not None:
            np.fmin(k + 1.0, L - 1, out=k)
            cell_tracker(None, live_range, L, M0, k, out, work)

    monkeypatch.setattr(hz, "cell_tracker", shifted)
    monkeypatch.setattr(loop, "cell_tracker", shifted)
    code = main(["verify", REFERENCE_CFG, "--checks", "tracker_equality",
                 "--set", "trials=20", "--set", "horizon=50"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("tracker_equality  FAIL  scalar run_trial differs from recorded trial 0 at step 0: ")


def test_cli_verify_containment_catches_an_engine_cell_geometry_change(monkeypatch, capsys):
    import numpy as np

    import zoomctl.harness as hz
    import zoomctl.loop as loop

    # the engine's tracker, and the lane audit's, halve every unfloored I:
    # the recorded lanes still replay, but M - 2I now sits inside the cell,
    # and only containment can tell.  The first violation is the lowest
    # trial's first, also when the pass streams it a step at a time
    cell_tracker = hz.cell_tracker

    def halved(x, live_range, L, M0, k, out, work):
        cell_tracker(x, live_range, L, M0, k, out, work)
        np.copyto(out[1], out[1] / 2.0, where=out[1] > M0)

    monkeypatch.setattr(hz, "cell_tracker", halved)
    monkeypatch.setattr(loop, "cell_tracker", halved)
    for block in (hz.BLOCK_STEPS, 1):
        monkeypatch.setattr(hz, "BLOCK_STEPS", block)
        code = main(["verify", str(EMERGENCY_CFG), "--checks", "containment",
                     "--set", "trials=20", "--set", "horizon=200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == [
            "containment  FAIL  907 violations / 2777 normal steps (1729 unfloored, 1048 floored at M0); "
            "first at trial 0, step 12"]
        assert captured.err == ""


@pytest.mark.parametrize("config", ["reference.cfg", "reference_student_t.cfg"])
def test_cli_oracle_match_passes_at_seed_11(capsys, config):
    # the perfect_observation mean at the horizon is 5.8% (reference) and
    # 8.1% (student_t) off its plateau here, inside the z-test's 3 standard errors
    code = main(["verify", str(EMERGENCY_CFG.parent / config), "--checks", "oracle_match",
                 "--set", "seed=11"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("oracle_match  PASS  ")


def test_cli_verify_domination_counts_n_overflowed_to_inf(tmp_path, capsys):
    # at L = 1 and P = 1e10 trackers reach 1e154 and beyond, where N^2 and
    # then N overflow; such steps pass as |X| <= inf and are counted apart,
    # per trial in the CSV
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", str(EMERGENCY_CFG), "--checks", "domination", "--out", str(tmp_path),
                     "--set", "P=1e10", "--set", "L=1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    with open(tmp_path / "domination_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    steps, n_inf = (sum(int(row[k]) for row in rows) for k in ("steps", "unbounded"))
    assert len(rows) == 100 and 0 < n_inf < steps
    assert captured.out.startswith(f"domination  PASS  |X_n| <= N_n at all {steps} executed steps of 100 trials")
    assert captured.out.endswith(f"; N overflowed to inf at {n_inf})\n")
    report = json.loads((tmp_path / "domination_report.json").read_text())
    assert (report["checked"], report["unbounded"]) == (steps, n_inf)


def test_cli_verify_domination_at_p_just_above_1_is_quick(tmp_path, capsys):
    # a zoom-out round at P = 1 + 1e-7 would grow its tracker for millions of
    # steps; each executed step stops once N is inf (after about 1100
    # multiplies)
    start = time.perf_counter()
    code = main(["verify", REFERENCE_CFG, "--checks", "domination", "--out", str(tmp_path),
                 "--set", "trials=20", "--set", "horizon=300", "--set", "P=1.0000001"])
    elapsed = time.perf_counter() - start
    report = json.loads((tmp_path / "domination_report.json").read_text())
    assert code == 0 and report["checked"] == 20 * 300 and report["unbounded"] > 3000
    assert capsys.readouterr().out.startswith("domination  PASS  ")
    assert elapsed < 10.0
