"""scipy stays off the import path: only the quadrature moments load it.

Each test runs a fresh interpreter, since this test process may already
have imported scipy.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from zoomctl.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# a meta-path finder that fails every scipy import
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())
"""

# run zoomctl.cli.main on each argv in ARGVS; print exit codes, stdout and
# which scipy modules are loaded, before the first command and after each
RUN_COMMANDS = """
import contextlib, io, json, sys
from zoomctl.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {"before": scipy_modules(), "runs": []}
for argv in ARGVS:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    report["runs"].append({"code": code, "stdout": buf.getvalue(), "scipy": scipy_modules()})
print(json.dumps(report))
"""


def _python(code: str, cwd: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run_commands(argvs, cwd: Path, prelude: str = "") -> dict:
    return _python(prelude + f"ARGVS = {argvs!r}\n" + RUN_COMMANDS, cwd)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    report = _run_commands([], tmp_path)
    assert report["before"] == []


SMALL = ["--set", "trials=100", "--set", "horizon=300"]
COMMANDS = [
    ["simulate", str(CONFIGS / "reference.cfg"), "--out", "sim", *SMALL],
    ["verify", str(CONFIGS / "reference.cfg"), "--out", "ver", *SMALL],
    ["sweep", str(CONFIGS / "reference.cfg"), "--dim", "L", "--values", "8,1e6", "--out", "swp", *SMALL],
]


def test_simulate_verify_and_sweep_run_with_scipy_blocked(tmp_path, monkeypatch, capsys):
    blocked, open_ = tmp_path / "blocked", tmp_path / "open"
    blocked.mkdir()
    open_.mkdir()
    report = _run_commands(COMMANDS, blocked, BLOCK_SCIPY)
    assert report["before"] == [] and all(run["scipy"] == [] for run in report["runs"])

    # the same commands in this process, where nothing is blocked
    monkeypatch.chdir(open_)
    for argv, run in zip(COMMANDS, report["runs"]):
        code = main(argv)
        assert (run["code"], run["stdout"]) == (code, capsys.readouterr().out), argv
    # 300 steps are too few for simulate's stability verdict, hence its 3
    assert [run["code"] for run in report["runs"]] == [3, 0, 0]
    written = sorted(p.relative_to(open_) for p in open_.rglob("*") if p.is_file())
    assert written and written == sorted(p.relative_to(blocked) for p in blocked.rglob("*") if p.is_file())
    for rel in written:
        assert (blocked / rel).read_bytes() == (open_ / rel).read_bytes(), rel


def test_blocker_fails_a_quadrature_moment(tmp_path):
    # the finder above does block: feasibility's moments need scipy
    code = BLOCK_SCIPY + """
from zoomctl.distributions import DistributionSpec, abs_moment
try:
    abs_moment(DistributionSpec.gaussian(1.0, 0.5), 4.5)
    outcome = "computed"
except ImportError:
    outcome = "blocked"
print(json.dumps(outcome))
"""
    assert _python("import json\n" + code, tmp_path) == "blocked"


# sha256 of feasibility's stdout on the shipped configs, with their exit
# codes, as printed when scipy was still imported with the package
FEASIBILITY_STDOUT = {
    "emergency_rich.cfg": (2, "f428361637e7ad31b26e08f96103417313bdc55e50d36643e18e112b3f69a6a3"),
    "reference.cfg": (0, "d3d851941b438fb4a2852728873190a2534455074879286ef1c5349ac5544e86"),
    "reference_student_t.cfg": (0, "b7915dbf41929faeb92a0c41021d1a37bc0d7c7528787fb288264ab2f68320c9"),
    "static_baseline.cfg": (2, "49bba62917c3fa1886d85bf1f40fe80a824e5445c6303bc6cae7786946057b90"),
}


def test_feasibility_loads_scipy_on_demand_with_unchanged_output(tmp_path):
    names = sorted(FEASIBILITY_STDOUT)
    report = _run_commands([["feasibility", str(CONFIGS / name)] for name in names], tmp_path)
    assert report["before"] == []
    for name, run in zip(names, report["runs"]):
        assert "scipy.integrate" in run["scipy"] and "scipy.stats" in run["scipy"]
        digest = hashlib.sha256(run["stdout"].encode()).hexdigest()
        assert (run["code"], digest) == FEASIBILITY_STDOUT[name], name
