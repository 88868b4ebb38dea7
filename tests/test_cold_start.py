"""The package needs numpy only: neither importing the CLI nor feasibility's
tail moments load scipy.

Each test runs a fresh interpreter, since this test process may have
imported scipy through some other package.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

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


def _run_commands(argvs, cwd: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", f"ARGVS = {argvs!r}\n" + RUN_COMMANDS], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    report = _run_commands([], tmp_path)
    assert report == {"before": [], "runs": []}


# sha256 of feasibility's stdout on the shipped configs, with their exit
# codes, as printed by the tanh-sinh tail moments
FEASIBILITY_STDOUT = {
    "emergency_rich.cfg": (2, "ab77eae0b40a61c05b0da6e64515d523bb346786a4be828c37e9b302af612acd"),
    "reference.cfg": (0, "8b242b1d6df6513e200578652246c9ade812490c314424734fa449c5a77f8490"),
    "reference_student_t.cfg": (0, "164ac74e6c0be6fa9d133e4ca1a4368a660f53d8757260ac7f9bc1bc2084b5a5"),
    "static_baseline.cfg": (2, "357b412d2e0d82edd5b9c5e8e419599d0a196157efe2f6cc98a10a8283ba7276"),
}


def test_feasibility_loads_scipy_on_demand_with_unchanged_output(tmp_path):
    # The name dates from the scipy quadrature. The moments are numpy now, so
    # "on demand" means never: no command loads a scipy module, and the
    # output is pinned to the digests above.
    names = sorted(FEASIBILITY_STDOUT)
    report = _run_commands([["feasibility", str(CONFIGS / name)] for name in names], tmp_path)
    assert report["before"] == []
    for name, run in zip(names, report["runs"]):
        assert run["scipy"] == [], name
        digest = hashlib.sha256(run["stdout"].encode()).hexdigest()
        assert (run["code"], digest) == FEASIBILITY_STDOUT[name], name
