"""The benchmark's workloads: zoomctl command sequences and what they must produce.

Each workload is a fixed list of ``zoomctl`` commands run in order through
``zoomctl.cli.main`` in one process.  Paths are relative to the repository
root.  ``seed=None`` runs the shipped config seeds; any other seed is passed
to every command as ``--set seed=<n>``.

Expected outcomes come in two tiers:

* any seed: what holds whatever the noise draws are.  The exit code agrees
  with the command's own verdict, the exact checks (tracker equality,
  containment, domination, exact halving) pass, output files are present
  and well formed, and recorded traces replay cleanly.
* shipped seeds: additionally the exit codes, per-check PASS/FAIL and the
  sha256 of every output file recorded at the seed commit, in
  ``expected/<workload>.json``.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("ref-simulate", "ref-verify", "zoom-roundtrip")

# Engine trial-steps (lanes x horizon summed over every ensemble chunk) that
# each workload's command arguments ask for.  The engine runs every trial for
# its full horizon, so these are fixed per workload.
#   ref-simulate:   2000 x 10000 adaptive + 2000 x 10000 static
#   ref-verify:     adaptive 3 x (100 x 10000) + 2000 x 2000 (drift cap),
#                   oracle 2000 x 20 (zero) + 2000 x 10000 (perfect)
#   zoom-roundtrip: simulate 2000 x 2000 + 16 x 2000 (extract_trace);
#                   verify 3 x (100 x 2000) + 2000 x 2000 + 2000 x 20 + 2000 x 2000
TRIAL_STEPS = {
    "ref-simulate": 40_000_000,
    "ref-verify": 27_040_000,
    "zoom-roundtrip": 12_672_000,
}

EXIT_BY_VERDICT = {"stable": 0, "unstable": 2}
EXACT_CHECKS = ("tracker_equality", "containment", "domination")
KEPT_TRACES = 16

_CHECK_LINE = re.compile(r"^(\w+)\s+(PASS|FAIL)\s+(.*)$")
_HALVING = re.compile(r"halving pairs=\d+ violations=(\d+)")


@dataclass(frozen=True)
class Command:
    """One zoomctl invocation and the outputs it is judged by."""

    argv: tuple[str, ...]
    out: str | None = None  # output directory of a simulate command
    traces: int = 0
    trace_file: str | None = None
    verdict_required: str | None = None  # simulate verdict required at any seed

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def config(self) -> str:
        return self.argv[1]


def commands(workload: str, seed: int | None, workdir: Path) -> list[Command]:
    """The workload's command list; output paths point into ``workdir``."""
    seed_set = () if seed is None else ("--set", f"seed={seed}")
    if workload == "ref-simulate":
        return [
            Command(("simulate", "configs/reference.cfg", "--out", str(workdir / "reference"))
                    + seed_set, out="reference", verdict_required="stable"),
            Command(("simulate", "configs/static_baseline.cfg", "--out", str(workdir / "static"))
                    + seed_set, out="static"),
        ]
    if workload == "ref-verify":
        return [Command(("verify", "configs/reference.cfg") + seed_set)]
    if workload == "zoom-roundtrip":
        base = ("configs/emergency_rich.cfg", "--set", "trials=2000") + seed_set
        emergency = workdir / "emergency"
        cmds = [
            Command(("simulate",) + base + ("--keep-traces", str(KEPT_TRACES), "--out", str(emergency)),
                    out="emergency", traces=KEPT_TRACES),
            Command(("verify",) + base),
        ]
        for i in range(KEPT_TRACES):
            path = emergency / f"trace_{i:04d}.csv"
            cmds.append(Command(("verify",) + base + ("--checks", "tracker_equality",
                                                      "--trace-file", str(path)),
                                trace_file=path.name))
        return cmds
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")


def first_config(workload: str) -> str:
    return commands(workload, None, Path("."))[0].config


@dataclass
class Observed:
    """What one command did: exit code, check verdicts, output digests."""

    exit: int
    checks: dict[str, str] = field(default_factory=dict)
    details: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def record(self) -> dict:
        return {"exit": self.exit, "checks": self.checks, "digests": self.digests}


def parse_checks(stdout: str) -> tuple[dict[str, str], dict[str, str]]:
    checks, details = {}, {}
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks[m.group(1)] = m.group(2)
            details[m.group(1)] = m.group(3)
    return checks, details


def any_seed_problems(cmd: Command, obs: Observed, workdir: Path, horizon: int, trials: int) -> list[str]:
    """Violations of the outcomes that hold for every seed."""
    problems = []
    if cmd.kind == "simulate":
        out = workdir / cmd.out
        try:
            summary = json.loads((out / "summary.json").read_text())
            with open(out / "curve.csv", newline="") as fh:
                rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        verdict = summary.get("verdict")
        if obs.exit != EXIT_BY_VERDICT.get(verdict, 3):
            problems.append(f"exit {obs.exit} disagrees with verdict {verdict!r}")
        if cmd.verdict_required and verdict != cmd.verdict_required:
            problems.append(f"verdict {verdict!r}, expected {cmd.verdict_required!r}")
        if summary.get("trials") != trials or summary.get("horizon") != horizon:
            problems.append("summary.json trials/horizon differ from the config")
        if len(rows) != horizon + 2:  # header plus n = 0..horizon
            problems.append(f"curve.csv has {len(rows)} rows, expected {horizon + 2}")
        written = sorted(p.name for p in out.glob("trace_*.csv"))
        if len(written) != cmd.traces:
            problems.append(f"{len(written)} trace files written, expected {cmd.traces}")
        return problems
    if not obs.checks:
        return [f"no check lines in output (exit {obs.exit})"]
    passed = all(v == "PASS" for v in obs.checks.values())
    if obs.exit != (0 if passed else 2):
        problems.append(f"exit {obs.exit} disagrees with checks {obs.checks}")
    for name in EXACT_CHECKS:
        if obs.checks.get(name, "PASS") != "PASS":
            problems.append(f"exact check {name} failed: {obs.details.get(name)}")
    if "drift" in obs.details:
        m = _HALVING.search(obs.details["drift"])
        if m is None or int(m.group(1)) != 0:
            problems.append(f"exact halving failed: {obs.details['drift']}")
    if cmd.trace_file is not None and obs.checks != {"tracker_equality": "PASS"}:
        problems.append(f"trace replay of {cmd.trace_file} did not pass")
    return problems


def expected_path(workload: str) -> Path:
    return Path(__file__).resolve().parent / "expected" / f"{workload}.json"


def shipped_seed_problems(workload: str, observed: list[Observed]) -> list[list[str]]:
    """Per command, differences from the outcomes recorded at the seed commit."""
    try:
        want = json.loads(expected_path(workload).read_text())["commands"]
    except OSError:
        return [["no recorded expectations"] for _ in observed]
    out = []
    for i, obs in enumerate(observed):
        if i >= len(want):
            out.append(["no recorded expectation"])
            continue
        got = obs.record()
        out.append([f"{key}: got {got[key]!r}, recorded {want[i][key]!r}"
                    for key in ("exit", "checks", "digests") if got[key] != want[i][key]])
    return out
