"""Closed-loop state machine: encoder decision, controller action, plant step.

Per time step n, three things happen in order: the encoder transmits one
symbol based on X_n, the controller picks U_n from the symbol stream, and
the plant draws (A_n, W_n) and moves to X_{n+1} = A_n X_n + W_n - U_n.

Mode logic.  With M_prev the tracker value entering step n:

* normal (zoom-in):   |X_n| <= P*M_prev.  The state is quantized; both
  sides update (M, I, rho) from the symbol; the controller cancels the
  cell-midpoint estimate, U_n = rho*mu_A*(M - I) + mu_W.
* emergency (zoom-out): |X_n| > P*M_prev.  The encoder sends the reserved
  codeword, the controller idles (U_n = mu_W), and both sides grow
  M <- P*M_prev.  I and rho are left untouched until the next normal step
  (they are only consumed at normal steps; freezing them keeps traces
  deterministic and auditable).

The mu_W term recenters the disturbance: the loop adds the disturbance
mean to every control action so the effective noise is W - mu_W.  Both
mode guards compare |X_n| (absolute value) against P*M_prev, and the exit
comparison is inclusive, matching the round-exit time used by the
analysis layer.

A trial starts from the common-knowledge initial tracker M = I = M0,
rho = +1 and X_0 = 0.  States beyond DIVERGENCE_LIMIT in magnitude flag
the trial as diverged and truncate it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from zoomctl.codec import (ProtocolError, StrategyParams, cell_tracker, encode_normal, is_clamped,
                           tracker_update_normal)
from zoomctl.distributions import DistributionSpec, moments, sample_array

NORMAL = "normal"
EMERGENCY = "emergency"

DIVERGENCE_LIMIT = 1e150

TRACE_CSV_HEADER = ["n", "X", "symbol", "mode", "M", "I", "rho", "U", "A", "W", "round_id"]

# sentinel symbol for the trailing row of a trace (state only, no action)
NO_SYMBOL = -1


class TrialDiverged(RuntimeError):
    """Raised internally when the state leaves the finite simulation range."""


class TraceFormatError(ValueError):
    """A file read as a trace CSV does not hold one."""


@dataclass(frozen=True)
class TrackerState:
    """Common-knowledge quantities after step ``n``, maintained identically on both sides.

    ``normal`` is True after a normal (zoom-in) step, False after an emergency (zoom-out) one.
    """

    normal: bool
    M: float
    I: float
    rho: int
    n: int

    def __post_init__(self):
        if self.rho not in (-1, 1):
            raise ValueError(f"rho must be +-1, got {self.rho}")


def initial_tracker(params: StrategyParams) -> TrackerState:
    return TrackerState(normal=True, M=params.M0, I=params.M0, rho=1, n=-1)


def encoder_step(
    x: float, tracker: TrackerState, params: StrategyParams
) -> tuple[int, TrackerState]:
    """Encoder decision at one step: symbol plus the updated tracker."""
    if not math.isfinite(x):
        raise TrialDiverged(f"non-finite state {x!r} at step {tracker.n + 1}")
    m_prev = tracker.M
    if abs(x) <= params.P * m_prev:
        symbol = encode_normal(x, m_prev, params)
        m, i, rho = tracker_update_normal(symbol, m_prev, params)
        return symbol, TrackerState(True, m, i, rho, tracker.n + 1)
    return params.emergency_symbol, TrackerState(
        False, params.P * m_prev, tracker.I, tracker.rho, tracker.n + 1
    )


def controller_step(
    symbol: int,
    tracker: TrackerState,
    mu_A: float,
    mu_W: float,
    params: StrategyParams,
) -> tuple[float, TrackerState]:
    """Controller action from the received symbol alone.

    The tracker argument must equal the encoder's pre-step tracker; the
    update below uses only (symbol, tracker), which is what keeps the two
    sides in lockstep without any side channel.
    """
    if symbol == params.emergency_symbol:
        return mu_W, TrackerState(False, params.P * tracker.M, tracker.I, tracker.rho, tracker.n + 1)
    if not 0 <= symbol < params.emergency_symbol:
        raise ProtocolError(
            f"received symbol {symbol} outside codebook [0, {params.emergency_symbol}]"
        )
    m, i, rho = tracker_update_normal(symbol, tracker.M, params)
    u = rho * mu_A * (m - i) + mu_W
    return u, TrackerState(True, m, i, rho, tracker.n + 1)


def plant_step(x: float, u: float, a_draw: float, w_draw: float) -> float:
    """One step of X' = A*X + W - U."""
    return a_draw * x + w_draw - u


@dataclass
class Trace:
    """One trial's record, as ``build_trace`` lays it out: a row per step, then a state-only row.

    Row n < steps carries X_n and the step-n action: symbol, ``normal`` (True
    at a normal step, False at an emergency one), post-update tracker, control
    and noise draws.  The final row carries the terminal state with symbol
    NO_SYMBOL, ``normal`` False, the last step's tracker, U = 0 and NaN draws.
    """

    X: np.ndarray
    symbol: np.ndarray
    normal: np.ndarray  # bool
    M: np.ndarray
    I: np.ndarray
    rho: np.ndarray
    U: np.ndarray
    A: np.ndarray
    W: np.ndarray
    seed: object
    diverged_at: int | None = None

    @property
    def steps(self) -> int:
        """Number of executed steps (the trailing row is state-only)."""
        return len(self.X) - 1

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def to_csv(self, path) -> None:
        """Write the trace file, which adds the row index ``n``, the mode word
        (``end`` on the state-only row) and ``round_id``, the normal steps
        counted from 0 (a round is a normal step and the emergencies after it)."""
        derived = {"n": range(len(self.X)),
                   "mode": np.where(self.normal[:-1], NORMAL, EMERGENCY).tolist() + ["end"],
                   "round_id": np.maximum(np.cumsum(self.normal) - 1, 0).tolist()}
        # csv writes Python floats by repr, ints by str
        cols = [derived[f] if f in derived else getattr(self, f).tolist() for f in TRACE_CSV_HEADER]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_CSV_HEADER)
            writer.writerows(zip(*cols))


def build_trace(X, steps: dict, M0: float, seed, diverged_at: int | None = None) -> Trace:
    """The Trace of a trial that executed ``len(X) - 1`` steps.

    ``X`` holds X_0..X_steps.  ``steps`` maps ``normal``, ``U``, ``A``, ``W``
    and, for the quantized policies, ``symbol``, ``M``, ``I``, ``rho`` to
    per-step values; entries past the executed steps are ignored, and a
    missing tracker column holds the initial tracker (``M0``, rho = 1).  The
    trailing row takes NO_SYMBOL, ``normal`` False, U = 0 and NaN draws, and
    carries over the last step's tracker.
    """
    size = len(X)

    def column(name, fill, dtype=float, hold=False):
        # the executed steps, then the state-only row: ``fill``, or with
        # ``hold`` the last step's value
        col = np.full(size, fill, dtype=dtype)
        if name in steps:
            col[:-1] = steps[name][: size - 1]
        if hold and size > 1:
            col[-1] = col[-2]
        return col

    return Trace(
        X=np.array(X, dtype=float),
        symbol=column("symbol", NO_SYMBOL, np.int64),
        normal=column("normal", False, bool),
        M=column("M", M0, hold=True),
        I=column("I", M0, hold=True),
        rho=column("rho", 1, np.int64, hold=True),
        U=column("U", 0.0),
        A=column("A", np.nan),
        W=column("W", np.nan),
        seed=seed,
        diverged_at=diverged_at,
    )


def json_safe(x):
    """A float that JSON cannot hold (inf, nan) as None; anything else as is."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_json(payload, path) -> None:
    """The deterministic JSON form of every report and summary: sorted keys, 2-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Columns of a trace CSV, as arrays keyed by header name but with ``normal`` (False at ``end``) for ``mode``.

    A malformed file raises TraceFormatError, as does a mode word other than
    normal or emergency, save ``end`` on a last row with symbol NO_SYMBOL, and
    an ``n`` or ``round_id`` other than ``Trace.to_csv`` derives from the rows.
    """
    with open(path, newline="") as fh:
        try:
            header, *rows = list(csv.reader(fh)) or [None]  # an empty file has no header
        except (UnicodeDecodeError, csv.Error) as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
    if header != TRACE_CSV_HEADER:
        raise TraceFormatError(f"{path}: unexpected trace header {header}")
    if not rows:
        raise TraceFormatError(f"{path}: no trace rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise TraceFormatError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
    cols: dict[str, np.ndarray] = {}
    try:
        for name, vals in zip(header, zip(*rows)):
            if name in ("n", "symbol", "rho", "round_id"):
                cols[name] = np.array([int(v) for v in vals], dtype=np.int64)
            elif name == "mode":
                # header order puts symbol first, so the last row's is known
                ok = [v in (NORMAL, EMERGENCY) for v in vals]
                ok[-1] = ok[-1] or (vals[-1] == "end" and cols["symbol"][-1] == NO_SYMBOL)
                if not all(ok):
                    i = ok.index(False)
                    raise ValueError(f"row {i + 1} has mode {vals[i]!r}")
                cols["normal"] = np.array([v == NORMAL for v in vals])
            else:
                cols[name] = np.array([float(v) for v in vals])
    except ValueError as exc:
        raise TraceFormatError(f"{path}: column {name}: {exc}") from None
    for name, want in (("n", np.arange(len(rows))), ("round_id", np.maximum(np.cumsum(cols["normal"]) - 1, 0))):
        i = int(np.argmax(cols[name] != want))
        if cols[name][i] != want[i]:
            raise TraceFormatError(f"{path}: column {name}: row {i + 1} has {cols[name][i]}, expected {want[i]}")
    return cols


def run_trial(
    a_spec: DistributionSpec,
    w_spec: DistributionSpec,
    params: StrategyParams,
    horizon: int,
    seed,
) -> Trace:
    """Simulate one closed-loop trial of the two-mode strategy.

    ``seed`` may be an int or a sequence of ints; it feeds a PCG64 stream
    from which the gain draws (one batch) and then the disturbance draws
    (one batch) are taken.  Identical (specs, params, horizon, seed) give
    bit-identical traces.

    Encoder-side and controller-side trackers are maintained separately;
    any disagreement is a bug and raises immediately.  The parameters are
    run as given, certified or not; ``analysis.feasibility`` certifies them.
    The executed steps become a Trace through ``build_trace``, as the
    engine's kept traces do.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    mu_a, _ = moments(a_spec)
    mu_w, _ = moments(w_spec)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    a_draws = sample_array(a_spec, rng, horizon)
    w_draws = sample_array(w_spec, rng, horizon)

    # per executed step: X_n, then the step's symbol, mode, tracker (encoder
    # side, equal to the controller's) and control; a float holds every
    # symbol exactly, as L <= MAX_L = 2**50
    rows = np.empty((horizon, 7))
    enc = initial_tracker(params)
    ctl = initial_tracker(params)
    x = 0.0
    diverged_at: int | None = None

    for n in range(horizon):
        symbol, enc = encoder_step(x, enc, params)
        u, ctl = controller_step(symbol, ctl, mu_a, mu_w, params)
        if enc != ctl:  # pragma: no cover - protocol invariant
            raise ProtocolError(f"tracker mismatch at step {n}: {enc} vs {ctl}")
        rows[n] = x, symbol, enc.normal, enc.M, enc.I, enc.rho, u
        x = plant_step(x, u, float(a_draws[n]), float(w_draws[n]))
        if not math.isfinite(x) or abs(x) > DIVERGENCE_LIMIT:
            diverged_at = n + 1
            break

    rows = rows[: horizon if diverged_at is None else diverged_at]
    steps = dict(zip(("symbol", "normal", "M", "I", "rho", "U"), rows[:, 1:].T), A=a_draws, W=w_draws)
    return build_trace(np.append(rows[:, 0], x), steps, params.M0, seed, diverged_at)


@dataclass(frozen=True)
class TraceValidation:
    """Outcome of replaying a recorded trace; when ok, ``clamped`` flags the steps a floor at M0 set."""

    ok: bool
    first_mismatch: int | None = None
    field: str | None = None
    detail: str = ""
    steps: int = 0  # replayed, when ok
    clamped: np.ndarray | None = dc_field(default=None, compare=False)  # verdicts compare, flags do not


def validate_trace_columns(
    cols: dict[str, np.ndarray],
    params: StrategyParams,
    mu_A: float,
    mu_W: float,
) -> TraceValidation:
    """Replay the controller from the symbol stream and compare trackers.

    ``cols`` holds ``symbol``, ``normal``, ``M``, ``I``, ``rho`` and ``U``
    per step, as ``read_trace_csv``, a Trace or the engine's records give
    them; a last row with symbol NO_SYMBOL is state-only and not replayed.
    Detects any corruption of the common-knowledge columns: the replayed
    tracker is derived from the symbols alone, exactly as
    ``controller_step`` would, through the codec's array forms.  Every step
    replays at once from the tracker recorded at the step before; up to the
    first mismatch that is the replayed tracker, so the first mismatch
    (fields in the order symbol, normal, M, I, rho, U) is a stepwise replay's.
    A clean replay also flags the steps a floor at M0 set (``codec.is_clamped``).
    """
    symbol = cols["symbol"]
    steps = len(symbol) - 1 if symbol[-1] == NO_SYMBOL else len(symbol)
    sym = symbol[:steps]
    zoom = sym == params.emergency_symbol
    # values past the first mismatch are never reported, and may overflow
    with np.errstate(all="ignore"):
        got = {f: cols[f][:steps].astype({"normal": bool, "rho": np.int64}.get(f, float))
               for f in ("normal", "M", "I", "rho", "U")}
        # the tracker entering each step, then M <- P*M, the live range
        prev = np.empty((3, steps))
        prev[:, :1] = [[params.M0], [params.M0], [1.0]]
        prev[:, 1:] = [got["M"][:-1], got["I"][:-1], got["rho"][:-1]]
        prev[0] *= params.P
        trk, (a, b) = np.empty((3, steps)), np.empty((2, steps))
        cell_tracker(None, prev[0], params.L, params.M0, sym - float(params.L), trk,
                     (a, b, np.empty(steps, dtype=bool)))
        trk = np.where(zoom, prev, trk)
        floored = is_clamped(a, b, params.M0) & ~zoom
        u = np.where(zoom, mu_W, trk[2] * mu_A * (trk[0] - trk[1]) + mu_W)
    want = {"normal": ~zoom, "M": trk[0], "I": trk[1], "rho": trk[2], "U": u}
    bad = {"symbol": (sym < 0) | (sym > params.emergency_symbol)}
    bad.update((name, want[name] != got[name]) for name in got)
    found = [(int(np.argmax(mask)), order) for order, mask in enumerate(bad.values()) if mask.any()]
    if not found:
        return TraceValidation(True, steps=steps, clamped=floored)
    i, order = min(found)
    name = list(bad)[order]
    if name == "symbol":
        return TraceValidation(False, i, name, (
            f"received symbol {int(sym[i])} outside codebook [0, {params.emergency_symbol}]"))
    cast = {"normal": bool, "rho": int}.get(name, float)
    return TraceValidation(
        False, i, name, f"expected {name}={cast(want[name][i])!r}, trace has {cast(got[name][i])!r}"
    )

