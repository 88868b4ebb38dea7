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
from dataclasses import dataclass

import numpy as np

from zoomctl.codec import (
    ProtocolError,
    StrategyParams,
    cell_tracker,
    encode_normal,
    tracker_update_normal,
)
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
    """Common-knowledge quantities maintained identically on both sides."""

    mode: str
    M: float
    I: float
    rho: int
    n: int

    def __post_init__(self):
        if self.mode not in (NORMAL, EMERGENCY):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.rho not in (-1, 1):
            raise ValueError(f"rho must be +-1, got {self.rho}")


def initial_tracker(params: StrategyParams) -> TrackerState:
    return TrackerState(mode=NORMAL, M=params.M0, I=params.M0, rho=1, n=-1)


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
        return symbol, TrackerState(NORMAL, m, i, rho, tracker.n + 1)
    return params.emergency_symbol, TrackerState(
        EMERGENCY, params.P * m_prev, tracker.I, tracker.rho, tracker.n + 1
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
        new = TrackerState(
            EMERGENCY, params.P * tracker.M, tracker.I, tracker.rho, tracker.n + 1
        )
        return mu_W, new
    if not 0 <= symbol < params.emergency_symbol:
        raise ProtocolError(
            f"received symbol {symbol} outside codebook [0, {params.emergency_symbol}]"
        )
    m, i, rho = tracker_update_normal(symbol, tracker.M, params)
    u = rho * mu_A * (m - i) + mu_W
    return u, TrackerState(NORMAL, m, i, rho, tracker.n + 1)


def plant_step(x: float, u: float, a_draw: float, w_draw: float) -> float:
    """One step of X' = A*X + W - U."""
    return a_draw * x + w_draw - u


@dataclass(frozen=True)
class TraceRow:
    """One step of a recorded trial (view into a Trace)."""

    n: int
    X: float
    symbol: int
    mode: str
    M: float
    I: float
    rho: int
    U: float
    A: float
    W: float
    round_id: int


@dataclass
class Trace:
    """Column-oriented record of one closed-loop trial.

    Arrays have one row per step plus a trailing state-only row: row n < steps
    carries X_n together with the step-n action (symbol, mode, post-update
    tracker, control, noise draws); the final row carries the terminal state
    with symbol = NO_SYMBOL, mode "end" and NaN draws.  ``round_id``
    increments at every normal step (a round is one normal step plus any
    emergency steps that follow it).
    """

    n: np.ndarray
    X: np.ndarray
    symbol: np.ndarray
    mode: np.ndarray  # uint8: 0 normal, 1 emergency
    M: np.ndarray
    I: np.ndarray
    rho: np.ndarray
    U: np.ndarray
    A: np.ndarray
    W: np.ndarray
    round_id: np.ndarray
    params: StrategyParams
    a_spec: DistributionSpec
    w_spec: DistributionSpec
    seed: object
    diverged: bool = False
    diverged_at: int | None = None
    policy: str = "adaptive_fixed_rate"

    @property
    def steps(self) -> int:
        """Number of executed steps (the trailing row is state-only)."""
        return len(self.n) - 1

    def mode_str(self, i: int) -> str:
        if i == self.steps:
            return "end"
        return EMERGENCY if self.mode[i] else NORMAL

    def row(self, i: int) -> TraceRow:
        return TraceRow(*(self.mode_str(i) if f == "mode" else getattr(self, f)[i].item()
                          for f in TRACE_CSV_HEADER))

    def rows(self):
        return (self.row(i) for i in range(len(self.n)))

    def to_csv(self, path) -> None:
        # csv writes Python floats by repr, ints by str
        cols = [[self.mode_str(i) for i in range(len(self.n))] if f == "mode" else getattr(self, f).tolist()
                for f in TRACE_CSV_HEADER]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_CSV_HEADER)
            writer.writerows(zip(*cols))

    def summary(self) -> dict:
        xs = self.X[: self.steps + 1]
        half = xs[len(xs) // 2 :]
        emergency_steps = int(np.sum(self.mode[: self.steps] == 1))
        return {
            "policy": self.policy,
            "seed": self.seed,
            "params": self.params.describe(),
            "system": {"A": self.a_spec.describe(), "W": self.w_spec.describe()},
            "steps": self.steps,
            "diverged": self.diverged,
            "diverged_at": self.diverged_at,
            "final_x": float(xs[-1]) if math.isfinite(float(xs[-1])) else None,
            "mean_xsq_last_half": float(np.mean(half**2)) if len(half) else None,
            "emergency_steps": emergency_steps,
            "rounds": int(self.round_id[self.steps - 1]) + 1 if self.steps else 0,
        }

    def to_json(self, path) -> None:
        write_json(self.summary(), path)


def json_safe(x):
    """A float that JSON cannot hold (inf, nan) as None; anything else as is."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_json(payload, path) -> None:
    """The deterministic JSON form of every report and summary: sorted keys, 2-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Columns of a trace CSV, as arrays keyed by header name; a malformed file raises TraceFormatError."""
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
                cols[name] = np.array([0 if v == NORMAL else (1 if v == EMERGENCY else 2) for v in vals],
                                      dtype=np.uint8)
            else:
                cols[name] = np.array([float(v) for v in vals])
    except ValueError as exc:
        raise TraceFormatError(f"{path}: column {name}: {exc}") from None
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
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    mu_a, _ = moments(a_spec)
    mu_w, _ = moments(w_spec)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    a_draws = np.atleast_1d(sample_array(a_spec, rng, horizon)) if horizon else np.empty(0)
    w_draws = np.atleast_1d(sample_array(w_spec, rng, horizon)) if horizon else np.empty(0)

    size = horizon + 1
    col_n = np.arange(size, dtype=np.int64)
    col_x = np.zeros(size)
    col_symbol = np.full(size, NO_SYMBOL, dtype=np.int64)
    col_mode = np.zeros(size, dtype=np.uint8)
    col_m = np.full(size, params.M0)
    col_i = np.full(size, params.M0)
    col_rho = np.ones(size, dtype=np.int64)
    col_u = np.zeros(size)
    col_a = np.full(size, np.nan)
    col_w = np.full(size, np.nan)
    col_round = np.zeros(size, dtype=np.int64)

    enc = initial_tracker(params)
    ctl = initial_tracker(params)
    x = 0.0
    diverged = False
    diverged_at: int | None = None
    executed = 0
    round_id = -1

    for n in range(horizon):
        try:
            symbol, enc = encoder_step(x, enc, params)
        except TrialDiverged:
            diverged, diverged_at = True, n
            break
        u, ctl = controller_step(symbol, ctl, mu_a, mu_w, params)
        if enc != ctl:  # pragma: no cover - protocol invariant
            raise ProtocolError(f"tracker mismatch at step {n}: {enc} vs {ctl}")
        if enc.mode == NORMAL:
            round_id += 1
        a, w = float(a_draws[n]), float(w_draws[n])
        col_x[n] = x
        col_symbol[n] = symbol
        col_mode[n] = 0 if enc.mode == NORMAL else 1
        col_m[n] = enc.M
        col_i[n] = enc.I
        col_rho[n] = enc.rho
        col_u[n] = u
        col_a[n] = a
        col_w[n] = w
        col_round[n] = round_id
        x = plant_step(x, u, a, w)
        executed = n + 1
        if not math.isfinite(x) or abs(x) > DIVERGENCE_LIMIT:
            diverged, diverged_at = True, n + 1
            break

    # trailing state-only row; tracker columns carry the last known values
    size = executed + 1
    col_x[executed] = x
    col_m[executed] = enc.M
    col_i[executed] = enc.I
    col_rho[executed] = enc.rho
    col_mode[executed] = 0 if enc.mode == NORMAL else 1
    col_round[executed] = max(round_id, 0)

    return Trace(
        n=col_n[:size],
        X=col_x[:size],
        symbol=col_symbol[:size],
        mode=col_mode[:size],
        M=col_m[:size],
        I=col_i[:size],
        rho=col_rho[:size],
        U=col_u[:size],
        A=col_a[:size],
        W=col_w[:size],
        round_id=col_round[:size],
        params=params,
        a_spec=a_spec,
        w_spec=w_spec,
        seed=seed,
        diverged=diverged,
        diverged_at=diverged_at,
    )


@dataclass(frozen=True)
class TraceValidation:
    """Outcome of replaying a recorded trace against the protocol rules."""

    ok: bool
    first_mismatch: int | None = None
    field: str | None = None
    detail: str = ""
    steps: int = 0  # replayed, when ok


def validate_trace_columns(
    cols: dict[str, np.ndarray],
    params: StrategyParams,
    mu_A: float,
    mu_W: float,
) -> TraceValidation:
    """Replay the controller from the symbol stream and compare trackers.

    Detects any corruption of the common-knowledge columns (M, I, rho, U,
    mode): the replayed tracker is derived from the symbols alone, exactly
    as ``controller_step`` would, through the codec's array forms.  Every
    step replays at once from the tracker recorded at the step before; up to
    the first mismatch that is the replayed tracker, so the first mismatch
    (fields in the order symbol, mode, M, I, rho, U) is a stepwise replay's.
    """
    symbol = cols["symbol"]
    steps = len(symbol) - 1 if symbol[-1] == NO_SYMBOL else len(symbol)
    sym = symbol[:steps]
    zoom = sym == params.emergency_symbol
    # values past the first mismatch are never reported, and may overflow
    with np.errstate(all="ignore"):
        got = {f: cols[f][:steps].astype(np.int64 if f in ("mode", "rho") else float)
               for f in ("mode", "M", "I", "rho", "U")}
        # the tracker entering each step, then M <- P*M, the live range
        prev = np.empty((3, steps))
        prev[:, :1] = [[params.M0], [params.M0], [1.0]]
        prev[:, 1:] = [got["M"][:-1], got["I"][:-1], got["rho"][:-1]]
        prev[0] *= params.P
        trk = np.empty((3, steps))
        cell_tracker(None, prev[0], params.L, params.M0, sym - float(params.L), trk,
                     (np.empty(steps), np.empty(steps), np.empty(steps, dtype=bool)))
        trk = np.where(zoom, prev, trk)
        u = np.where(zoom, mu_W, trk[2] * mu_A * (trk[0] - trk[1]) + mu_W)
    want = {"mode": zoom, "M": trk[0], "I": trk[1], "rho": trk[2], "U": u}
    bad = {"symbol": (sym < 0) | (sym > params.emergency_symbol)}
    bad.update((name, want[name] != got[name]) for name in got)
    found = [(int(np.argmax(mask)), order) for order, mask in enumerate(bad.values()) if mask.any()]
    if not found:
        return TraceValidation(True, steps=steps)
    i, order = min(found)
    name = list(bad)[order]
    if name == "symbol":
        return TraceValidation(False, i, name, (
            f"received symbol {int(sym[i])} outside codebook [0, {params.emergency_symbol}]"))
    cast = int if name in ("mode", "rho") else float
    return TraceValidation(
        False, i, name, f"expected {name}={cast(want[name][i])!r}, trace has {cast(got[name][i])!r}"
    )

