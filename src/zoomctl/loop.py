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

# sentinel symbol: the trace file's trailing state-only row, and every step of a policy that sends none
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
    """One trial's record: X_0..X_steps, and per executed step n its action.

    Step n carries the symbol, ``normal`` (True at a normal step, False at an
    emergency one), the post-update tracker, the control and the noise draws,
    so every field but X has ``steps`` entries.  This is lane j of an engine
    recording up to its divergence step.  Only the trace file adds a
    state-only row, which ``to_csv`` writes and ``read_trace_csv`` strips.
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
        """Number of executed steps."""
        return len(self.symbol)

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def to_csv(self, path) -> None:
        """Write the trace file: a row per step, then a state-only row of X_steps, symbol NO_SYMBOL,
        mode ``end``, the last step's tracker, U = 0 and NaN draws.  The file adds the row index ``n``, the
        mode words and ``round_id``, the normal steps counted from 0 (a round is a normal step and the
        emergencies after it)."""
        end = {"symbol": NO_SYMBOL, "normal": False, "U": 0.0, "A": math.nan, "W": math.nan}
        # Python values, as csv writes floats by repr and ints by str
        cols = {f: getattr(self, f).tolist() for f in ("symbol", "normal", "M", "I", "rho", "U", "A", "W")}
        for f, col in cols.items():
            col.append(end.get(f, col[-1]))  # the tracker stays the last step's
        cols.update(n=range(len(self.X)), X=self.X.tolist(),
                    mode=np.where(self.normal, NORMAL, EMERGENCY).tolist() + ["end"],
                    round_id=np.maximum(np.cumsum(cols["normal"]) - 1, 0).tolist())
        with open(path, "w", newline="") as fh:
            fh.write(csv_text(TRACE_CSV_HEADER, (cols[f] for f in TRACE_CSV_HEADER)))


def csv_text(header: list[str], columns) -> str:
    """CSV text of ``columns`` under ``header``, as ``csv.writer`` writes numbers and plain words: each field by
    ``str`` (a float by its repr, as ``csv`` does), CRLF line ends, and no field that needs quoting."""
    return "".join(",".join(row) + "\r\n" for row in (header, *zip(*(map(str, col) for col in columns))))


def json_safe(x):
    """A float that JSON cannot hold (inf, nan) as None; anything else as is."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_json(payload, path) -> None:
    """The deterministic JSON form of every report and summary: sorted keys, 2-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """A trace CSV's columns as a Trace's array fields: X, symbol, ``normal`` (from the mode words), M, I, rho, U, A, W.

    A last row with mode ``end`` is state-only: X keeps it, the per-step
    columns do not.  A malformed file raises TraceFormatError, as does a
    mode word other than normal or emergency, save ``end`` on a last row
    with symbol NO_SYMBOL, and an ``n`` or ``round_id`` other than
    ``Trace.to_csv`` derives from the rows; neither is returned.
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
    steps = len(rows) - (rows[-1][TRACE_CSV_HEADER.index("mode")] == "end")
    return {f: c if f == "X" else c[:steps] for f, c in cols.items() if f not in ("n", "round_id")}


def run_trial(
    a_spec: DistributionSpec,
    w_spec: DistributionSpec,
    params: StrategyParams,
    horizon: int,
    seed,
) -> Trace:
    """Simulate one closed-loop trial of the two-mode strategy, over ``horizon`` >= 1 steps.

    ``seed`` may be an int or a sequence of ints; it feeds a PCG64 stream
    from which the gain draws (one batch) and then the disturbance draws
    (one batch) are taken.  Identical (specs, params, horizon, seed) give
    bit-identical traces.

    Encoder-side and controller-side trackers are maintained separately;
    any disagreement is a bug and raises immediately.  The parameters are
    run as given, certified or not; ``analysis.feasibility`` certifies them.
    The Trace holds the executed steps, as an engine lane's records do.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
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

    steps = horizon if diverged_at is None else diverged_at
    xs, symbol, normal, m, i, rho, u = rows[:steps].T  # each copied out, so the rows are not kept
    return Trace(X=np.append(xs, x), symbol=symbol.astype(np.int64), normal=normal.astype(bool), M=m.copy(),
                 I=i.copy(), rho=rho.astype(np.int64), U=u.copy(), A=a_draws[:steps], W=w_draws[:steps], seed=seed,
                 diverged_at=diverged_at)


@dataclass(frozen=True)
class TraceValidation:
    """Outcome of a lane audit (``validate_trace_columns``): the first failure, of ``lane``, or the steps
    audited; ``clamped`` flags the executed steps a floor at M0 set."""

    ok: bool
    first_mismatch: int | None = None
    field: str | None = None
    detail: str = ""
    steps: int = 0  # audited, when ok
    clamped: np.ndarray | None = dc_field(default=None, compare=False)  # verdicts compare, flags do not
    lane: int = dc_field(default=0, compare=False)


def validate_trace_columns(
    cols: dict[str, np.ndarray],
    params: StrategyParams,
    mu_A: float,
    mu_W: float,
    start: int = 0,
    entering: np.ndarray | None = None,
    steps: np.ndarray | None = None,
) -> TraceValidation:
    """Audit a block of lanes: replay their controller from the symbols, then check their plant and encoder.

    ``cols`` holds a Trace's nine array fields for steps ``start`` on: the
    (lanes, width) block rows of ``harness._run_chunk``, X (lanes, width + 1)
    from X_start, or one lane's columns from a Trace or ``read_trace_csv``
    (a trace file with no ``end`` row holds one fewer next state).
    ``entering`` is each lane's (M, I, rho) entering step ``start`` (by
    default the initial tracker), ``steps`` each lane's executed steps in
    the block (by default all).  Three checks, on every step at once:

    * the controller: the tracker is rebuilt from the symbols alone, exactly
      as ``controller_step`` would, through the codec's array forms, each
      step from the tracker recorded at the step before; up to the first
      mismatch that is the replayed tracker, so the first mismatch is a
      stepwise replay's;
    * the plant: X_0 = 0 and X_{n+1} = A_n X_n + W_n - U_n, formed in
      ``plant_step``'s order, bit for bit, NaN equal to NaN;
    * the encoder: symbol n is the cell of X_n in the live range P*M_{n-1}
      (``codec.cell_tracker`` with x), or the zoom-out codeword beyond it.

    The lowest lane with a bad (step, field) fails, at its first one, fields
    at one step in the order symbol, normal, M, I, rho, U, plant (a bad
    X_{n+1} at step n, a bad X_0 at step 0), encoder.
    """
    cols = {f: np.atleast_2d(c) for f, c in cols.items()}
    sym, x = cols["symbol"], cols["X"]
    lanes, width = sym.shape
    valid = np.arange(width) < (width if steps is None else steps[:, None])
    zoom = sym == params.emergency_symbol
    # values past the first mismatch are never reported, and may overflow
    with np.errstate(all="ignore"):
        got = {f: cols[f].astype({"normal": bool, "rho": np.int64}.get(f, float), copy=False)
               for f in ("normal", "M", "I", "rho", "U")}
        # the tracker entering each step, then M <- P*M, the live range
        prev = np.empty((3, lanes, width))
        prev[:, :, 0] = [[params.M0], [params.M0], [1.0]] if entering is None else entering
        prev[:, :, 1:] = [got["M"][:, :-1], got["I"][:, :-1], got["rho"][:, :-1]]
        prev[0] *= params.P
        trk, (a, b), flag = np.empty((3, lanes, width)), np.empty((2, lanes, width)), np.empty(sym.shape, bool)
        cell_tracker(None, prev[0], params.L, params.M0, sym - float(params.L), trk, (a, b, flag))
        trk = np.where(zoom, prev, trk)
        floored = is_clamped(a, b, params.M0) & ~zoom & valid
        u = np.where(zoom, mu_W, trk[2] * mu_A * (trk[0] - trk[1]) + mu_W)
        nx = x.shape[1] - 1  # next states held
        x_next = np.concatenate([np.zeros((lanes, 1)), plant_step(x[:, :-1], *(cols[f][:, :nx] for f in "UAW"))], 1)
        xn, k = x[:, :width], np.empty(sym.shape)
        cell_tracker(xn, prev[0], params.L, params.M0, k, np.empty((3, lanes, width)), (a, b, flag))
        enc = np.where(np.abs(xn) <= prev[0], k + params.L, params.emergency_symbol)
    want = {"normal": ~zoom, "M": trk[0], "I": trk[1], "rho": trk[2], "U": u}
    bad = {"symbol": (sym < 0) | (sym > params.emergency_symbol)}
    bad.update((name, want[name] != got[name]) for name in got)
    x_bad = (x_next.view(np.int64) != x.view(np.int64)) & ~(np.isnan(x_next) & np.isnan(x))
    x_bad[:, 0] &= start == 0  # X_start is the step before's next state
    bad["plant"] = np.zeros(sym.shape, dtype=bool)
    bad["plant"][:, :nx] = x_bad[:, 1:]
    bad["plant"][:, 0] |= x_bad[:, 0]
    bad["encoder"] = enc != sym
    masks = np.array(list(bad.values())) & valid
    if not masks.any():
        return TraceValidation(True, steps=int(np.count_nonzero(valid)), clamped=floored)
    j = int(np.argmax(masks.any(axis=(0, 2))))
    i = int(np.argmax(masks[:, j].any(axis=0)))
    name = list(bad)[int(np.argmax(masks[:, j, i]))]
    if name == "symbol":
        detail = f"received symbol {int(sym[j, i])} outside codebook [0, {params.emergency_symbol}]"
    elif name == "plant":
        n = 0 if x_bad[j, 0] else i + 1
        detail = f"expected X_{start + n}={x_next[j, n].item()!r}, trace has {x[j, n].item()!r}"
    elif name == "encoder":
        detail = f"X_{start + i}={xn[j, i].item()!r} encodes to symbol {int(enc[j, i])}, trace has {int(sym[j, i])}"
    else:
        cast = {"normal": bool, "rho": int}.get(name, float)
        detail = f"expected {name}={cast(want[name][j, i])!r}, trace has {cast(got[name][j, i])!r}"
    return TraceValidation(False, start + i, name, detail, clamped=floored, lane=j)
