"""Monte Carlo engine: trial ensembles, stability verdicts, parameter sweeps.

Trials are vectorized in lockstep across a chunk axis; every trial draws
its noise from its own counter-derived stream (PCG64 seeded by mixing the
master seed with the trial index), so results are independent of chunking.
The vectorized step mirrors the scalar reference loop expression by
expression and is held to bit-identical agreement with it by the test
suite.

Policies:

* ``adaptive_fixed_rate``  -- the two-mode strategy under test.
* ``static_quantizer``     -- same symbol budget (2L+1 cells) spent on a
  fixed uniform partition of [-range, range] with the same cell control
  law; out-of-range states saturate into the extreme cells.  This is the
  classical failure mode of non-adaptive quantizers under unbounded noise.
* ``perfect_observation``  -- U = mu_A * X + mu_W (rate-unlimited oracle).
* ``zero_control``         -- U = mu_W (the disturbance-centering offset
  only); the open-loop oracle.

Aggregation: per time index, X_n^2 is averaged over the trials still alive
at n (a trial dies when |X| exceeds the divergence limit); divergence is
counted and reported, never mixed into means.  Sums reduce in trial order
over fixed groups of CHUNK_TRIALS trials, so identical configs give
bit-identical stats.

The adaptive step carries the encoder's tracker only; ``verify`` checks the
controller's by replaying recorded symbol streams.  Diverged lanes are
parked outside the zoom-out multiply and the tracker update.

Layout: an engine chunk walks the horizon in time blocks of BLOCK_STEPS
steps and draws its noise DRAW_STEPS steps at a time (whole blocks), into
batch buffers each block reads at its offset.  A trial's stream holds its
horizon's gains, then its disturbances.  Under the quantizer policies
(STREAMED_KINDS) a chunk runs four groups side by side, 2048 lanes, and
redraws the gains a batch at a time from a second generator per trial,
the first having drawn and dropped them to reach the disturbances.  It
holds about lanes x (16 * draw + 42 * block) bytes whatever the horizon:
at 2048 lanes, 250-step draws and 50-step blocks, 4 MB of gains, 4 MB of
disturbances and 4 MB of block.  The oracle policies' chunks run two
groups, 1024 lanes, and draw the gains whole up front, into one buffer
that the chunks of an ensemble share: lanes x (8 * horizon + 8 * draw +
42 * block) bytes, 16 MB of gains at 2000 steps.  The per-step sums and
the N^2 envelope are produced one block at a time, from step-major block
buffers that each step writes a row of in place (see ``_run_chunk``),
read through transposed views.  A chunk records its leading lanes (a
recording: all its trials, in one chunk; an ensemble: the kept traces'
lanes of each chunk) by copying their rows out after each block into
lane-major records, 65 bytes per recorded lane and step.  The N^2
envelope is one ``analysis.EnvelopeMoments`` per trial group: its
column sums, 8 * horizon bytes, and for ``verify``'s drift the drift and
halving statistics, 32 * horizon more.  Each lane's M, I and mode, about
17 bytes, wait for each column from the first one some lane of its group
has not resolved yet: a round that stays open over the whole horizon
holds another 17 * horizon per lane.  It covers ensembles with no
diverged trial only; a chunk drops it at its first diverged lane.  Chunks
run one after another on the calling thread, and neither the block length
nor the chunking changes a result.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from zoomctl import analysis
from zoomctl.codec import StrategyParams, cell_tracker, rate
from zoomctl.distributions import DistributionSpec, moments, sample_rows
from zoomctl.loop import DIVERGENCE_LIMIT, NO_SYMBOL, Trace, json_safe, write_json

CHUNK_TRIALS = 512  # trials per reduction group; an engine chunk runs four (streamed gains) or two
BLOCK_STEPS = 50  # steps per time block of the engine
DRAW_STEPS = 250  # steps per noise draw, rounded down to whole blocks (at least one)

POLICY_KINDS = (
    "adaptive_fixed_rate",
    "static_quantizer",
    "perfect_observation",
    "zero_control",
)

# the quantizer policies, whose chunks redraw their gains a draw batch at a
# time; the oracles' few calls per step could not pay for the second draw
STREAMED_KINDS = ("adaptive_fixed_rate", "static_quantizer")

FULL_RECORD_FIELDS = ("X", "M", "I", "normal", "rho", "symbol", "U", "A", "W")


@dataclass(frozen=True)
class Policy:
    """What the controller is allowed to see and do."""

    kind: str
    range: float | None = None  # static_quantizer only; defaults to 10*M0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"policy kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        if self.range is not None:
            if self.kind != "static_quantizer":
                raise ValueError("range applies to static_quantizer only")
            if not (math.isfinite(self.range) and self.range > 0):
                raise ValueError(f"static range must be finite and > 0, got {self.range}")

    @classmethod
    def adaptive(cls) -> "Policy":
        return cls("adaptive_fixed_rate")

    @classmethod
    def static(cls, range: float | None = None) -> "Policy":
        return cls("static_quantizer", range)

    @classmethod
    def perfect(cls) -> "Policy":
        return cls("perfect_observation")

    @classmethod
    def zero(cls) -> "Policy":
        return cls("zero_control")


@dataclass(frozen=True)
class ExperimentConfig:
    a_spec: DistributionSpec
    w_spec: DistributionSpec
    params: StrategyParams
    policy: Policy
    horizon: int
    trials: int
    master_seed: int
    alpha: float

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        # the adaptive control is mu_A times a point of the live range, first
        # [-P*M0, P*M0], so |mu_A|*P*M0 bounds the first control.  The check
        # is on that bound, which is slightly conservative: a config just past
        # float range is rejected although its first control may be finite
        if self.policy.kind == "adaptive_fixed_rate":
            mu_a = moments(self.a_spec)[0]
            if not math.isfinite(abs(mu_a) * (self.params.P * self.params.M0)):
                raise ValueError(
                    f"|mu_A|*P*M0, the bound on the first control, is not finite: "
                    f"mu_A={mu_a:.4g}, P={self.params.P:.4g}, M0={self.params.M0:.4g}"
                )

    def static_range(self) -> float:
        if self.policy.range is not None:
            return self.policy.range
        return 10.0 * self.params.M0

    def describe(self) -> dict:
        d = {
            "system": {"A": self.a_spec.describe(), "W": self.w_spec.describe()},
            "strategy": self.params.describe(),
            "policy": self.policy.kind,
            "horizon": self.horizon,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "alpha": self.alpha,
        }
        if self.policy.kind == "static_quantizer":
            d["static_range"] = self.static_range()
        return d


@dataclass
class SummaryStats:
    """Ensemble aggregates.

    ``curve_mean[n]`` and ``curve_stderr[n]`` are over trials alive at n
    (``curve_count[n]`` of them); NaN where no trial remains.
    ``max_mean_nsq`` is the largest per-index mean of the dominating
    envelope N_n^2 (adaptive policy only, None otherwise).
    """

    policy: str
    trials: int
    horizon: int
    curve_mean: np.ndarray
    curve_stderr: np.ndarray
    curve_count: np.ndarray
    diverged_count: int
    emergency_fraction: float
    window_ratio: float
    max_mean_nsq: float | None
    verdict: str

    def terminal_mean(self) -> tuple[int, float]:
        """Mean X^2 at the last index where any trial is still alive."""
        alive = np.nonzero(self.curve_count > 0)[0]
        n = int(alive[-1])
        return n, float(self.curve_mean[n])


def trial_seed(master_seed: int, index: int) -> list[int]:
    """Entropy words mixed into each trial's PCG64 stream."""
    return [master_seed, index]


def _predraw(
    cfg: ExperimentConfig, indices: Sequence[int], out: np.ndarray | None = None, batch: int | None = None,
) -> tuple[np.ndarray, list[np.random.Generator], list[np.random.Generator] | None]:
    """Each trial's gains, or a buffer for them, and its generators.

    Each trial's stream holds its horizon's gains, then its disturbances;
    the first generator returned is left at the start of the disturbances.
    With no ``batch``, one ``sample_rows`` call draws the gains whole, into
    the first len(indices) rows of ``out`` when given, else a new array,
    and there is no second generator.  With a ``batch``, the first generator
    draws the gains into a scratch row, as the whole draw would, and drops
    them; a second generator, from the same seed, is left at the start of
    the gains for ``_run_chunk`` to redraw ``batch`` steps at a time into
    the (len(indices), batch) buffer returned.
    """
    seeds = [np.random.SeedSequence(trial_seed(cfg.master_seed, t)) for t in indices]
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    if batch is None:
        a = np.empty((len(indices), cfg.horizon)) if out is None else out[:len(indices)]
        sample_rows(cfg.a_spec, rngs, a)
        return a, rngs, None
    scratch = np.empty((1, cfg.horizon))
    for rng in rngs:
        sample_rows(cfg.a_spec, [rng], scratch)
    return np.empty((len(indices), batch)), rngs, [np.random.Generator(np.random.PCG64(s)) for s in seeds]


@dataclass
class _ChunkOut:
    """One chunk's results; sums are per trial group, in trial order."""

    sum_xsq: np.ndarray  # (groups, horizon + 1)
    sum_x4: np.ndarray
    count: np.ndarray
    steps_alive: int
    emergency_steps: int
    diverged: int
    diverged_at: np.ndarray
    records: dict[str, np.ndarray]  # the first r lanes' FULL_RECORD_FIELDS
    envelopes: list[analysis.EnvelopeMoments] | None  # per group; None once a lane diverged


def _chunk_envelope(
    acc: analysis.EnvelopeMoments, pending: tuple[np.ndarray, ...] | None,
    m_blk: np.ndarray, i_blk: np.ndarray, normal_blk: np.ndarray, K: float,
) -> tuple[np.ndarray, ...] | None:
    """Fold one time block of (lanes, steps) columns into ``acc``; returns the columns left pending.

    The block joins the ``pending`` (M, I, mode) columns, where some round
    is still open, and ``analysis.envelope_squared`` resolves the window.
    The resolved prefix goes to ``acc`` as C-ordered rows, so it sums lane by
    lane whatever the block's layout (such as transposed step-major rows);
    the rest is copied out of the reused block buffers (None: nothing left).
    """
    cols = (m_blk, i_blk, normal_blk)
    if pending is not None:
        cols = tuple(np.concatenate(pair, axis=1) for pair in zip(pending, cols))
    try:
        nsq, done = analysis.envelope_squared(*cols, K)
    except analysis.DominatingSeqError:  # no column resolved yet
        done = 0
    if done:
        acc.add(np.ascontiguousarray(nsq), cols[2][:, :done])
    return tuple(c[:, done:].copy() for c in cols) if done < cols[0].shape[1] else None


def _run_chunk(
    cfg: ExperimentConfig,
    indices: Sequence[int],
    record_fields: int,
    envelope: bool,
    *,
    drift: bool = False,
    gains: np.ndarray | None = None,
) -> _ChunkOut:
    """Run trials ``indices`` in lockstep, one lane each, under any policy.

    The lanes split, in order, into groups of CHUNK_TRIALS trials, the unit
    every sum reduces over.  The horizon is walked in blocks of BLOCK_STEPS
    steps: per-step sums are taken and the N^2 envelope folded one block at
    a time, so a block sizes the step-major X rows, the envelope's M, I and
    mode rows, the sums' temporary, the recorded lanes' block rows and the
    envelope's fold window, about 42 bytes per lane and block step with the
    envelope.  The disturbances are drawn apart, one ``sample_rows`` call
    per DRAW_STEPS steps rounded down to whole blocks (at least one), into a
    (lanes, batch) buffer of 8 bytes per lane and batch step that each block
    reads at its offset.  Under STREAMED_KINDS, when the horizon is longer
    than one batch, the gains are redrawn the same way into a buffer of
    their own, from each trial's second generator (see ``_predraw``), so
    nothing spans the horizon but the per-step sums and envelope
    statistics.  Otherwise the gains are drawn whole, into the first rows
    of ``gains`` when given (an oracle ensemble's buffer, see
    ``_run_chunks``), else into an array of the chunk's own.
    ``record_fields`` is r, the number of leading lanes whose
    FULL_RECORD_FIELDS are recorded (0: none).  After each block their rows
    are copied out into lane-major records allocated once, X (r, h + 1) and
    every other field (r, h), A and W from the block's noise.  The envelope is
    one ``analysis.EnvelopeMoments`` per group, with the drift and halving
    statistics when ``drift`` is set, plus the group's M, I and mode from
    the first column where some round is still open.  It covers ensembles
    with no diverged trial only: the chunk drops it once a lane diverges.

    Every per-step field has a step-major buffer, one column per lane, and
    step n of a block writes its row n + 1 in place (``out=``), so a step
    neither copies nor allocates.  A field gets a row per block step only
    when the envelope (M, I and mode) or a recording of every lane reads
    it; otherwise the adaptive tracker alternates between two rows and
    every other field reuses one, and the r recorded lanes of such a field
    get block rows of their own, r lanes wide, copied each step.  rho and
    the symbol are formed for the recorded lanes only.

    The adaptive step keeps the encoder's tracker only, updated by
    ``codec.cell_tracker``, and computes symbols only when recorded (the
    exact checks' floor flags come from ``verify``'s lane audit).  A step where
    every lane is normal runs with no mask.
    Otherwise lanes in zoom-out keep their tracker through masked selects,
    and so do diverged lanes, which are parked: X held at 0, and the
    zoom-out multiply skips them.  The cell arithmetic sees X = 0 on lanes
    in zoom-out and parked lanes, always within their range, and the
    control's product is kept to live normal lanes, so neither overflows.
    A parked lane adds 0 to the per-step sums and counts as a normal step;
    its records end at its divergence step, where X is the diverged value,
    and what it holds after that means nothing.  Cell indices are float64,
    exact since |k| <= L <= 2^50.
    """
    kind = cfg.policy.kind
    n_t = len(indices)
    h = cfg.horizon
    p = cfg.params
    L = p.L
    mu_a, _ = moments(cfg.a_spec)
    mu_w, _ = moments(cfg.w_spec)
    groups = [slice(g, min(g + CHUNK_TRIALS, n_t)) for g in range(0, n_t, CHUNK_TRIALS)]
    block = min(BLOCK_STEPS, h)
    draw = max(DRAW_STEPS // block, 1) * block
    streamed = kind in STREAMED_KINDS and draw < h
    a_draws, rngs, a_rngs = _predraw(cfg, indices, gains, draw if streamed else None)
    r = record_fields

    need_env = envelope and kind == "adaptive_fixed_rate"
    w_draws = np.empty((n_t, min(draw, h)))
    # row n holds X_n of the current block, 0 at parked lanes; row 0 is its start state
    xs = np.zeros((block + 1, n_t))
    # the step's rows, from the initial tracker and control, which a policy
    # with no tracker keeps (zero_control's control is mu_W)
    blocked = {"M", "I", "normal", "U"} if r == n_t else {"M", "I", "normal"} if need_env else set()
    carried = {"M", "I"} if kind == "adaptive_fixed_rate" else set()
    fills = {"M": p.M0, "I": p.M0, "normal": kind != "adaptive_fixed_rate",
             "U": mu_w if kind == "zero_control" else 0.0}
    rows = {f: np.full((block + 1 if f in blocked else 2 if f in carried else 1, n_t), fill)
            for f, fill in fills.items()}
    m_rows, i_rows, mode_rows, u_rows = rows.values()
    # the recorded lanes' block rows: the step's own where blocked, else r lanes wide
    recs = {f: buf if f in blocked else np.repeat(buf[:1, :r], block + 1, axis=0) for f, buf in rows.items()}
    copied = [(rows[f], recs[f]) for f in rows if f not in blocked] if r else []
    rho_rec = recs["rho"] = np.ones((block + 1, r), dtype=np.int64)
    sym_rec = recs["symbol"] = np.full((block + 1, r), NO_SYMBOL)
    records = {"X": np.zeros((r, h + 1)), **{f: np.empty((r, h), buf.dtype) for f, buf in recs.items()},
               "A": np.empty((r, h)), "W": np.empty((r, h))}
    envs = [analysis.EnvelopeMoments.sized(lanes.stop - lanes.start, h, p.c if drift else None,
                                           indices[lanes.start]) for lanes in groups] if need_env else []
    pending = [None] * len(envs)  # each group's unresolved (M, I, mode) columns
    x = xs[0]
    ax = np.zeros(n_t)  # |X| of the current step
    sum_xsq = np.zeros((len(groups), h + 1))
    sum_x4 = np.zeros((len(groups), h + 1))
    diverged_at = np.full(n_t, -1, dtype=np.int64)
    x_diverged = np.zeros(n_t)
    parked = None
    live = True  # ~parked once a lane diverges
    count = np.full(h + 1, n_t, dtype=np.int64)
    emergency_steps = 0

    # per-step scratch; rho is recorded apart, as an integer
    k, lim, xz, rho = np.empty((4, n_t))
    work = (np.empty(n_t), np.empty(n_t), np.empty(n_t, dtype=bool))
    zoom, keep = np.empty((2, n_t), dtype=bool)
    if kind == "static_quantizer":
        srange = cfg.static_range()
        w_cell_s = 2.0 * srange / (2 * L + 1)
        sign, below = np.empty(n_t), np.empty(n_t, dtype=bool)

    for b0 in range(0, h, block):
        nb = min(block, h - b0)
        if b0:  # carry the last rows of the previous block, which had ``block`` steps
            xs[0] = x
            for buf in (m_rows, i_rows, rho_rec):
                buf[0] = buf[block % len(buf)]
        xv = xs[:nb + 1]
        if not b0 % draw:
            if streamed:
                sample_rows(cfg.a_spec, a_rngs, a_draws[:, :min(draw, h - b0)])
            sample_rows(cfg.w_spec, rngs, w_draws[:, :min(draw, h - b0)])
        a_blk = a_draws[:, b0 % draw:b0 % draw + nb] if streamed else a_draws[:, b0:b0 + nb]
        w_blk = w_draws[:, b0 % draw:b0 % draw + nb]

        for i in range(nb):
            n = b0 + i
            x = xv[i]
            m, i_new = m_rows[(i + 1) % len(m_rows)], i_rows[(i + 1) % len(i_rows)]
            u = u_rows[(i + 1) % len(u_rows)]
            if kind == "adaptive_fixed_rate":
                # zoom-out update M <- P*M, which is also the live range; a
                # parked lane keeps the tracker it diverged with
                if parked is None:
                    np.multiply(m_rows[i % len(m_rows)], p.P, out=lim)
                else:
                    np.copyto(lim, m_rows[i % len(m_rows)])
                    np.multiply(lim, p.P, out=lim, where=live)
                normal = mode_rows[(i + 1) % len(mode_rows)]
                zooming = n_t - int(np.count_nonzero(np.less_equal(ax, lim, out=normal)))
                if not zooming and parked is None:
                    cell_tracker(x, lim, L, p.M0, k, (m, i_new, rho), work)
                    np.subtract(m, i_new, out=u)
                    u *= rho
                    u *= mu_a
                    u += mu_w
                else:
                    emergency_steps += zooming
                    # lanes in zoom-out encode X = 0; their cells are dropped below
                    np.logical_not(normal, out=zoom)
                    np.copyto(xz, x)
                    np.putmask(xz, zoom, 0.0)
                    cell_tracker(xz, lim, L, p.M0, k, (m, i_new, rho), work)
                    held = zoom if parked is None else np.logical_or(zoom, parked, out=keep)
                    # the product with mu_A is formed on live normal lanes only
                    np.subtract(m, i_new, out=u)
                    u *= rho
                    np.putmask(u, held, 0.0)
                    u *= mu_a
                    u += mu_w
                    np.putmask(u, held, mu_w)
                    np.putmask(m, held, lim)
                    np.putmask(i_new, held, i_rows[i % len(i_rows)])
                    if r:
                        np.putmask(rho[:r], held[:r], rho_rec[i])
                if r:
                    np.copyto(rho_rec[i + 1], rho[:r], casting="unsafe")
                    np.add(k[:r], L, out=sym_rec[i + 1], casting="unsafe")
                    if zooming:
                        np.putmask(sym_rec[i + 1], zoom[:r], 2 * L)
            elif kind == "static_quantizer":
                a_cell, b_cell, above = work
                np.floor(np.divide(np.add(x, srange, out=k), w_cell_s, out=k), out=k)
                np.fmin(np.fmax(k, 0.0, out=k), 2 * L, out=k)
                np.add(np.multiply(k, w_cell_s, out=a_cell), -srange, out=a_cell)
                np.add(a_cell, w_cell_s, out=b_cell)
                # a <= b, so max(|a|, |b|) is max(-a, b)
                np.maximum(np.maximum(np.negative(a_cell, out=m), b_cell, out=m), p.M0, out=m)
                np.maximum(np.divide(np.subtract(b_cell, a_cell, out=i_new), 2.0, out=i_new), p.M0, out=i_new)
                # the cell's midpoint estimate: M - I right of 0, I - M left of
                # it, 0 on the cell around 0
                np.subtract(np.greater_equal(a_cell, 0.0, out=above), np.less_equal(b_cell, 0.0, out=below),
                            out=sign, dtype=float)
                np.multiply(np.subtract(m, i_new, out=u), sign, out=u)
                u *= mu_a
                u += mu_w
                if r:
                    np.copyto(sym_rec[i + 1], k[:r], casting="unsafe")
                    np.subtract(np.multiply(above[:r], 2, out=rho_rec[i + 1]), 1, out=rho_rec[i + 1])
            elif kind == "perfect_observation":
                np.multiply(x, mu_a, out=u)
                u += mu_w
            for buf, rec in copied:
                np.copyto(rec[i + 1], buf[(i + 1) % len(buf), :r])

            x_next = xv[i + 1]
            np.multiply(a_blk[:, i], x, out=x_next)
            x_next += w_blk[:, i]
            x_next -= u
            if parked is not None:
                np.putmask(x_next, parked, 0.0)
            if not np.abs(x_next, out=ax).max() <= DIVERGENCE_LIMIT:
                dead = ~(ax <= DIVERGENCE_LIMIT)
                diverged_at[dead] = n + 1
                x_diverged[dead] = x_next[dead]
                x_next[dead] = ax[dead] = 0.0
                count[n + 1:] -= np.count_nonzero(dead)
                parked = dead if parked is None else parked | dead
                live = ~parked
        x = xv[nb]

        # per-step sums of the block's states, parked lanes contributing 0
        sq = xv[1:] * xv[1:]
        for g, lanes in enumerate(groups):
            sum_xsq[g, b0 + 1:b0 + nb + 1] = sq[:, lanes].sum(axis=1)
        with np.errstate(over="ignore"):
            # near the divergence limit x^4 saturates to inf; the stderr at
            # such indices is reported as inf, means stay finite
            sq *= sq
            for g, lanes in enumerate(groups):
                sum_x4[g, b0 + 1:b0 + nb + 1] = sq[:, lanes].sum(axis=1)
        del sq
        if parked is not None:
            envs = []  # the envelope covers ensembles with no diverged trial
        for g, (lanes, acc) in enumerate(zip(groups, envs)):
            cols = (buf[1:nb + 1, lanes].T for buf in (m_rows, i_rows, mode_rows))
            pending[g] = _chunk_envelope(acc, pending[g], *cols, p.K)
        for f, buf in recs.items():  # the recorded lanes' rows of the block, copied out
            records[f][:, b0:b0 + nb] = buf[1:nb + 1, :r].T
        records["X"][:, b0 + 1:b0 + nb + 1] = xv[1:, :r].T
        records["A"][:, b0:b0 + nb] = a_blk[:r]
        records["W"][:, b0:b0 + nb] = w_blk[:r]

    # the freshly diverged value is recorded too (flagged, excluded from the sums above)
    dead = np.flatnonzero(diverged_at[:r] >= 0)
    records["X"][dead, diverged_at[dead]] = x_diverged[dead]

    return _ChunkOut(
        sum_xsq=sum_xsq,
        sum_x4=sum_x4,
        count=count,
        steps_alive=int(count[:h].sum()),
        emergency_steps=emergency_steps,
        diverged=int(np.count_nonzero(diverged_at >= 0)),
        diverged_at=diverged_at,
        records=records,
        envelopes=envs or None,
    )


def _chunked(cfg: ExperimentConfig) -> list[range]:
    """The trials of ``cfg`` split, in order, into engine chunks: four trial
    groups where the gains stream (STREAMED_KINDS), two where they are drawn whole."""
    lanes = (4 if cfg.policy.kind in STREAMED_KINDS else 2) * CHUNK_TRIALS
    return [range(i, min(i + lanes, cfg.trials)) for i in range(0, cfg.trials, lanes)]


def _run_chunks(cfg: ExperimentConfig, envelope: bool, drift: bool = False, keep: int = 0) -> list[_ChunkOut]:
    """Every trial of ``cfg`` in engine chunks run one after another; trials below ``keep`` are recorded.

    The oracle policies' chunks draw their gains whole, into one buffer
    allocated once for the ensemble, so a chunk's gains reuse the memory of
    the one before; the quantizer policies' chunks draw theirs a batch at a time.
    """
    chunks = _chunked(cfg)
    gains = None if cfg.policy.kind in STREAMED_KINDS else np.empty((len(chunks[0]), cfg.horizon))
    return [_run_chunk(cfg, idx, min(max(keep - idx[0], 0), len(idx)), envelope, drift=drift, gains=gains)
            for idx in chunks]


def envelope_moments(cfg: ExperimentConfig) -> tuple[analysis.EnvelopeMoments | None, int]:
    """(N^2 drift and halving statistics, diverged trials) of one unrecorded adaptive pass.

    The group statistics merge in trial order; they are None when any trial diverged.
    """
    outs = _run_chunks(cfg, True, drift=True)
    diverged = sum(out.diverged for out in outs)
    if diverged:
        return None, diverged
    return functools.reduce(analysis.EnvelopeMoments.merge, [g for out in outs for g in out.envelopes]), 0


def _max_workers() -> int:
    """Engine workers: always 1, the calling thread (the benchmark harness reports it)."""
    return 1


def _window_ratio(curve: np.ndarray) -> float:
    """Mean of the curve's last quarter over that of its third quarter (NaN when undefined)."""
    h = len(curve) - 1
    third = curve[h // 2:3 * h // 4]
    last = curve[3 * h // 4:]
    third = third[np.isfinite(third)]
    last = last[np.isfinite(last)]
    if len(third) == 0 or len(last) == 0 or third.mean() == 0.0:
        return math.nan
    return float(last.mean() / third.mean())


def stability_verdict(stats: SummaryStats) -> str:
    """Operational reading of the bounded-second-moment requirement.

    stable: flat tail (window ratio within [0.5, 1.5]) and zero divergence.
    unstable: window ratio above 4 or more than 1% of trials diverged.
    Anything else, including an undefined ratio, is inconclusive.
    """
    if stats.horizon < 1000:
        raise ValueError(f"verdicts need horizon >= 1000, got {stats.horizon}")
    ratio = _window_ratio(stats.curve_mean)
    if (math.isfinite(ratio) and ratio > 4.0) or stats.diverged_count > 0.01 * stats.trials:
        return "unstable"
    if math.isfinite(ratio) and 0.5 <= ratio <= 1.5 and stats.diverged_count == 0:
        return "stable"
    return "inconclusive"


def run_experiment(
    cfg: ExperimentConfig,
    keep_traces: int = 0,
    envelope: bool = True,
) -> tuple[SummaryStats, list[Trace]]:
    """Run the configured ensemble and aggregate second-moment statistics.

    ``keep_traces`` retains the first k trials as full Trace objects: each
    ensemble chunk records its lanes below k, so the traces come from the
    one ensemble pass, as views of its records.  ``envelope`` controls whether the dominating
    envelope statistic max_mean_nsq is computed (adaptive policy only); it
    is None when any trial diverged.
    """
    outs = _run_chunks(cfg, envelope, keep=keep_traces)
    h = cfg.horizon

    def group_total(f, width):
        # group sums in trial order
        return functools.reduce(np.add, (s for out in outs for s in getattr(out, f)), np.zeros(width))

    sum_xsq = group_total("sum_xsq", h + 1)
    with np.errstate(over="ignore"):  # x^4 sums near the float limit saturate to inf, as in a group
        sum_x4 = group_total("sum_x4", h + 1)
    count = sum(out.count for out in outs)
    steps_alive = sum(out.steps_alive for out in outs)
    emergency_steps = sum(out.emergency_steps for out in outs)
    diverged = sum(out.diverged for out in outs)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mean = np.where(count > 0, sum_xsq / np.maximum(count, 1), np.nan)
        ex4 = np.where(count > 0, sum_x4 / np.maximum(count, 1), np.nan)
        var = np.maximum(ex4 - mean**2, 0.0)
        stderr = np.where(count > 1, np.sqrt(var / np.maximum(count, 1)), np.nan)

    max_mean_nsq = None
    if outs[0].envelopes is not None and diverged == 0:
        envs = [e for out in outs for e in out.envelopes]
        count_nsq = sum(e.count * (np.arange(h) < e.resolved) for e in envs)
        mean_nsq = functools.reduce(np.add, (e.sums[0] for e in envs), np.zeros(h)) / np.maximum(count_nsq, 1)
        max_mean_nsq = float(np.nanmax(np.where(count_nsq > 0, mean_nsq, np.nan)))

    stats = SummaryStats(
        policy=cfg.policy.kind,
        trials=cfg.trials,
        horizon=h,
        curve_mean=mean,
        curve_stderr=stderr,
        curve_count=count,
        diverged_count=diverged,
        emergency_fraction=(emergency_steps / steps_alive) if steps_alive else 0.0,
        window_ratio=_window_ratio(mean),
        max_mean_nsq=max_mean_nsq,
        verdict="",
    )
    stats.verdict = (
        stability_verdict(stats) if h >= 1000 else "inconclusive"
    )

    traces = [tr for out, idx in zip(outs, _chunked(cfg)) for tr in _chunk_traces(cfg, out, idx)]
    return stats, traces


def run_recorded_bundle(cfg: ExperimentConfig) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Record every trial's FULL_RECORD_FIELDS, in one engine chunk whose lanes are all recorded.

    Returns the record dict plus each trial's divergence step (-1 where the
    trial ran to the horizon).  The records are lane-major, copied out of
    the chunk's time blocks, with its own gains as A, so memory scales with
    trials * horizon * 65 bytes; callers cap the horizon accordingly.  A
    trial's records end at its divergence step (``recorded_lanes``).
    """
    out = _run_chunk(cfg, range(cfg.trials), cfg.trials, envelope=False)
    return out.records, out.diverged_at


def recorded_lanes(records: dict[str, np.ndarray], diverged_at: np.ndarray) -> tuple[np.ndarray, list[dict]]:
    """Each lane's executed steps (its divergence step, else the horizon) and its records cut there, as views.

    A lane's cut is a Trace's layout: X_0..X_steps, and ``steps`` entries of every other field,
    each contiguous, as the records are lane-major.
    """
    steps = np.where(diverged_at < 0, records["symbol"].shape[1], diverged_at)
    return steps, [{f: c[j, :s + (f == "X")] for f, c in records.items()} for j, s in enumerate(steps.tolist())]


def _chunk_traces(cfg: ExperimentConfig, out: _ChunkOut, indices: Sequence[int]) -> list[Trace]:
    """The recorded lanes of a chunk over trials ``indices`` as Traces, views of its lane-major records.

    Every policy records all of FULL_RECORD_FIELDS, a policy with no tracker the initial one and NO_SYMBOL."""
    diverged_at = out.diverged_at[:len(out.records["X"])]
    _, lanes = recorded_lanes(out.records, diverged_at)
    return [Trace(**lane, seed=trial_seed(cfg.master_seed, t), diverged_at=None if d < 0 else int(d))
            for lane, d, t in zip(lanes, diverged_at.tolist(), indices)]


def extract_trace(cfg: ExperimentConfig, index: int) -> Trace:
    """Materialize one ensemble member as a full Trace, recorded as a one-lane chunk."""
    return _chunk_traces(cfg, _run_chunk(cfg, [index], 1, envelope=False), [index])[0]


@dataclass(frozen=True)
class SweepRow:
    dimension: str
    value: float
    R: int
    verdict: str
    diverged_count: int
    window_ratio: float
    emergency_fraction: float
    terminal_mean_xsq: float


SWEEP_DIMENSIONS = ("P", "L", "K", "M0", "R")


def sweep(cfg: ExperimentConfig, dimension: str, values: Sequence[float]) -> list[SweepRow]:
    """One ensemble per value of the swept strategy dimension.

    Sweeping R picks the largest codebook fitting the bit budget,
    L = (2^R - 1) // 2.  The master seed is reused across values (common
    random numbers).
    """
    if dimension not in SWEEP_DIMENSIONS:
        raise ValueError(f"dimension must be one of {SWEEP_DIMENSIONS}, got {dimension!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if dimension in ("L", "R"):
        for v in values:
            if not float(v).is_integer():
                raise ValueError(f"sweep over {dimension} needs integer values, got {v!r}")
    rows = []
    for v in values:
        if dimension == "L":
            params = replace(cfg.params, L=int(v))
        elif dimension == "R":
            bits = int(v)
            if bits < 2:
                raise ValueError(f"rate sweep needs R >= 2, got {bits}")
            params = replace(cfg.params, L=(2**bits - 1) // 2)
        else:
            params = replace(cfg.params, **{dimension: float(v)})
        sub = replace(cfg, params=params)
        stats, _ = run_experiment(sub, envelope=False)
        n_term, mean_term = stats.terminal_mean()
        rows.append(
            SweepRow(
                dimension=dimension,
                value=float(v),
                R=rate(params),
                verdict=stats.verdict,
                diverged_count=stats.diverged_count,
                window_ratio=stats.window_ratio,
                emergency_fraction=stats.emergency_fraction,
                terminal_mean_xsq=mean_term,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def write_summary_json(stats: SummaryStats, cfg: ExperimentConfig, path) -> None:
    n_term, mean_term = stats.terminal_mean()
    payload = {
        "config": cfg.describe(),
        "verdict": stats.verdict,
        "trials": stats.trials,
        "horizon": stats.horizon,
        "diverged_count": stats.diverged_count,
        "emergency_fraction": stats.emergency_fraction,
        "window_ratio": json_safe(stats.window_ratio),
        "max_mean_nsq": json_safe(stats.max_mean_nsq),
        "terminal": {"n": n_term, "mean_xsq": json_safe(mean_term)},
    }
    write_json(payload, path)


def _write_config_csv(cfg: ExperimentConfig, path, header: list[str], rows: Iterable) -> None:
    """CSV rows under a ``# config:`` line holding the config's JSON; floats are written by repr."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(cfg.describe(), sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_curve_csv(stats: SummaryStats, cfg: ExperimentConfig, path) -> None:
    _write_config_csv(cfg, path, ["n", "mean", "stderr"], zip(
        range(len(stats.curve_mean)), stats.curve_mean.tolist(), stats.curve_stderr.tolist()))


def write_sweep_csv(rows: Iterable[SweepRow], cfg: ExperimentConfig, path) -> None:
    _write_config_csv(cfg, path, [
        "dimension", "value", "R", "verdict", "diverged_count",
        "window_ratio", "emergency_fraction", "terminal_mean_xsq",
    ], ([r.dimension, r.value, r.R, r.verdict, r.diverged_count, float(r.window_ratio),
         float(r.emergency_fraction), float(r.terminal_mean_xsq)] for r in rows))
