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

Layout: an engine chunk runs two groups side by side, 1024 lanes, and walks
the horizon in time blocks of BLOCK_STEPS steps.  Each trial's gains are
drawn whole up front, into one buffer that the unrecorded chunks of an
ensemble share; its disturbances, the per-step sums and the N^2 envelope
are produced one block at a time, from step-major block buffers that each
step writes a row of in place (see ``_run_chunk``), read through
transposed views.  An unrecorded chunk holds about
lanes x (8 * horizon + 50 * block) bytes: at 1024 lanes, 2000 steps and
250-step blocks, 16 MB of gains and 13 MB of block.  A recorded chunk is
one block as long as the horizon, whose rows are its records, with gains
of its own.  The N^2 envelope is one
``analysis.EnvelopeMoments`` per trial group: its column sums, 8 * horizon
bytes, and for ``verify``'s drift the drift and halving statistics,
32 * horizon more.  Each lane's M, I and mode, about 17 bytes, wait for
each column from the first one some lane of its group has not resolved
yet: a round that stays open over the whole horizon holds another
17 * horizon per lane.  It covers ensembles with no diverged trial only; a
chunk drops it at its first diverged lane.  Chunks run one after another
on the calling thread, and neither the block length nor the chunking
changes a result.
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
from zoomctl.codec import (
    StrategyParams, cell_tracker, is_clamped, rate,
)
from zoomctl.distributions import DistributionSpec, moments, sample_array, sample_rows
from zoomctl.loop import DIVERGENCE_LIMIT, NO_SYMBOL, Trace, json_safe, write_json

CHUNK_TRIALS = 512  # trials per reduction group; an engine chunk runs two
BLOCK_STEPS = 250  # steps per time block of the engine

POLICY_KINDS = (
    "adaptive_fixed_rate",
    "static_quantizer",
    "perfect_observation",
    "zero_control",
)

FULL_RECORD_FIELDS = ("X", "M", "I", "normal", "rho", "clamped", "symbol", "U", "A", "W")


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
    cfg: ExperimentConfig, indices: Sequence[int], out: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.random.Generator]]:
    """Each trial's gains, drawn whole, and its generator.

    The gains fill the first len(indices) rows of ``out`` when given, else a
    new array.  The generator is left at the start of the trial's
    disturbance stream, which ``_run_chunk`` then draws one time block at a
    time.
    """
    h = cfg.horizon
    a = np.empty((len(indices), h)) if out is None else out[:len(indices)]
    rngs = []
    for j, t in enumerate(indices):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(trial_seed(cfg.master_seed, t))))
        a[j] = sample_array(cfg.a_spec, rng, h)
        rngs.append(rng)
    return a, rngs


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
    records: dict[str, np.ndarray] | None
    envelopes: list[analysis.EnvelopeMoments] | None  # per group; None once a lane diverged


# Per-step record columns, with the value a lane holds from its divergence
# step on.  X (the state history) and A, W (the noise draws) are kept apart
# and hold 0 there.
_STEP_FILL = {"M": 0.0, "I": 0.0, "normal": False, "rho": 1, "clamped": False,
              "symbol": NO_SYMBOL, "U": 0.0}


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
    record_fields: tuple[str, ...] | None,
    envelope: bool,
    *,
    drift: bool = False,
    gains: np.ndarray | None = None,
) -> _ChunkOut:
    """Run trials ``indices`` in lockstep, one lane each, under any policy.

    The lanes split, in order, into groups of CHUNK_TRIALS trials, the unit
    every sum reduces over.  The horizon is walked in blocks of BLOCK_STEPS
    steps: disturbances are drawn, per-step sums taken and the N^2 envelope
    folded one block at a time, so only the gains span the whole horizon.
    They are drawn into the first rows of ``gains`` when given (the
    ensemble's buffer, see ``_run_chunks``), else into an array of the
    chunk's own.  A recorded chunk runs the horizon as one block, whose rows
    are its records, and its gains are its A record.  The envelope is one
    ``analysis.EnvelopeMoments`` per group, with the drift and halving
    statistics when ``drift`` is set, plus the group's M, I and mode from
    the first column where some round is still open.  It covers ensembles
    with no diverged trial only: the chunk drops it once a lane diverges.

    Every per-step field has a step-major buffer, one column per lane, and
    step n of a block writes its row n + 1 in place (``out=``), so a step
    neither copies nor allocates.  A field gets a row per block step only
    when a recording or the envelope (M, I and mode) reads it; otherwise the
    adaptive tracker alternates between two rows and every other field
    reuses one.

    The adaptive step keeps the encoder's tracker only, updated by
    ``codec.cell_tracker``, and computes symbols and clamp flags only when
    recorded.  A step where every lane is normal runs with no mask.
    Otherwise lanes in zoom-out keep their tracker through masked selects,
    and so do diverged lanes, which are parked: X held at 0, and the
    zoom-out multiply skips them.  The cell arithmetic sees X = 0 on lanes
    in zoom-out and parked lanes, always within their range, and the
    control's product is kept to live normal lanes, so neither overflows.
    A parked lane adds 0 to the per-step sums, counts as a normal step, and
    its record tail is reset after the loop.  Cell indices are float64,
    exact since |k| <= L <= 2^50.
    """
    kind = cfg.policy.kind
    n_t = len(indices)
    h = cfg.horizon
    p = cfg.params
    L = p.L
    mu_a, _ = moments(cfg.a_spec)
    mu_w, _ = moments(cfg.w_spec)
    a_draws, rngs = _predraw(cfg, indices, gains)
    groups = [slice(g, min(g + CHUNK_TRIALS, n_t)) for g in range(0, n_t, CHUNK_TRIALS)]
    # a recorded chunk is one block, so its block rows are its records
    block = h if record_fields else min(BLOCK_STEPS, h)

    need_env = envelope and kind == "adaptive_fixed_rate"
    w_draws = np.empty((n_t, block))
    # row n holds X_n of the current block, 0 at parked lanes; row 0 is its start state
    xs = np.zeros((block + 1, n_t))
    # a row per block step for the fields a recording or the envelope folds
    # (M, I and mode) read; the adaptive tracker alternates two rows otherwise
    blocked = set(record_fields or ()) | ({"M", "I", "normal"} if need_env else set())
    carried = {"M", "I"} if kind == "adaptive_fixed_rate" else set()
    rows = {f: np.full((block + 1 if f in blocked else 2 if f in carried else 1, n_t), fill)
            for f, fill in _STEP_FILL.items()}
    m_rows, i_rows, mode_rows, rho_rows, u_rows, sym_rows, clamp_rows = (
        rows[f] for f in ("M", "I", "normal", "rho", "U", "symbol", "clamped"))
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
    if kind == "adaptive_fixed_rate":
        m_rows[0] = i_rows[0] = p.M0
    else:
        mode_rows[:] = True
    if kind == "static_quantizer":
        srange = cfg.static_range()
        w_cell_s = 2.0 * srange / (2 * L + 1)
        sign, below = np.empty(n_t), np.empty(n_t, dtype=bool)
    elif kind == "zero_control":
        u_rows[:] = mu_w

    for b0 in range(0, h, block):
        nb = min(block, h - b0)
        if b0:  # carry the last rows of the previous block, which had ``block`` steps
            xs[0] = x
            for buf in (m_rows, i_rows):
                buf[0] = buf[block % len(buf)]
        xv = xs[:nb + 1]
        w_blk = w_draws[:, :nb]
        sample_rows(cfg.w_spec, rngs, w_blk)

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
                    if len(rho_rows) > 1:
                        np.putmask(rho, held, rho_rows[i % len(rho_rows)])
                if len(rho_rows) > 1:
                    np.copyto(rho_rows[i + 1], rho, casting="unsafe")
                if len(sym_rows) > 1:
                    np.add(k, L, out=sym_rows[i + 1], casting="unsafe")
                    if zooming:
                        np.putmask(sym_rows[i + 1], zoom, 2 * L)
                if len(clamp_rows) > 1:
                    np.logical_and(is_clamped(*work[:2], p.M0), normal, out=clamp_rows[i + 1])
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
                if len(sym_rows) > 1:
                    np.copyto(sym_rows[i + 1], k, casting="unsafe")
                if len(rho_rows) > 1:
                    np.subtract(np.multiply(above, 2, out=rho_rows[i + 1]), 1, out=rho_rows[i + 1])
            elif kind == "perfect_observation":
                np.multiply(x, mu_a, out=u)
                u += mu_w

            x_next = xv[i + 1]
            np.multiply(a_draws[:, n], x, out=x_next)
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

    records = None
    if record_fields:
        cols = {**{f: buf[1:].T for f, buf in rows.items()}, "X": xs.T, "A": a_draws, "W": w_draws}
        records = {f: cols[f] for f in record_fields}
        for j in np.flatnonzero(diverged_at >= 0):
            d = diverged_at[j]
            for f, col in records.items():
                col[j, d:] = _STEP_FILL.get(f, 0.0)
            if "X" in records:
                # the freshly diverged value is recorded too (flagged,
                # excluded from the aggregates above)
                records["X"][j, d] = x_diverged[j]

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


def _chunked(indices: Sequence[int]) -> list[list[int]]:
    """Trial indices split, in order, into engine chunks of two trial groups."""
    indices = list(indices)
    lanes = 2 * CHUNK_TRIALS
    return [indices[i:i + lanes] for i in range(0, len(indices), lanes)]


def _run_chunks(cfg: ExperimentConfig, envelope: bool, drift: bool = False) -> list[_ChunkOut]:
    """Every trial of ``cfg``, unrecorded, in engine chunks run one after another.

    The chunks draw their gains into one buffer, allocated once for the
    ensemble, so a chunk's gains reuse the memory of the one before.
    """
    gains = np.empty((min(2 * CHUNK_TRIALS, cfg.trials), cfg.horizon))
    return [_run_chunk(cfg, idx, None, envelope, drift=drift, gains=gains) for idx in _chunked(range(cfg.trials))]


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

    ``keep_traces`` retains the first k trials as full Trace objects
    (re-simulated together through the recording path; bit-identical to
    their ensemble counterparts).  ``envelope`` controls whether the dominating
    envelope statistic max_mean_nsq is computed (adaptive policy only); it
    is None when any trial diverged.
    """
    outs = _run_chunks(cfg, envelope)
    h = cfg.horizon

    def group_total(f, width):
        # group sums in trial order
        return functools.reduce(np.add, (s for out in outs for s in getattr(out, f)), np.zeros(width))

    sum_xsq, sum_x4 = group_total("sum_xsq", h + 1), group_total("sum_x4", h + 1)
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

    traces = _kept_traces(cfg, range(min(max(keep_traces, 0), cfg.trials)))
    return stats, traces


def run_recorded_bundle(
    cfg: ExperimentConfig, fields: Sequence[str] = ("X", "M", "I", "normal")
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Record per-step columns for every trial.

    ``fields`` picks the columns, any of FULL_RECORD_FIELDS.  Returns the
    stacked record dict plus each trial's divergence step (-1 where the
    trial ran to the horizon).  Memory scales with trials * horizon *
    fields; callers cap the horizon accordingly.

    A single chunk's records, as in ``verify``'s exact pass, are returned
    as they are, views of its step-major block rows (the gains as drawn),
    with no copy; several chunks' records are joined.
    """
    outs = [_run_chunk(cfg, idx, fields, envelope=False) for idx in _chunked(range(cfg.trials))]
    if len(outs) == 1:
        return outs[0].records, outs[0].diverged_at
    rec = {f: np.concatenate([o.records[f] for o in outs], axis=0) for f in fields}
    return rec, np.concatenate([o.diverged_at for o in outs])


def _kept_traces(cfg: ExperimentConfig, indices: Sequence[int]) -> list[Trace]:
    """Full Traces of the given trials, simulated together in shared chunks."""
    traces = []
    for chunk in _chunked(indices):
        out = _run_chunk(cfg, chunk, FULL_RECORD_FIELDS, envelope=False)
        traces += [_trace_from_records(cfg, out, j, t) for j, t in enumerate(chunk)]
    return traces


def extract_trace(cfg: ExperimentConfig, index: int) -> Trace:
    """Materialize one ensemble member as a full Trace."""
    return _kept_traces(cfg, [index])[0]


def _trace_from_records(cfg: ExperimentConfig, out: _ChunkOut, j: int, index: int) -> Trace:
    """Lane j of a fully recorded chunk, which ran trial ``index``, as a Trace."""
    div_at = int(out.diverged_at[j])
    steps = cfg.horizon if div_at < 0 else div_at

    def column(values, fill, dtype=float, hold=False):
        # the executed steps, then the state-only row: ``fill``, or with
        # ``hold`` the last step's value
        col = np.full(steps + 1, fill, dtype=dtype)
        if values is not None:
            col[:steps] = values[:steps]
        if hold and steps:
            col[steps] = col[steps - 1]
        return col

    rec = {f: col[j] for f, col in out.records.items()}
    normal = rec["normal"][:steps]
    quantized = cfg.policy.kind in ("adaptive_fixed_rate", "static_quantizer")
    trk = rec if quantized else dict.fromkeys(("symbol", "M", "I", "rho"))
    return Trace(
        n=np.arange(steps + 1, dtype=np.int64),
        X=rec["X"][: steps + 1].copy(),
        symbol=column(trk["symbol"], NO_SYMBOL, np.int64),
        mode=column(~normal, 0, np.uint8, hold=True),
        M=column(trk["M"], cfg.params.M0, hold=True),
        I=column(trk["I"], cfg.params.M0, hold=True),
        rho=column(trk["rho"], 1, np.int64, hold=True),
        U=column(rec["U"], 0.0),
        A=column(rec["A"], np.nan),
        W=column(rec["W"], np.nan),
        round_id=column(np.maximum(np.cumsum(normal, dtype=np.int64) - 1, 0), 0, np.int64, hold=True),
        params=cfg.params,
        a_spec=cfg.a_spec,
        w_spec=cfg.w_spec,
        seed=trial_seed(cfg.master_seed, index),
        diverged=div_at >= 0,
        diverged_at=None if div_at < 0 else div_at,
        policy=cfg.policy.kind,
    )


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
