"""Monte Carlo engine: trial ensembles, stability verdicts, parameter sweeps.

Trials are vectorized in lockstep across a chunk axis; every trial draws
its noise from its own counter-derived stream (PCG64 seeded by mixing the
master seed with the trial index), so results are independent of chunking
and threading.  The vectorized step mirrors the scalar reference loop
expression by expression and is held to bit-identical agreement with it by
the test suite.

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
drawn whole up front; its disturbances, the per-step sums and the N^2
envelope are produced one block at a time.  An unrecorded chunk holds about
lanes x (8 * horizon + 50 * block) bytes; recording adds the requested
columns over the whole horizon.  The envelope adds 8 bytes per lane for
each column some lane of its group has not resolved yet: a round that stays
open over the whole horizon holds another 8 * horizon.  It covers
ensembles with no diverged trial only; a chunk drops it at its first
diverged lane.  Neither the block length nor the number of threads changes a
result.  ``ZOOMCTL_THREADS`` caps the number of worker threads used across
chunks.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from zoomctl import analysis
from zoomctl.codec import (
    StrategyParams, cell_endpoints, cell_index, is_clamped, rate, tracker_update,
)
from zoomctl.distributions import DistributionSpec, moments, sample_array
from zoomctl.loop import DIVERGENCE_LIMIT, NO_SYMBOL, Trace

CHUNK_TRIALS = 512  # trials per reduction group; an engine chunk runs two
BLOCK_STEPS = 1000  # steps per time block of the engine

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

    def second_moment_curve(self) -> list[tuple[int, float, float]]:
        return [
            (int(n), float(self.curve_mean[n]), float(self.curve_stderr[n]))
            for n in range(len(self.curve_mean))
        ]

    def terminal_mean(self) -> tuple[int, float]:
        """Mean X^2 at the last index where any trial is still alive."""
        alive = np.nonzero(self.curve_count > 0)[0]
        n = int(alive[-1])
        return n, float(self.curve_mean[n])


def trial_seed(master_seed: int, index: int) -> list[int]:
    """Entropy words mixed into each trial's PCG64 stream."""
    return [master_seed, index]


def _predraw(
    cfg: ExperimentConfig, indices: Sequence[int]
) -> tuple[np.ndarray, list[np.random.Generator]]:
    """Each trial's gains, drawn whole, and its generator.

    The generator is left at the start of the trial's disturbance stream,
    which ``_run_chunk`` then draws one time block at a time.
    """
    h = cfg.horizon
    a = np.empty((len(indices), h))
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
    sum_nsq: np.ndarray | None  # (groups, horizon); None once a lane diverged
    count_nsq: np.ndarray | None
    stats: list[analysis.EnvelopeMoments] | None  # per group, with drift=True


# Per-step record columns, with the value a lane holds from its divergence
# step on.  X (the state history) and A, W (the noise draws) are kept apart
# and hold 0 there.
_STEP_FILL = {"M": 0.0, "I": 0.0, "normal": False, "rho": 1, "clamped": False,
              "symbol": NO_SYMBOL, "U": 0.0}


@dataclass
class _EnvelopeFold:
    """N^2 column sums of one trial group, folded in as columns resolve.

    Columns from ``start`` on are not summed yet: some lane's round is
    still open there.  Their N^2 values wait in ``window``, one lane-major
    (block start, values, emergency flags) triple per time block.  A lane's
    values from ``open_from`` on wait for its round to exit and are written
    then.  With ``stats``, resolved columns also feed the drift and halving
    statistics.
    """

    sums: np.ndarray
    open_from: np.ndarray  # per lane
    start: int = 0
    end: int = 0  # columns folded in so far
    first: np.ndarray | None = None  # N^2 of column 0, per lane
    window: list[tuple[int, np.ndarray, np.ndarray | None]] = field(default_factory=list)
    stats: analysis.EnvelopeMoments | None = None


def _chunk_envelope(
    fold: _EnvelopeFold, m_blk: np.ndarray, i_blk: np.ndarray, normal_blk: np.ndarray, K: float
) -> None:
    """Fold one time block, (lanes, steps) columns, into a group's N^2 sums.

    N^2 at a column needs only the tracker at the lane's next normal step,
    so each value is computed once: at its block when the round exits
    there, else when it does.  The columns every lane has resolved are
    summed, each once, lane by lane in trial order.
    """
    b0 = fold.end
    nb = m_blk.shape[1]
    all_normal = normal_blk.all()
    if all_normal:  # no zoom-out in the block: each column resolves at itself
        exit_at = n_open = np.zeros(len(m_blk), dtype=np.int64)
        nsq = analysis._nsq_from_tau(m_blk, i_blk, K, None)
    else:
        tau = analysis._tau_backward(normal_blk)
        exit_at = tau[:, 0].copy()  # each lane's first normal step in the block
        # unresolved tau is a suffix; it stands in for itself until resolved
        n_open = np.count_nonzero(tau < 0, axis=1)
        np.copyto(tau, np.arange(nb, dtype=np.int64), where=tau < 0)
        nsq = analysis._nsq_from_tau(m_blk, i_blk, K, tau)
    # rounds open from an earlier block that exit in this one
    waiting = fold.open_from < b0
    exits = np.flatnonzero(waiting & (exit_at >= 0))
    if len(exits):
        q = nsq[exits, exit_at[exits]]  # Q^2 at the exit step
        t = b0 + exit_at[exits]
        since = fold.open_from[exits]
        for s, vals, _ in fold.window:
            # each lane writes from where its round opened on
            sel = since < s + vals.shape[1]
            if not sel.any():
                continue
            lo = max(s, int(since[sel].min()))
            cols = np.arange(lo, s + vals.shape[1])
            rows = vals[exits[sel], lo - s:]
            np.ldexp(q[sel, None], (2 * (t[sel, None] - cols)).astype(np.int32), out=rows,
                     where=cols >= since[sel, None])
            vals[exits[sel], lo - s:] = rows
    fold.open_from = np.where(waiting & (exit_at < 0), fold.open_from, b0 + nb - n_open)
    # emergency flags, kept for the halving statistics (None: all normal)
    inside = None if fold.stats is None or all_normal else ~normal_blk
    fold.window.append((b0, nsq, inside))
    fold.end = b0 + nb

    done = int(fold.open_from.min())
    while fold.start < done:
        s, vals, inside = fold.window[0]
        lo, hi = fold.start - s, min(vals.shape[1], done - s)
        part = vals[:, lo:hi]
        fold.sums[fold.start:s + hi] = analysis._lane_sums(part)
        if fold.stats is not None:
            fold.stats.add(part, None if inside is None else inside[:, lo:hi])
        if fold.start == 0:
            fold.first = vals[:, 0].copy()
        fold.start = s + hi
        if hi == vals.shape[1]:
            fold.window.pop(0)


def _run_chunk(
    cfg: ExperimentConfig,
    indices: Sequence[int],
    record_fields: tuple[str, ...] | None,
    envelope: bool,
    *,
    drift: bool = False,
) -> _ChunkOut:
    """Run trials ``indices`` in lockstep, one lane each, under any policy.

    The lanes split, in order, into groups of CHUNK_TRIALS trials, the unit
    every sum reduces over.  The horizon is walked in blocks of BLOCK_STEPS
    steps: disturbances are drawn, per-step sums taken and the N^2 envelope
    folded one block at a time, so only the gains and recorded columns span
    the whole horizon.  The envelope also keeps each group's N^2 values of
    the columns where some round is still open; with ``drift`` it also
    accumulates each group's drift and halving statistics.  It covers
    ensembles with no diverged trial only: the chunk drops it once a lane
    diverges.

    The adaptive step keeps the encoder's tracker only and computes symbols
    and clamp flags only when recorded.  It works on whole lane arrays with
    no mask until a lane diverges.  A diverged lane is then parked: its X is
    held at 0, and the zoom-out multiply and tracker update skip it.  The
    cell arithmetic sees X = 0 on lanes in zoom-out and parked lanes, always
    within their range, and the control's product is formed on normal lanes
    only, so neither overflows.  A parked lane adds 0 to the per-step sums,
    counts as a normal step, and its record tail is reset after the loop.
    Cell indices are float64, exact since |k| <= L <= 2^50.
    """
    kind = cfg.policy.kind
    n_t = len(indices)
    h = cfg.horizon
    p = cfg.params
    L = p.L
    mu_a, _ = moments(cfg.a_spec)
    mu_w, _ = moments(cfg.w_spec)
    a_draws, rngs = _predraw(cfg, indices)
    groups = [slice(g, min(g + CHUNK_TRIALS, n_t)) for g in range(0, n_t, CHUNK_TRIALS)]
    block = min(BLOCK_STEPS, h)

    need_env = envelope and kind == "adaptive_fixed_rate"
    wanted = set(record_fields or ())
    # whole-horizon record columns, filled from the block columns at each
    # block end; the envelope folds read the block's M, I and mode
    rec = {f: np.full((n_t, h), fill) for f, fill in _STEP_FILL.items() if f in wanted}
    blk_fields = wanted | ({"M", "I", "normal"} if need_env else set())
    blk = {f: np.full((n_t, block), fill) for f, fill in _STEP_FILL.items() if f in blk_fields}
    folds = [_EnvelopeFold(np.zeros(h), np.zeros(lanes.stop - lanes.start, dtype=np.int64),
                           stats=analysis.EnvelopeMoments.sized(
                               lanes.stop - lanes.start, h, p.c, indices[lanes.start]) if drift else None)
             for lanes in groups] if need_env else []
    w_draws = np.empty((n_t, h if "W" in wanted else block))
    # row n holds X_n, 0 at parked lanes: the whole history when X is
    # recorded, else the current block with its start state in row 0
    xs = np.zeros((h + 1 if "X" in wanted else block + 1, n_t))
    x = xs[0]
    sum_xsq = np.zeros((len(groups), h + 1))
    sum_x4 = np.zeros((len(groups), h + 1))
    diverged_at = np.full(n_t, -1, dtype=np.int64)
    x_diverged = np.zeros(n_t)
    parked = None
    live = True  # ~parked once a lane diverges
    count = np.full(h + 1, n_t, dtype=np.int64)
    emergency_steps = 0

    if kind == "adaptive_fixed_rate":
        # rows M, I, rho of the tracker, one column per lane
        trk = np.empty((3, n_t))
        trk[:2] = p.M0
        trk[2] = 1.0
    elif kind == "static_quantizer":
        srange = cfg.static_range()
        w_cell_s = 2.0 * srange / (2 * L + 1)
    elif kind == "zero_control":
        u = mu_w

    for b0 in range(0, h, block):
        nb = min(block, h - b0)
        if "X" in wanted:
            xv = xs[b0:b0 + nb + 1]
        else:
            xs[0] = x
            xv = xs[:nb + 1]
        x = xv[0]
        w_blk = w_draws[:, b0:b0 + nb] if "W" in wanted else w_draws[:, :nb]
        for j, rng in enumerate(rngs):
            w_blk[j] = sample_array(cfg.w_spec, rng, nb)

        for i in range(nb):
            n = b0 + i
            cols = {}
            if kind == "adaptive_fixed_rate":
                # zoom-out update M <- P*M, which is also the live range; a
                # parked lane keeps the tracker it diverged with
                lim = np.multiply(trk[0], p.P, out=trk[0], where=live)
                normal = np.abs(x) <= lim
                # lanes in zoom-out encode X = 0; the mode select drops their cells
                k = cell_index(np.where(normal, x, 0.0), lim, L)
                a_cell, b_cell = cell_endpoints(k, lim, L)
                cand = tracker_update(a_cell, b_cell, p.M0)
                emergency_steps += n_t - int(np.count_nonzero(normal))
                sel = normal if parked is None else normal & live
                trk = np.where(sel, cand, trk)
                u = trk[2] * mu_a
                np.multiply(u, trk[0] - trk[1], out=u, where=sel)
                u += mu_w
                u = np.where(normal, u, mu_w)
                if blk:
                    cols = {"M": trk[0], "I": trk[1], "normal": normal, "rho": trk[2], "U": u}
                    if "symbol" in blk:
                        cols["symbol"] = np.where(normal, k + L, 2 * L)
                    if "clamped" in blk:
                        cols["clamped"] = is_clamped(a_cell, b_cell, p.M0) & normal
            elif kind == "static_quantizer":
                k = np.floor((x + srange) / w_cell_s)
                np.fmin(np.fmax(k, 0.0, out=k), 2 * L, out=k)
                a_cell = -srange + k * w_cell_s
                b_cell = a_cell + w_cell_s
                m_new = np.maximum(p.M0, np.maximum(np.abs(a_cell), np.abs(b_cell)))
                i_new = np.maximum(p.M0, (b_cell - a_cell) / 2.0)
                half = m_new - i_new
                est = np.where(a_cell >= 0.0, half, np.where(b_cell <= 0.0, -half, 0.0))
                u = mu_a * est + mu_w
                if blk:
                    cols = {"M": m_new, "I": i_new, "normal": True, "symbol": k, "U": u}
                    if "rho" in blk:
                        cols["rho"] = np.where(a_cell >= 0.0, 1, -1)
            elif kind == "perfect_observation":
                u = mu_a * x + mu_w
                cols = {"normal": True, "U": u}
            else:
                cols = {"normal": True, "U": u}
            for f, v in cols.items():
                if f in blk:
                    blk[f][:, i] = v

            x_prev, x = x, xv[i + 1]
            np.multiply(a_draws[:, n], x_prev, out=x)
            x += w_blk[:, i]
            x -= u
            if parked is not None:
                np.copyto(x, 0.0, where=parked)
            ok = np.abs(x) <= DIVERGENCE_LIMIT
            if np.count_nonzero(ok) < n_t:
                dead = ~ok
                diverged_at[dead] = n + 1
                x_diverged[dead] = x[dead]
                x[dead] = 0.0
                count[n + 1:] -= np.count_nonzero(dead)
                parked = dead if parked is None else parked | dead
                live = ~parked

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
        for f, col in rec.items():
            col[:, b0:b0 + nb] = blk[f][:, :nb]
        if parked is not None:
            folds = []  # the envelope covers ensembles with no diverged trial
        for lanes, fold in zip(groups, folds):
            _chunk_envelope(fold, blk["M"][lanes, :nb], blk["I"][lanes, :nb],
                            blk["normal"][lanes, :nb], p.K)

    records = None
    if record_fields:
        # only the recorded columns span the whole horizon
        cols = {**rec, "X": xs.T, "A": a_draws, "W": w_draws}
        records = {f: cols[f] for f in record_fields}
        for j in np.flatnonzero(diverged_at >= 0):
            d = diverged_at[j]
            for f, col in records.items():
                col[j, d:] = _STEP_FILL.get(f, 0.0)
            if "X" in records:
                # the freshly diverged value is recorded too (flagged,
                # excluded from the aggregates above)
                records["X"][j, d] = x_diverged[j]

    sum_nsq = count_nsq = None
    if folds:
        count_nsq = np.zeros(h, dtype=np.int64)
        for lanes, fold in zip(groups, folds):
            if fold.start == 0:
                raise analysis.DominatingSeqError("a trace never exits its first round; no resolved steps")
            if fold.start == 1:
                # a group resolved through column 0 only sums it pairwise,
                # as sum(axis=0) over the whole-horizon envelope does
                fold.sums[0] = fold.first.sum()
            count_nsq[:fold.start] += lanes.stop - lanes.start
        sum_nsq = np.array([fold.sums for fold in folds])
    return _ChunkOut(
        sum_xsq=sum_xsq,
        sum_x4=sum_x4,
        count=count,
        steps_alive=int(count[:h].sum()),
        emergency_steps=emergency_steps,
        diverged=int(np.count_nonzero(diverged_at >= 0)),
        diverged_at=diverged_at,
        records=records,
        sum_nsq=sum_nsq,
        count_nsq=count_nsq,
        stats=[fold.stats for fold in folds] if drift and folds else None,
    )


def _chunked(indices: Sequence[int]) -> list[list[int]]:
    """Trial indices split, in order, into engine chunks of two trial groups."""
    indices = list(indices)
    lanes = 2 * CHUNK_TRIALS
    return [indices[i:i + lanes] for i in range(0, len(indices), lanes)]


def _run_chunks(cfg: ExperimentConfig, envelope: bool, drift: bool = False) -> list[_ChunkOut]:
    """Every trial of ``cfg``, unrecorded, in engine chunks over the worker threads."""
    chunks = _chunked(range(cfg.trials))
    workers = _max_workers()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda idx: _run_chunk(cfg, idx, None, envelope, drift=drift), chunks))
    return [_run_chunk(cfg, idx, None, envelope, drift=drift) for idx in chunks]


def envelope_moments(cfg: ExperimentConfig) -> tuple[analysis.EnvelopeMoments | None, int]:
    """(N^2 drift and halving statistics, diverged trials) of one unrecorded adaptive pass.

    The group statistics merge in trial order; they are None when any trial diverged.
    """
    outs = _run_chunks(cfg, True, drift=True)
    diverged = sum(out.diverged for out in outs)
    if diverged:
        return None, diverged
    return functools.reduce(analysis.EnvelopeMoments.merge, [g for out in outs for g in out.stats]), 0


def _max_workers() -> int:
    """Engine worker threads from ZOOMCTL_THREADS (unset: 1)."""
    raw = os.environ.get("ZOOMCTL_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"ZOOMCTL_THREADS must be an integer, got {raw!r}") from None


def _window_ratio(curve: np.ndarray, split: float) -> float:
    h = len(curve) - 1
    lo = int(math.floor(h * split))
    mid = int(math.floor(h * (1.0 + split) / 2.0))
    third = curve[lo:mid]
    last = curve[mid:]
    third = third[np.isfinite(third)]
    last = last[np.isfinite(last)]
    if len(third) == 0 or len(last) == 0 or third.mean() == 0.0:
        return math.nan
    return float(last.mean() / third.mean())


def stability_verdict(stats: SummaryStats, split: float = 0.5) -> str:
    """Operational reading of the bounded-second-moment requirement.

    stable: flat tail (window ratio within [0.5, 1.5]) and zero divergence.
    unstable: window ratio above 4 or more than 1% of trials diverged.
    Anything else, including an undefined ratio, is inconclusive.
    """
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must lie in (0, 1), got {split}")
    if stats.horizon < 1000:
        raise ValueError(f"verdicts need horizon >= 1000, got {stats.horizon}")
    ratio = _window_ratio(stats.curve_mean, split)
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
    if outs[0].sum_nsq is not None and diverged == 0:
        count_nsq = sum(out.count_nsq for out in outs)
        mean_nsq = group_total("sum_nsq", h) / np.maximum(count_nsq, 1)
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
        window_ratio=_window_ratio(mean, 0.5),
        max_mean_nsq=max_mean_nsq,
        verdict="",
    )
    stats.verdict = (
        stability_verdict(stats) if h >= 1000 else "inconclusive"
    )

    traces = _kept_traces(cfg, range(min(max(keep_traces, 0), cfg.trials)))
    return stats, traces


def run_recorded_bundle(
    cfg: ExperimentConfig, full: bool = False, *, fields: Sequence[str] | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Record per-step columns for every trial.

    ``fields`` picks the columns (any of FULL_RECORD_FIELDS); by default all
    of them when ``full``, else X, M, I and normal.  Returns the stacked
    record dict plus each trial's divergence step (-1 where the trial ran
    to the horizon).  Memory scales with trials * horizon * fields; callers
    cap the horizon accordingly.
    """
    if fields is None:
        fields = FULL_RECORD_FIELDS if full else ("X", "M", "I", "normal")
    outs = [_run_chunk(cfg, idx, fields, envelope=False) for idx in _chunked(range(cfg.trials))]
    rec = {
        f: np.concatenate([o.records[f] for o in outs], axis=0) for f in fields
    }
    diverged_at = np.concatenate([o.diverged_at for o in outs])
    return rec, diverged_at


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


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def write_summary_json(stats: SummaryStats, cfg: ExperimentConfig, path) -> None:
    n_term, mean_term = stats.terminal_mean()
    payload = {
        "config": cfg.describe(),
        "verdict": stats.verdict,
        "trials": stats.trials,
        "horizon": stats.horizon,
        "diverged_count": stats.diverged_count,
        "emergency_fraction": stats.emergency_fraction,
        "window_ratio": _json_safe(stats.window_ratio),
        "max_mean_nsq": _json_safe(stats.max_mean_nsq),
        "terminal": {"n": n_term, "mean_xsq": _json_safe(mean_term)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_curve_csv(stats: SummaryStats, cfg: ExperimentConfig, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(cfg.describe(), sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(["n", "mean", "stderr"])
        for n in range(len(stats.curve_mean)):
            writer.writerow([n, repr(float(stats.curve_mean[n])), repr(float(stats.curve_stderr[n]))])


def write_sweep_csv(rows: Iterable[SweepRow], cfg: ExperimentConfig, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(cfg.describe(), sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["dimension", "value", "R", "verdict", "diverged_count",
             "window_ratio", "emergency_fraction", "terminal_mean_xsq"]
        )
        for r in rows:
            writer.writerow(
                [r.dimension, repr(r.value), r.R, r.verdict, r.diverged_count,
                 repr(float(r.window_ratio)), repr(float(r.emergency_fraction)),
                 repr(float(r.terminal_mean_xsq))]
            )
