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
parked: X held at 0, outside the zoom-out multiply and the tracker update.

Layout: an engine chunk is a list of lane slices (``LaneSlice``), each a
policy's step kernel over its own lanes, over one set of per-trial noise
rows (``verify`` steps an oracle beside the adaptive policy on the same
draws).  The slices share the plant step, divergence parking, the per-step
sums, the envelope fold and the recording; no trial group spans two.  A
chunk runs four trial groups, walks the horizon in time blocks of
BLOCK_STEPS steps, and draws its noise DRAW_STEPS steps at a time into
batch buffers each block reads at its offset.  A trial's stream holds its
horizon's gains, then its disturbances: a first generator per trial draws
and drops the gains, and a second redraws them a batch at a time.  A chunk
holds 16 bytes per trial and draw step of noise and, per lane and block
step, 8 of X and, with the envelope, 17 of M, I and mode: at 2048 trials,
250-step draws and 50-step blocks, 8 MB of noise and 4 MB of block.  A
companion slice adds its block rows, no noise.  After each block a slice
hands its leading lanes' rows to a consumer, by default copied into
lane-major records (65 bytes per lane and step); the exact checks of
``verify`` audit and tally them and keep none.  The N^2 envelope is one
``analysis.EnvelopeMoments`` per group: 8 * horizon bytes of column sums,
32 * horizon more for ``verify``'s drift statistics.  Each lane's M, I and
mode wait, in spare rows before the block's, from the first column some
lane of its group has not resolved yet; a round open over the whole horizon
holds 17 * horizon bytes per lane.  The envelope covers slices with no
diverged trial only.  Chunks run one after another on the calling thread;
neither the block length, the chunking nor a slice's companions change a
result.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from zoomctl import analysis
from zoomctl.codec import StrategyParams, cell_tracker, rate
from zoomctl.distributions import DistributionSpec, moments, sample_rows
from zoomctl.loop import DIVERGENCE_LIMIT, NO_SYMBOL, Trace, csv_text, json_safe, write_json

CHUNK_TRIALS = 512  # trials per reduction group; an engine chunk runs four
BLOCK_STEPS = 50  # steps per time block of the engine
DRAW_STEPS = 250  # steps per noise draw, rounded down to whole blocks (at least one)

POLICY_KINDS = (
    "adaptive_fixed_rate",
    "static_quantizer",
    "perfect_observation",
    "zero_control",
)

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
        # as for the adaptive cells, the static cell width must be a normal float
        width = self.static_cell_width()
        if self.policy.kind == "static_quantizer" and not sys.float_info.min <= width <= sys.float_info.max:
            raise ValueError(f"static cell width 2*range/(2L+1) = {width!r} is not a finite normal float: "
                             f"range={self.static_range()!r}, L={self.params.L}")

    def static_range(self) -> float:
        if self.policy.range is not None:
            return self.policy.range
        return 10.0 * self.params.M0

    def static_cell_width(self) -> float:
        return 2.0 * self.static_range() / (2 * self.params.L + 1)

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


def _predraw(cfg: ExperimentConfig,
             indices: Sequence[int]) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
    """Each trial's two generators, for ``_run_chunk``'s noise batches: the first at the start of its
    disturbances, having drawn and dropped the horizon's gains before them through ``sample_rows`` into
    one reused row, and the second new, from the same seed, at the start of the gains."""
    seeds = [np.random.SeedSequence(trial_seed(cfg.master_seed, t)) for t in indices]
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    scratch = np.empty((1, cfg.horizon))
    for rng in rngs:
        sample_rows(cfg.a_spec, [rng], scratch)
    return rngs, [np.random.Generator(np.random.PCG64(s)) for s in seeds]


# A policy's lanes in an engine chunk, over its first ``trials`` trials: the first ``record`` recorded
# (through ``consume`` if given), the adaptive N^2 envelope folded if ``envelope`` (with drift if ``drift``)
LaneSlice = namedtuple("LaneSlice", "policy trials record envelope drift consume", defaults=(0, False, False, None))


@dataclass
class _ChunkOut:
    """One lane slice's results in a chunk; sums are per trial group, in trial order."""

    sum_xsq: np.ndarray  # (groups, horizon + 1)
    sum_x4: np.ndarray
    count: np.ndarray
    steps_alive: int
    emergency_steps: int
    diverged: int
    diverged_at: np.ndarray
    records: dict[str, np.ndarray]  # the first r lanes' FULL_RECORD_FIELDS; empty under a caller's consumer
    envelopes: list[analysis.EnvelopeMoments] | None  # per group; None once a lane diverged
    companions: list = field(default_factory=list)  # each companion slice's


def _chunk_envelope(
    acc: analysis.EnvelopeMoments, pending: tuple[np.ndarray, ...] | None,
    m_blk: np.ndarray, i_blk: np.ndarray, normal_blk: np.ndarray, K: float,
) -> tuple[np.ndarray, ...] | None:
    """Fold one time block of (lanes, steps) columns into ``acc``; returns the columns left pending.

    The block joins the ``pending`` (M, I, mode) columns, where some round
    is still open (``_run_chunk`` keeps them in its rows, before the block's,
    and passes None), and ``analysis.envelope_squared`` resolves the window.
    The resolved prefix goes to ``acc`` as C-ordered rows, so it sums lane by
    lane whatever the block's layout; the rest is returned as views.
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
    return tuple(c[:, done:] for c in cols) if done < cols[0].shape[1] else None


def recorder(r: int, horizon: int, records: dict[str, np.ndarray]) -> Callable:
    """A consumer of ``_run_chunk``'s block rows that copies the first r lanes of every field f into
    ``records[f]``, lane-major and horizon-long (X has one more column), allocated at the first block."""
    def consume(b0: int, rows: dict[str, np.ndarray], diverged_at: np.ndarray) -> None:
        for f in FULL_RECORD_FIELDS:
            if f not in records:
                records[f] = np.empty((r, horizon + (f == "X")), rows[f].dtype)
            records[f][:, b0:b0 + rows[f].shape[1]] = rows[f][:r]
    return consume


class _Slice:
    """A ``LaneSlice`` in a running chunk: its rows, recording and results, and its policy's step kernel,
    the method named after it.  It reads and writes its own lanes (``lanes`` of the chunk's) only."""

    def __init__(self, cfg: ExperimentConfig, spec: LaneSlice, lanes: slice, block: int,
                 chunk: tuple[np.ndarray, ...], indices: Sequence[int], mu: tuple[float, float]):
        kind, p, h, n, r = spec.policy.kind, cfg.params, cfg.horizon, spec.trials, spec.record
        self.p, self.mu, self.n, self.r, self.lanes = p, mu, n, r, lanes
        self.xs, self.ax, self.diverged_at, self.x_diverged = (a[..., lanes] for a in chunk)
        need_env = spec.envelope and kind == "adaptive_fixed_rate"
        # the step's rows, from the initial tracker and control, which a policy
        # with no tracker keeps (zero_control's control is mu_W)
        blocked = {"M", "I", "normal", "U"} if r == n else {"M", "I", "normal"} if need_env else set()
        carried = {"M", "I"} if kind == "adaptive_fixed_rate" else set()
        fills = {"M": p.M0, "I": p.M0, "normal": kind != "adaptive_fixed_rate",
                 "U": mu[1] if kind == "zero_control" else 0.0}
        self.rows = {f: np.full((block + 1 if f in blocked else 2 if f in carried else 1, n), fill)
                     for f, fill in fills.items()}
        # the recorded lanes' block rows: the step's own where blocked, else r lanes wide
        self.recs = {f: buf if f in blocked else np.repeat(buf[:1, :r], block + 1, axis=0)
                     for f, buf in self.rows.items()}
        self.copied = [(self.rows[f], self.recs[f]) for f in self.rows if f not in blocked] if r else []
        self.recs["rho"] = np.ones((block + 1, r), dtype=np.int64)
        self.recs["symbol"] = np.full((block + 1, r), NO_SYMBOL)
        self.records = {}
        self.consume = spec.consume or recorder(r, h, self.records)
        self.groups = [slice(g, min(g + CHUNK_TRIALS, n)) for g in range(0, n, CHUNK_TRIALS)]
        self.envs = [analysis.EnvelopeMoments.sized(g.stop - g.start, h, p.c if spec.drift else None,
                                                    indices[g.start]) for g in self.groups] if need_env else []
        # the envelope's M, I and mode buffers hold the block's rows after
        # ``spare`` rows, where each group's ``pending`` unresolved columns wait
        self.env = {f: self.rows[f] for f in ("M", "I", "normal")} if need_env else {}
        self.spare, self.pending = 0, [0] * len(self.envs)
        self.sum_xsq, self.sum_x4 = np.zeros((2, len(self.groups), h + 1))
        self.count = np.full(h + 1, n, dtype=np.int64)
        self.emergency_steps = 0
        self.parked = self.live = None  # its parked lanes and the others, once one of its lanes diverged
        # per-step scratch (``work`` is cell_tracker's, and the static cell's
        # bounds and side); rho is recorded apart, as an integer
        self.k, self.lim, self.xz, self.rho, self.sign = np.empty((5, n))
        self.work = (np.empty(n), np.empty(n), np.empty(n, dtype=bool))
        self.zoom, self.keep, self.below = np.empty((3, n), dtype=bool)
        sub = replace(cfg, policy=spec.policy)
        self.srange, self.w_cell, self.kernel = sub.static_range(), sub.static_cell_width(), getattr(self, kind)

    def carry(self, block: int) -> None:
        """Start a block from the previous one's last rows (it had ``block`` steps): one tracker row, and
        the envelope's back to each group's first unresolved column, in more spare rows if need be."""
        for buf in [self.recs["rho"]] + [self.rows[f] for f in ("M", "I") if f not in self.env]:
            buf[0] = buf[block % len(buf)]
        keep, s = max([1, *self.pending]), self.spare
        kept = {f: buf[s + block + 1 - keep:s + block + 1] for f, buf in self.env.items()}
        if keep > s + 1:  # the old rows are let go before the wider ones are allocated
            kept, self.spare = {f: c.copy() for f, c in kept.items()}, max(2 * s, keep - 1)
        for f, rows in kept.items():
            if self.spare != s:
                self.env[f] = self.rows[f] = self.recs[f] = None
                self.env[f] = np.empty((self.spare + block + 1, self.n), rows.dtype)
            self.env[f][self.spare + 1 - keep:self.spare + 1] = rows
            self.rows[f] = self.recs[f] = self.env[f][self.spare:]

    def step(self, i: int, a: np.ndarray, w: np.ndarray) -> None:
        """Step i of the block: the kernel's control, the recorded lanes' rows, then X' = A X + W - U."""
        x, x_next, u_rows = self.xs[i], self.xs[i + 1], self.rows["U"]
        u = u_rows[(i + 1) % len(u_rows)]
        self.emergency_steps += self.kernel(i, x, u)
        for buf, rec in self.copied:
            np.copyto(rec[i + 1], buf[(i + 1) % len(buf), :self.r])
        np.multiply(a[:self.n], x, out=x_next)
        x_next += w[:self.n]
        x_next -= u

    # the step kernels: each writes U, and row i + 1 of its tracker and of the recorded rho and
    # symbol, and returns its lanes in zoom-out

    def adaptive_fixed_rate(self, i: int, x: np.ndarray, u: np.ndarray) -> int:
        """The two-mode strategy: the encoder's tracker (``codec.cell_tracker``) and its control.  A step where
        every lane is normal runs with no mask; else lanes in zoom-out and parked lanes keep their tracker
        through masked selects.  Cell indices are float64, exact since |k| <= L <= 2^50."""
        p, r, lim, rho, zoom = self.p, self.r, self.lim, self.rho, self.zoom
        m_rows, i_rows, mode_rows, _ = self.rows.values()
        rho_rec, sym_rec = self.recs["rho"], self.recs["symbol"]
        m, i_new = m_rows[(i + 1) % len(m_rows)], i_rows[(i + 1) % len(i_rows)]
        parked = self.parked
        # zoom-out update M <- P*M, which is also the live range; a parked
        # lane keeps the tracker it diverged with
        if parked is None:
            np.multiply(m_rows[i % len(m_rows)], p.P, out=lim)
        else:
            np.copyto(lim, m_rows[i % len(m_rows)])
            np.multiply(lim, p.P, out=lim, where=self.live)
        normal = mode_rows[(i + 1) % len(mode_rows)]
        zooming = self.n - int(np.count_nonzero(np.less_equal(self.ax, lim, out=normal)))
        if not zooming and parked is None:
            cell_tracker(x, lim, p.L, p.M0, self.k, (m, i_new, rho), self.work)
            np.subtract(m, i_new, out=u)
            u *= rho
            u *= self.mu[0]
            u += self.mu[1]
        else:
            # lanes in zoom-out encode X = 0; their cells are dropped below
            np.logical_not(normal, out=zoom)
            np.copyto(self.xz, x)
            np.putmask(self.xz, zoom, 0.0)
            cell_tracker(self.xz, lim, p.L, p.M0, self.k, (m, i_new, rho), self.work)
            held = zoom if parked is None else np.logical_or(zoom, parked, out=self.keep)
            # the product with mu_A is formed on live normal lanes only
            np.subtract(m, i_new, out=u)
            u *= rho
            np.putmask(u, held, 0.0)
            u *= self.mu[0]
            u += self.mu[1]
            np.putmask(u, held, self.mu[1])
            np.putmask(m, held, lim)
            np.putmask(i_new, held, i_rows[i % len(i_rows)])
            if r:
                np.putmask(rho[:r], held[:r], rho_rec[i])
        if r:
            np.copyto(rho_rec[i + 1], rho[:r], casting="unsafe")
            np.add(self.k[:r], p.L, out=sym_rec[i + 1], casting="unsafe")
            if zooming:
                np.putmask(sym_rec[i + 1], zoom[:r], 2 * p.L)
        return zooming

    def static_quantizer(self, i: int, x: np.ndarray, u: np.ndarray) -> int:
        """The static quantizer: the cell of X in the fixed partition, out-of-range states saturated."""
        p, r, k, srange, w_cell_s = self.p, self.r, self.k, self.srange, self.w_cell
        sign, below = self.sign, self.below
        a_cell, b_cell, above = self.work
        m_rows, i_rows, _, _ = self.rows.values()
        m, i_new = m_rows[(i + 1) % len(m_rows)], i_rows[(i + 1) % len(i_rows)]
        np.floor(np.divide(np.add(x, srange, out=k), w_cell_s, out=k), out=k)
        np.fmin(np.fmax(k, 0.0, out=k), 2 * p.L, out=k)
        np.add(np.multiply(k, w_cell_s, out=a_cell), -srange, out=a_cell)
        np.add(a_cell, w_cell_s, out=b_cell)
        # a <= b, so max(|a|, |b|) is max(-a, b)
        np.maximum(np.maximum(np.negative(a_cell, out=m), b_cell, out=m), p.M0, out=m)
        np.maximum(np.divide(np.subtract(b_cell, a_cell, out=i_new), 2.0, out=i_new), p.M0, out=i_new)
        # the cell's midpoint estimate: M - I right of 0, I - M left of it,
        # 0 on the cell around 0
        np.subtract(np.greater_equal(a_cell, 0.0, out=above), np.less_equal(b_cell, 0.0, out=below),
                    out=sign, dtype=float)
        np.multiply(np.subtract(m, i_new, out=u), sign, out=u)
        u *= self.mu[0]
        u += self.mu[1]
        if r:
            np.copyto(self.recs["symbol"][i + 1], k[:r], casting="unsafe")
            np.subtract(np.multiply(above[:r], 2, out=self.recs["rho"][i + 1]), 1, out=self.recs["rho"][i + 1])
        return 0

    def perfect_observation(self, i: int, x: np.ndarray, u: np.ndarray) -> int:  # U = mu_A * X + mu_W
        np.add(np.multiply(x, self.mu[0], out=u), self.mu[1], out=u)
        return 0

    def zero_control(self, i: int, x: np.ndarray, u: np.ndarray) -> int:  # U stays mu_W, its initial row
        return 0

    def fold(self, b0: int, nb: int, a_blk: np.ndarray, w_blk: np.ndarray, K: float) -> None:
        """The block's per-step sums and envelope fold, then the recorded lanes' rows to the consumer."""
        xv = self.xs[:nb + 1]
        for g, lanes in enumerate(self.groups):  # parked lanes add 0
            sq = xv[1:, lanes] * xv[1:, lanes]
            self.sum_xsq[g, b0 + 1:b0 + nb + 1] = sq.sum(axis=1)
            with np.errstate(over="ignore"):
                # near the divergence limit x^4 saturates to inf; the stderr at
                # such indices is reported as inf, means stay finite
                sq *= sq
                self.sum_x4[g, b0 + 1:b0 + nb + 1] = sq.sum(axis=1)
        if self.parked is not None:
            self.envs = self.pending = []  # the envelope covers ensembles with no diverged trial
        for g, (lanes, acc) in enumerate(zip(self.groups, self.envs)):
            first = self.spare + 1 - self.pending[g]
            left = _chunk_envelope(acc, None, *(buf[first:self.spare + nb + 1, lanes].T
                                                for buf in self.env.values()), K)
            self.pending[g] = 0 if left is None else left[0].shape[1]
        # the recorded lanes' rows of the block, with a lane's diverged value at its divergence step
        r, div = self.r, self.diverged_at[:self.r]
        x_rec = xv[:, :r].T.copy()
        dead = np.flatnonzero((div >= b0) & (div <= b0 + nb))
        x_rec[dead, div[dead] - b0] = self.x_diverged[dead]
        self.consume(b0, {"X": x_rec, **{f: buf[1:nb + 1, :r].T for f, buf in self.recs.items()},
                          "A": a_blk[:r], "W": w_blk[:r]}, div)


def _run_chunk(
    cfg: ExperimentConfig,
    indices: Sequence[int],
    record_fields: int,
    envelope: bool,
    *,
    drift: bool = False,
    consume: Callable[[int, dict[str, np.ndarray], np.ndarray], None] | None = None,
    companions: Sequence[LaneSlice] = (),
) -> _ChunkOut:
    """Run trials ``indices`` in lockstep under ``cfg``'s policy, one lane each, and each companion
    ``LaneSlice`` beside them over its first trials; the companions' results are in ``companions``.

    ``record_fields`` is r, the number of leading lanes whose FULL_RECORD_FIELDS
    are recorded (0: none).  After each block ``consume(b0, rows, diverged_at)``
    gets their lane-major rows: X (r, nb + 1) from X_b0, a lane's diverged
    value at its divergence step, every other field (r, nb), and each lane's
    divergence step so far; by default (``recorder``) they are copied into
    records allocated once.  ``envelope`` folds the adaptive N^2 envelope, with
    the drift and halving statistics when ``drift`` is set.  Each step writes
    row n + 1 of step-major buffers in place (``out=``): a field gets a row
    per block step only when the envelope or a recording of every lane of its
    slice reads it, else one or two rows, and the recorded lanes get rows of
    their own.  A diverged lane is parked: X held at 0 (so its cell
    arithmetic stays in range), adding 0 to the sums, a normal step from then
    on; its records end at its divergence step, where X is the diverged value.
    """
    h, n_t = cfg.horizon, len(indices)
    block = min(BLOCK_STEPS, h)
    draw = max(DRAW_STEPS // block, 1) * block
    rngs, a_rngs = _predraw(cfg, indices)
    a_draws, w_draws = np.empty((2, n_t, min(draw, h)))
    specs = [LaneSlice(cfg.policy, n_t, record_fields, envelope, drift, consume), *companions]
    ends = np.cumsum([s.trials for s in specs]).tolist()
    # over every slice's lanes: X_n of the current block at row n (0 at parked
    # lanes; row 0 is its start state), |X| of the current step, and each
    # lane's divergence step and diverged value
    chunk = xs, ax, diverged_at, x_diverged = (np.zeros((block + 1, ends[-1])), np.zeros(ends[-1]),
                                               np.full(ends[-1], -1, dtype=np.int64), np.zeros(ends[-1]))
    mu = (moments(cfg.a_spec)[0], moments(cfg.w_spec)[0])
    slices = [_Slice(cfg, s, slice(e - s.trials, e), block, chunk, indices, mu) for s, e in zip(specs, ends)]
    parked = None

    for b0 in range(0, h, block):
        nb = min(block, h - b0)
        if b0:  # carry the last rows of the previous block, which had ``block`` steps
            xs[0] = xs[block]
            for sl in slices:
                sl.carry(block)
        if not b0 % draw:
            sample_rows(cfg.a_spec, a_rngs, a_draws[:, :min(draw, h - b0)])
            sample_rows(cfg.w_spec, rngs, w_draws[:, :min(draw, h - b0)])
        a_blk = a_draws[:, b0 % draw:b0 % draw + nb]
        w_blk = w_draws[:, b0 % draw:b0 % draw + nb]
        for i in range(nb):
            a, w = a_blk[:, i], w_blk[:, i]
            for sl in slices:
                sl.step(i, a, w)
            x_next = xs[i + 1]
            if parked is not None:
                np.putmask(x_next, parked, 0.0)
            if not np.abs(x_next, out=ax).max() <= DIVERGENCE_LIMIT:
                dead = ~(ax <= DIVERGENCE_LIMIT)
                diverged_at[dead] = b0 + i + 1
                x_diverged[dead] = x_next[dead]
                x_next[dead] = ax[dead] = 0.0
                parked = dead if parked is None else parked | dead
                for sl in slices:
                    if hit := np.count_nonzero(dead[sl.lanes]):
                        sl.count[b0 + i + 1:] -= hit
                        sl.parked = parked[sl.lanes]
                        sl.live = ~sl.parked
        for sl in slices:
            sl.fold(b0, nb, a_blk, w_blk, cfg.params.K)

    main, *rest = (_ChunkOut(sl.sum_xsq, sl.sum_x4, sl.count, int(sl.count[:h].sum()), sl.emergency_steps,
                             int(np.count_nonzero(sl.diverged_at >= 0)), sl.diverged_at, sl.records, sl.envs or None)
                   for sl in slices)
    main.companions = rest
    return main


def _chunked(cfg: ExperimentConfig) -> list[range]:
    """The trials of ``cfg`` split, in order, into engine chunks of four trial groups."""
    lanes = 4 * CHUNK_TRIALS
    return [range(i, min(i + lanes, cfg.trials)) for i in range(0, cfg.trials, lanes)]


def _run_chunks(cfg: ExperimentConfig, envelope: bool, drift: bool = False, keep: int = 0) -> list[_ChunkOut]:
    """Every trial of ``cfg`` in engine chunks run one after another; trials below ``keep`` are recorded."""
    return [_run_chunk(cfg, idx, min(max(keep - idx[0], 0), len(idx)), envelope, drift=drift)
            for idx in _chunked(cfg)]


def run_lanes(cfg: ExperimentConfig, lanes: Sequence[LaneSlice]) -> list[list[_ChunkOut]]:
    """One engine pass over the trials of ``cfg`` for lane slices over the same noise rows: each slice's
    chunk results where it has lanes.  In a chunk the widest slice runs as ``_run_chunk``'s own policy."""
    order = sorted(range(len(lanes)), key=lambda j: -lanes[j].trials)
    got = [[] for _ in lanes]
    for idx in _chunked(replace(cfg, trials=lanes[order[0]].trials)):
        here = [j for j in order if lanes[j].trials > idx[0]]
        cut = [s._replace(trials=min(s.trials - idx[0], len(idx)),
                          record=(r := min(max(s.record - idx[0], 0), len(idx))), consume=s.consume if r else None)
               for s in (lanes[j] for j in here)]
        out = _run_chunk(replace(cfg, policy=cut[0].policy), idx, cut[0].record, cut[0].envelope, drift=cut[0].drift,
                         consume=cut[0].consume, companions=cut[1:])
        for j, o in zip(here, [out, *out.companions]):
            got[j].append(o)
    return got


def envelope_moments(cfg: ExperimentConfig,
                     outs: list[_ChunkOut] | None = None) -> tuple[analysis.EnvelopeMoments | None, int]:
    """(N^2 drift and halving statistics, diverged trials) of one unrecorded adaptive pass, or of the chunk
    results ``outs`` of an adaptive pass with them.

    The group statistics merge in trial order; they are None when any trial diverged.
    """
    outs = outs or _run_chunks(cfg, True, drift=True)
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
    outs: list[_ChunkOut] | None = None,
) -> tuple[SummaryStats, list[Trace]]:
    """Run the configured ensemble and aggregate second-moment statistics.

    ``keep_traces`` retains the first k trials as full Trace objects: each
    ensemble chunk records its lanes below k, so the traces come from the
    one ensemble pass, as views of its records.  ``envelope`` controls whether the dominating
    envelope statistic max_mean_nsq is computed (adaptive policy only); it
    is None when any trial diverged.  ``outs``: the chunk results of a pass
    that ran the ensemble already (``run_lanes``).
    """
    outs = outs or _run_chunks(cfg, envelope, keep=keep_traces)
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


def run_recorded_bundle(cfg: ExperimentConfig, consume: Callable | None = None) -> tuple[dict, np.ndarray]:
    """Record every trial's FULL_RECORD_FIELDS, in one engine chunk whose lanes are all recorded.

    Returns the record dict plus each trial's divergence step (-1 where the
    trial ran to the horizon).  The records are lane-major, copied out of
    the chunk's time blocks, so memory scales with trials * horizon * 65
    bytes.  A trial's records end at its divergence step (``recorded_lanes``).
    With ``consume``, each block's rows go to it instead (see ``_run_chunk``)
    and the record dict is empty.
    """
    out = _run_chunk(cfg, range(cfg.trials), cfg.trials, envelope=False, consume=consume)
    return out.records, out.diverged_at


def executed_steps(diverged_at: np.ndarray, horizon: int) -> np.ndarray:
    """Each lane's executed steps: its divergence step, else ``horizon``."""
    return np.where(diverged_at < 0, horizon, diverged_at)


def recorded_lanes(records: dict[str, np.ndarray], diverged_at: np.ndarray) -> tuple[np.ndarray, list[dict]]:
    """Each lane's executed steps and its records cut there, as views.

    A lane's cut is a Trace's layout: X_0..X_steps, and ``steps`` entries of every other field,
    each contiguous, as the records are lane-major.
    """
    steps = executed_steps(diverged_at, records["symbol"].shape[1])
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


def _write_config_csv(cfg: ExperimentConfig, path, header: list[str], columns: Iterable) -> None:
    """CSV columns under a ``# config:`` line holding the config's JSON (``loop.csv_text``)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(cfg.describe(), sort_keys=True)}\n" + csv_text(header, columns))


def write_curve_csv(stats: SummaryStats, cfg: ExperimentConfig, path) -> None:
    _write_config_csv(cfg, path, ["n", "mean", "stderr"],
                      (range(len(stats.curve_mean)), stats.curve_mean.tolist(), stats.curve_stderr.tolist()))


def write_sweep_csv(rows: Iterable[SweepRow], cfg: ExperimentConfig, path) -> None:
    _write_config_csv(cfg, path, [
        "dimension", "value", "R", "verdict", "diverged_count",
        "window_ratio", "emergency_fraction", "terminal_mean_xsq",
    ], zip(*([r.dimension, r.value, r.R, r.verdict, r.diverged_count, float(r.window_ratio),
             float(r.emergency_fraction), float(r.terminal_mean_xsq)] for r in rows)))
