"""Verification machinery for the two-mode strategy.

The stability argument rests on a dominating sequence:

* freeze at n0: hold the state of one recorded trial fixed at X_{n0} from
  n0 on (gains 1, disturbances 0, controls 0) while the tracker keeps
  growing by P per step whenever it still sits below |X_{n0}|.
* tau(n): first step m >= n whose guard |X_m| <= P*M_{m-1} holds, i.e.
  the step where the round containing n exits back to normal mode.
* Q_n = sqrt(M_n^2 + K*I_n^2): composite envelope of the tracker.
* N_n = Q_{tau(n)} * 2^(tau(n)-n): the dominating sequence.  It front-loads
  the cost of a zoom-out: during an emergency N halves per step by
  construction, and |X_{n0}| <= N_{n0} always (checked here, exactly).

The domination check needs N at the freeze point only, from the recorded
step there.  A normal step passes its guard, so tau(n0) = n0 and
N_{n0} = Q_{n0}.  A zoom-out step's tracker M_{n0} = P*M_{n0-1} is below
|X_{n0}|; the frozen round exits after the J >= 1 multiplies by P that
first reach |X_{n0}|, with I held, so N_{n0} = 2^J sqrt(g^2 + K*I_{n0}^2)
for the grown tracker g.  ``freeze_arrays`` gives (g, J) and
``dominating_seq`` gives N, each over an array of freeze points.

The drift diagnostic checks the contraction E[N_{n+1}^2] <= (1-c) E[N_n^2] + D
with D = 2*sigma_W^2 + (1+K)*M0^2 on trial ensembles, plus the implied cap
E[N_n^2] <= D/c.  Drift statistics use N computed on unmodified traces;
the frozen construction is only needed for the domination check (the two
coincide up to the step where a freeze would start).  ``EnvelopeMoments``
is the one N^2 accumulator: fed resolved columns in order, it keeps the
column sums behind the engine's max_mean_nsq and, given c, the drift and
halving statistics.

Feasibility reproduces the parameter arithmetic: the normal-mode
contraction margin, the envelope-weight condition on K, and the zoom-out
tail bound epsilon(P, M0), which must leave c + epsilon below
min(1 - sigma_A^2, 3/4).

Two deliberate variants are exposed side by side: the contraction margin
and K condition are evaluated with |mu_A| and mu_A^2 where the gain mean
multiplies nonnegative quantities (the analytically safe form), and the
signed/linear literal variants are reported alongside for comparison.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from zoomctl.codec import StrategyParams, rate
from zoomctl.distributions import MomentSummary
from zoomctl.loop import json_safe, write_json


class UnstabilizableError(ValueError):
    """sigma_A^2 >= 1: no causal strategy can stabilize the second moment."""


class MomentOrderError(ValueError):
    """The tail analysis needs a moment order alpha > 4."""


class BoundDomainError(ValueError):
    """The zoom-out tail bound is outside its domain of validity."""


class DominatingSeqError(ValueError):
    """tau could not be resolved within the available horizon."""


# ---------------------------------------------------------------------------
# the dominating sequence at freeze points
# ---------------------------------------------------------------------------


def freeze_arrays(
    x_abs: np.ndarray, M: np.ndarray, normal: np.ndarray, P: float
) -> tuple[np.ndarray, np.ndarray]:
    """(g, J): the tracker where each freeze point's round exits, and J = tau - n0.

    The arrays hold |X_{n0}|, M_{n0} and the mode flag at each point.  A
    normal point exits at itself: g = M_{n0}, J = 0.  At a zoom-out point g
    grows by P, the same float product as the engine's zoom-out update,
    while it is below |X_{n0}|; J counts the multiplies.
    """
    g = np.array(M, dtype=float)
    J = np.zeros(g.shape, dtype=np.int64)
    grow = ~normal & (g < x_abs)
    # a tracker grown past float range is inf, which ends its round like any g >= |X|
    with np.errstate(over="ignore"):
        while grow.any():
            np.multiply(g, P, out=g, where=grow)
            J += grow
            grow &= g < x_abs
    return g, J


def _tau_backward(guard: np.ndarray) -> np.ndarray:
    """tau[..., n] = min{m >= n : guard[..., m]}, or -1 where unresolved.

    Works along the last axis of 1-D or 2-D guards.  Guard steps hold their
    own index and the rest -1; read as uint64, -1 is the largest value, so a
    reverse running minimum (in place) carries the nearest guard step back
    and leaves -1 where none follows.
    """
    n = guard.shape[-1]
    tau = np.where(guard, np.arange(n, dtype=np.int64), np.int64(-1))
    rev = tau.view(np.uint64)[..., ::-1]
    np.minimum.accumulate(rev, axis=-1, out=rev)
    return tau


def dominating_seq(g: np.ndarray, I: np.ndarray, J: np.ndarray, K: float) -> np.ndarray:
    """N_{n0} = 2^J sqrt(g^2 + K*I_{n0}^2) at each freeze point, from freeze_arrays' (g, J)."""
    # a tracker beyond ~1e154 squares to inf, and 2^J can carry N past float
    # range; such an N is inf, bounds every state, and is counted apart by
    # DominationReport.unbounded
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(g**2 + K * I**2), J)


# ---------------------------------------------------------------------------
# unmodified-trace envelope (for drift statistics)
# ---------------------------------------------------------------------------


def envelope_squared(M: np.ndarray, I: np.ndarray, normal: np.ndarray, K: float) -> tuple[np.ndarray, int]:
    """(N^2 per trace and step, resolved horizon) of (traces, steps) trackers and mode flags.

    tau comes straight from the mode flags.  The resolved horizon is the
    largest h such that every trace has tau defined for all n < h; trailing
    steps of a round that never exits within the horizon are excluded
    (unresolved tau is a suffix property).
    """
    if normal.all():  # no zoom-out: each step resolves at itself
        return _nsq_from_tau(M, I, K, None), normal.shape[1]
    tau = _tau_backward(normal)
    # unresolved tau is a suffix and tau rises before it, so a trace's
    # largest tau is its last resolved index (-1 when none is)
    h = int(tau.max(axis=1).min()) + 1
    if h == 0:
        raise DominatingSeqError("a trace never exits its first round; no resolved steps")
    return _nsq_from_tau(M, I, K, tau[:, :h]), h


def _nsq_from_tau(M: np.ndarray, I: np.ndarray, K: float, tau: np.ndarray | None) -> np.ndarray:
    """N^2 at columns 0..tau.shape[1]-1 from tracker columns and resolved tau.

    ``tau`` indexes columns of ``M`` and ``I`` (column 0 is step 0 of the
    window; None: each column resolves at itself) and is overwritten with
    the exponent.  Works in the squared domain, N^2 = Q^2_tau * 4^(tau - n),
    which avoids the sqrt round trip so power-of-two halving stays exact.
    """
    qsq = M**2 + K * I**2
    if tau is None:
        return qsq
    nsq = np.take_along_axis(qsq, tau, axis=1)
    del qsq
    # tau becomes the exponent 2 * (tau - n) in place, at most twice the
    # window length; ldexp takes int32 exponents several times faster than
    # int64 ones
    tau -= np.arange(tau.shape[1], dtype=np.int64)
    tau *= 2
    np.ldexp(nsq, tau.astype(np.int32), out=nsq)
    return nsq


# ---------------------------------------------------------------------------
# domination and halving checks
# ---------------------------------------------------------------------------


@dataclass
class DominationReport:
    """|X_{n0}| <= N_{n0} at freeze points: one entry per point, in trial order."""

    trace: np.ndarray
    n0: np.ndarray
    x_abs: np.ndarray
    N: np.ndarray

    @property
    def checked(self) -> int:
        return len(self.n0)

    @property
    def violations(self) -> np.ndarray:
        """Indices of the points where |X_{n0}| > N_{n0}."""
        return np.flatnonzero(self.x_abs > self.N)

    @property
    def unbounded(self) -> int:
        """Points whose N overflowed to inf."""
        return int(np.count_nonzero(np.isinf(self.N)))

    @property
    def max_ratio(self) -> float:
        ratio = np.divide(self.x_abs, self.N, out=np.zeros_like(self.N), where=self.N > 0)
        return float(ratio.max(initial=0.0))

    @property
    def ok(self) -> bool:
        return not len(self.violations)

    def rows(self, points=slice(None)) -> list[tuple[int, int, float, float]]:
        """(trace, n0, |X_n0|, N_n0) of the points, as Python numbers."""
        return list(zip(*(a[points].tolist() for a in (self.trace, self.n0, self.x_abs, self.N))))

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": [
                {"trace": t, "n0": n0, "abs_x": x, "N": n} for t, n0, x, n in self.rows(self.violations)
            ],
            "max_ratio": self.max_ratio,
            "ok": self.ok,
        }

    def to_json(self, path) -> None:
        write_json(self.to_dict(), path)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trace", "n0", "abs_x", "N", "ok"])
            for t, n0, x_abs, n_val in self.rows():
                writer.writerow([t, n0, repr(x_abs), repr(n_val), int(x_abs <= n_val)])


def domination_report(
    rec: dict[str, np.ndarray], trace: np.ndarray, n0: np.ndarray, params: StrategyParams
) -> DominationReport:
    """|X_{n0}| <= N_{n0}, exactly, at the points (trace[i], n0[i]) of recorded X, M, I and mode flags."""
    x_abs = np.abs(rec["X"][trace, n0])
    g, J = freeze_arrays(x_abs, rec["M"][trace, n0], rec["normal"][trace, n0], params.P)
    return DominationReport(trace, n0, x_abs, dominating_seq(g, rec["I"][trace, n0], J, params.K))


@dataclass
class HalvingReport:
    emergency_pairs: int
    violations: list[tuple[int, int, float, float]]  # (trace, n, N_n, N_{n+1})

    @property
    def ok(self) -> bool:
        return not self.violations


def check_emergency_halving(M: np.ndarray, I: np.ndarray, normal: np.ndarray, K: float) -> HalvingReport:
    """N_{n+1} == N_n / 2 exactly at every step still inside a round.

    tau(n) > n exactly when step n ran in emergency mode, and then N drops
    by the factor 2 with no other change.  Checked as N^2_{n+1} == N^2_n / 4,
    which is equivalent and exact in float64 (power-of-two scaling).
    """
    nsq, h = envelope_squared(M, I, normal, K)
    acc = EnvelopeMoments.sized(len(nsq), h, 0.0)
    acc.add(nsq, normal[:, :h])
    return acc.halving_report()


# ---------------------------------------------------------------------------
# drift diagnostics
# ---------------------------------------------------------------------------

MIN_DRIFT_TRACES = 100


@dataclass
class DriftReport:
    num_traces: int
    n_checked: int
    c: float
    D: float
    mean_nsq: np.ndarray
    stderr_nsq: np.ndarray
    step_excess: np.ndarray  # mean(N_{n+1}^2 - (1-c) N_n^2) - D
    step_stderr: np.ndarray
    flagged: list[int]
    cap_violations: list[int]

    @property
    def cap(self) -> float:
        return self.D / self.c

    @property
    def ok(self) -> bool:
        return not self.flagged and not self.cap_violations

    def to_dict(self) -> dict:
        return {
            "num_traces": self.num_traces,
            "n_checked": self.n_checked,
            "c": self.c,
            "D": self.D,
            "cap": self.cap,
            "flagged": self.flagged,
            "cap_violations": self.cap_violations,
            "max_mean_nsq": float(self.mean_nsq.max()) if len(self.mean_nsq) else None,
            "ok": self.ok,
        }

    def to_json(self, path) -> None:
        write_json(self.to_dict(), path)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "mean_Nsq", "stderr_Nsq", "step_excess", "step_stderr"])
            # csv writes Python floats by repr; the last index has no step pair
            cols = [a.tolist() for a in (self.mean_nsq, self.stderr_nsq, self.step_excess, self.step_stderr)]
            writer.writerows(zip(range(self.n_checked), *cols[:2], *(c + [""] for c in cols[2:])))


def drift_estimate(M: np.ndarray, I: np.ndarray, normal: np.ndarray, K: float, c: float, D: float
                   ) -> DriftReport:
    """Empirical check of the contraction and the cap, by ``EnvelopeMoments.drift_report``."""
    T = len(M)
    if T < MIN_DRIFT_TRACES:
        raise ValueError(
            f"drift statistics need at least {MIN_DRIFT_TRACES} traces, got {T}"
        )
    nsq, h = envelope_squared(M, I, normal, K)
    acc = EnvelopeMoments.sized(T, h, c)
    acc.add(nsq, None)
    return acc.drift_report(D)


@dataclass
class EnvelopeMoments:
    """N^2 statistics of one trial group, fed resolved columns in order.

    Per column n: the sum of N^2_n, lane by lane in trial order.  With a
    contraction factor ``c`` also its centered sum of squares, those of
    d_n = N^2_{n+1} - (1-c) N^2_n, and the halving pairs (emergency steps n)
    with their mismatches N^2_{n+1} != N^2_n / 4.  Each lane's last column
    is carried to pair with the next batch.  Trial groups merge in trial
    order by Chan's update, over the columns both have resolved.
    """

    c: float | None
    count: int  # traces
    sums: np.ndarray  # rows: N^2 sum; with c, its centered sum of squares, then those of d
    pairs: np.ndarray  # halving pairs per column
    first: int = 0  # trace index of the first lane
    resolved: int = 0  # columns fed in so far
    mismatches: list = field(default_factory=list)  # (trace, n, N^2_n, N^2_{n+1})
    last: tuple | None = None  # (N^2, emergency flag) of each lane's last column

    @classmethod
    def sized(cls, count: int, horizon: int, c: float | None = None, first: int = 0) -> "EnvelopeMoments":
        return cls(c, count, np.zeros((1 if c is None else 4, horizon)), np.zeros(horizon, np.int64), first)

    def add(self, nsq: np.ndarray, normal: np.ndarray | None) -> None:
        """Fold in the next columns' N^2, C-ordered lane-major rows, and mode flags (None: all normal)."""
        s = self.resolved
        self.resolved = e = s + nsq.shape[1]
        if self.c is None:
            self.sums[0, s:e] = _lane_sums(nsq)
            return
        self.sums[:2, s:e] = _sum_and_centered(nsq, self.count)
        inside = np.zeros(nsq.shape, dtype=bool) if normal is None else ~normal
        if self.last is not None:
            s -= 1
            nsq, inside = (np.concatenate((a[:, None], b), axis=1) for a, b in zip(self.last, (nsq, inside)))
        self.last = nsq[:, -1].copy(), inside[:, -1].copy()
        d = (1.0 - self.c) * nsq[:, :-1]
        np.subtract(nsq[:, 1:], d, out=d)
        self.sums[2:, s:e - 1] = _sum_and_centered(d, self.count)
        inside = inside[:, :-1]
        self.pairs[s:e - 1] = np.count_nonzero(inside, axis=0)
        bad = inside & (nsq[:, 1:] != nsq[:, :-1] / 4.0)
        self.mismatches += [(self.first + int(t), s + int(j), nsq[t, j], nsq[t, j + 1])
                            for t, j in zip(*np.nonzero(bad))]

    def merge(self, other: "EnvelopeMoments") -> "EnvelopeMoments":
        """Append the next group's statistics (its traces follow this one's); returns self."""
        r = min(self.resolved, other.resolved)
        na, nb = self.count, other.count
        a, b = self.sums[:, :r], other.sums[:, :r]
        delta = b[::2] / nb - a[::2] / na
        a[1::2] += b[1::2] + delta * delta * (na * nb / (na + nb))
        a[::2] += b[::2]
        self.pairs[:r] += other.pairs[:r]
        self.mismatches += other.mismatches
        self.count, self.resolved = na + nb, r
        return self

    def drift_report(self, D: float) -> DriftReport:
        """Flags n where mean d_n > D + 3 stderr, and where mean N_n^2 > (D/c)(1 + 3 relative stderr).

        A column whose stderr is not finite (the spread overflowed) fails the rule of that stderr.
        """
        T, h = self.count, self.resolved
        mean_nsq, step_mean = self.sums[0, :h] / T, self.sums[2, :h - 1] / T
        stderr_nsq = np.sqrt(self.sums[1, :h] / (T - 1)) / math.sqrt(T)
        step_stderr = np.sqrt(self.sums[3, :h - 1] / (T - 1)) / math.sqrt(T)
        rel = np.divide(stderr_nsq, mean_nsq, out=np.zeros_like(stderr_nsq), where=mean_nsq > 0)
        return DriftReport(
            num_traces=T, n_checked=h, c=self.c, D=D, mean_nsq=mean_nsq, stderr_nsq=stderr_nsq,
            step_excess=step_mean - D, step_stderr=step_stderr,
            flagged=np.flatnonzero((step_mean > D + 3.0 * step_stderr) | ~np.isfinite(step_stderr)).tolist(),
            cap_violations=np.flatnonzero(
                (mean_nsq > D / self.c * (1.0 + 3.0 * rel)) | ~np.isfinite(stderr_nsq)).tolist(),
        )

    def halving_report(self) -> HalvingReport:
        """N_{n+1} == N_n / 2 at each emergency step n below the last resolved column."""
        h = self.resolved
        return HalvingReport(int(self.pairs[:h - 1].sum()), [
            (t, n, math.sqrt(a), math.sqrt(b)) for t, n, a, b in sorted(self.mismatches) if n < h - 1])


def _lane_sums(x: np.ndarray) -> np.ndarray:
    """Column sums of C-ordered lane-major rows, added row by row in trial order, whatever the width."""
    return x.sum(axis=0) if x.shape[1] != 1 else x.cumsum(axis=0)[-1]  # numpy sums one column pairwise


def _sum_and_centered(x: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column sum of x and of its squared deviations from the column mean.

    Deviations beyond ~1e154 square to inf, as in numpy's two-pass std: the
    stderr there is reported as inf.
    """
    total = _lane_sums(x)
    dev = x - total / count
    with np.errstate(over="ignore"):
        dev *= dev
        return total, _lane_sums(dev)


# ---------------------------------------------------------------------------
# feasibility arithmetic and the zoom-out tail bound
# ---------------------------------------------------------------------------


def epsilon_bound(P: float, M0: float, alpha: float, m_alpha: float, ell_alpha: float) -> float:
    """Certified upper bound on the zoom-out contribution epsilon(P, M0).

    Derivation sketch (all steps are conservative):

    * while a round is still out, the would-be state after h extra steps is
      a product of gains times the escape overshoot plus a noise
      convolution; its alpha-moment is at most C3 * m_alpha^h * M^alpha with
      C3 = 2^(2 alpha) * m_alpha + 2^alpha * Cs * ell_alpha,
      where Cs = (1 - m_alpha^(-1/alpha))^(-alpha) bounds the L_alpha
      triangle-inequality sum of the noise terms as a geometric series
      (m_alpha >= 2 keeps it finite; computing it with the actual m_alpha
      only sharpens the classical worst-case constant).
    * a round lasting k extra steps forces an overshoot of P^k M, so Markov
      at order alpha gives P[k extra steps] <= C3 * P^(-k alpha)
      * M^(alpha(1-k)) * m_alpha^(k-1); M >= M0 >= 1 lets M0 replace M.
    * N_{n+1}^2 on that event is at most 2^(2k+1) P^(2k+2) N_n^2; summing
      the geometric series in k (ratio below) gives the bound.

    Requires alpha > 4, M0 >= 1, P > 1 and a series ratio below one.
    """
    if alpha <= 4:
        raise MomentOrderError(f"tail bound requires alpha > 4, got {alpha}")
    if M0 < 1.0:
        raise BoundDomainError(f"tail bound constants require M0 >= 1, got {M0}")
    if P <= 1.0:
        raise BoundDomainError(f"tail bound requires P > 1, got {P}")
    m = max(2.0, m_alpha)
    ratio = 4.0 * P ** (2.0 - alpha) * M0 ** (-alpha) * m
    if ratio >= 1.0:
        raise BoundDomainError(
            f"geometric ratio {ratio:.3g} >= 1; increase P or M0 to enter the "
            "domain of the tail bound"
        )
    c_series = (1.0 - m ** (-1.0 / alpha)) ** (-alpha)
    c3 = 2.0 ** (2.0 * alpha) * m + 2.0**alpha * c_series * ell_alpha
    return 8.0 * c3 * P ** (4.0 - alpha) / (1.0 - ratio)


def min_zoom_factor(
    M0: float,
    alpha: float,
    m_alpha: float,
    ell_alpha: float,
    target: float,
    tol: float = 1e-3,
) -> float:
    """Smallest P with epsilon_bound below ``target`` (geometric bisection)."""
    lo, hi = 1.0 + 1e-9, 4.0
    while True:
        try:
            if epsilon_bound(hi, M0, alpha, m_alpha, ell_alpha) < target:
                break
        except BoundDomainError:
            pass
        hi *= 4.0
        if hi > 1e60:
            raise BoundDomainError("no zoom factor below 1e60 meets the target")
    while hi / lo > 1.0 + tol:
        mid = math.sqrt(lo * hi)
        try:
            ok = epsilon_bound(mid, M0, alpha, m_alpha, ell_alpha) < target
        except BoundDomainError:
            ok = False
        if ok:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class FeasibilityReport:
    """Parameter certification: margins, tail bound and derived constants."""

    ok: bool
    margin_drift: float
    margin_K: float
    epsilon_estimate: float
    D: float
    C: float
    R: int
    drift_ok: bool
    K_ok: bool
    epsilon_ok: bool
    margin_drift_literal: float
    margin_K_literal: float
    c: float
    alpha: float
    mu_A: float
    sigma_A: float
    sigma_W: float
    m_alpha: float
    ell_alpha: float
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self) | {"notes": list(self.notes),
                               "epsilon_estimate": json_safe(self.epsilon_estimate)}


def feasibility(
    c: float,
    params: StrategyParams,
    A_moments: MomentSummary,
    W_moments: MomentSummary,
    alpha: float,
) -> FeasibilityReport:
    """Certify a parameter set against the contraction requirements.

    Clauses: (i) the normal-mode coefficient
    sigma_A^2 + (2|mu_A| + sigma_A)(2 P delta) + (2+K) P^2 delta^2 must stay
    below 1 - c; (ii) mu_A^2 <= (1-c) K; (iii) c + epsilon(P, M0) must stay
    below min(1 - sigma_A^2, 3/4).  Literal variants of (i) and (ii) with
    the signed/linear gain mean are reported for comparison; the safe forms
    decide ``ok``.
    """
    if alpha <= 4:
        raise MomentOrderError(
            f"feasibility requires a tail moment order alpha > 4, got {alpha}"
        )
    mu_a, sig_a = A_moments.mean, A_moments.stddev
    sig_w = W_moments.stddev
    if sig_a**2 >= 1.0:
        raise UnstabilizableError(
            f"sigma_A^2 = {sig_a**2:.4g} >= 1: the system is not second-moment "
            "stabilizable at any rate"
        )
    margin_drift = (1.0 - c) - params.drift_coefficient(abs(mu_a), sig_a)
    margin_drift_literal = (1.0 - c) - params.drift_coefficient(mu_a, sig_a)
    margin_k = (1.0 - c) * params.K - mu_a**2
    margin_k_literal = (1.0 - c) * params.K - mu_a

    m_alpha = max(2.0, A_moments.shifted_abs_moment_alpha)
    ell_alpha = W_moments.abs_moment_alpha
    notes: list[str] = []
    try:
        eps = epsilon_bound(params.P, params.M0, alpha, m_alpha, ell_alpha)
    except BoundDomainError as exc:
        eps = math.inf
        notes.append(f"tail bound unavailable: {exc}")

    drift_ok = margin_drift >= 0.0
    k_ok = margin_k >= 0.0
    eps_ok = c + eps < min(1.0 - sig_a**2, 0.75)
    d_const = params.drift_constant(sig_w**2)
    return FeasibilityReport(
        ok=drift_ok and k_ok and eps_ok,
        margin_drift=margin_drift,
        margin_K=margin_k,
        epsilon_estimate=eps,
        D=d_const,
        C=d_const / c,
        R=rate(params),
        drift_ok=drift_ok,
        K_ok=k_ok,
        epsilon_ok=eps_ok,
        margin_drift_literal=margin_drift_literal,
        margin_K_literal=margin_k_literal,
        c=c,
        alpha=alpha,
        mu_A=mu_a,
        sigma_A=sig_a,
        sigma_W=sig_w,
        m_alpha=m_alpha,
        ell_alpha=ell_alpha,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# closed-form second-moment recursions (simulation oracles)
# ---------------------------------------------------------------------------

ORACLE_POLICIES = ("zero_control", "perfect_observation")


def moment_recursion_curve(
    policy: str,
    A_moments: tuple[float, float],
    W_moments: tuple[float, float],
    n: int,
) -> np.ndarray:
    """E[X_k^2] for k = 0..n under an idealized control policy.

    zero_control applies only the disturbance-centering offset, so
    E_{k+1} = (mu_A^2 + sigma_A^2) E_k + sigma_W^2; perfect_observation
    cancels mu_A X exactly, so E_{k+1} = sigma_A^2 E_k + sigma_W^2.
    E_0 = 0.  The recursion may diverge; that is informative.
    """
    if policy not in ORACLE_POLICIES:
        raise ValueError(f"policy must be one of {ORACLE_POLICIES}, got {policy!r}")
    mu_a, sig_a = A_moments
    _, sig_w = W_moments
    coef = sig_a**2 + (mu_a**2 if policy == "zero_control" else 0.0)
    out = np.empty(n + 1)
    out[0] = 0.0
    for k in range(n):
        out[k + 1] = coef * out[k] + sig_w**2
    return out


def oracle_law_moments(a_spec, w_spec) -> tuple[float, float, float]:
    """(E[A_c^3], E[A_c^4], E[W_c^4]) for ``oracle_mean_stderr``: finite (MomentError), and W symmetric."""
    from zoomctl.distributions import central_moment

    if abs(w_c3 := central_moment(w_spec, 3)) > 1e-12:
        raise ValueError(f"exact oracle stderr requires a symmetric disturbance law, got E[W_c^3]={w_c3:.4g}")
    return central_moment(a_spec, 3), central_moment(a_spec, 4), central_moment(w_spec, 4)


def oracle_mean_stderr(policy: str, a_spec, w_spec, n: int, trials: int) -> np.ndarray:
    """Exact standard error of the ensemble mean of X_k^2, k = 0..n.

    X' = G*X + W_c with G the raw gain (zero_control) or the centered gain
    (perfect_observation) and W_c the centered disturbance, so

        E[X'^4] = E[G^4] E[X^4] + 6 E[G^2] E[X^2] sigma_W^2 + E[W_c^4],

    valid because the odd cross terms each carry E[W_c] = 0, E[W_c^3] = 0
    (symmetric disturbances) or E[G_c] = 0.  An exact variance makes the
    oracle comparison a proper z-test; the empirical standard error of a
    heavy-tailed X^2 shrinks together with its mean and would understate.
    """
    from zoomctl.distributions import moments as law_moments

    mu_a, var_a = law_moments(a_spec)
    _, var_w = law_moments(w_spec)
    a_c3, a_c4, w_c4 = oracle_law_moments(a_spec, w_spec)
    if policy == "zero_control":
        g2 = var_a + mu_a**2
        g4 = mu_a**4 + 6.0 * mu_a**2 * var_a + 4.0 * mu_a * a_c3 + a_c4
    elif policy == "perfect_observation":
        g2 = var_a
        g4 = a_c4
    else:
        raise ValueError(f"policy must be one of {ORACLE_POLICIES}, got {policy!r}")
    e2 = np.empty(n + 1)
    e4 = np.empty(n + 1)
    e2[0] = e4[0] = 0.0
    for k in range(n):
        e2[k + 1] = g2 * e2[k] + var_w
        e4[k + 1] = g4 * e4[k] + 6.0 * g2 * e2[k] * var_w + w_c4
    var_xsq = np.maximum(e4 - e2**2, 0.0)
    return np.sqrt(var_xsq / trials)
