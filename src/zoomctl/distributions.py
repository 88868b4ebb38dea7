"""Laws of the random gain A and the additive disturbance W.

Four parametric families are supported: gaussian, uniform, two_point and
student_t.  Everything the control strategy and its analysis consume lives
here: sampling (arrays, and blocks in place), exact first/second moments, and
absolute moments with an additive shift, E[(|Z| + shift)^alpha].  The
shifted absolute moment at alpha > 4 is what the zoom-out tail bound runs
on; student_t is included precisely because it has only finitely many
moments (alpha < dof), which exercises that hypothesis.

Closed forms are used for two_point and uniform.  gaussian and student_t
absolute moments use a tanh-sinh rule in the law's standardized variable,
whose step halves until two sums agree to a relative 1e-6 (not
configurable); a moment whose sums never agree raises MomentError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

QUAD_REL_TOL = 1e-6

# Named parameters per family, in positional order.
KIND_FIELDS: dict[str, tuple[str, ...]] = {
    "gaussian": ("mean", "stddev"),
    "uniform": ("lo", "hi"),
    "two_point": ("v1", "p", "v2"),
    "student_t": ("dof", "scale", "shift"),
}


class MomentError(ValueError):
    """A requested moment does not exist for the given law."""


@dataclass(frozen=True)
class DistributionSpec:
    """One of the supported scalar laws, identified by kind plus parameters.

    ``params`` holds the family's parameters in the order given by
    ``KIND_FIELDS[kind]``.  Use the classmethod constructors.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        fields = KIND_FIELDS[self.kind]
        if len(self.params) != len(fields):
            raise ValueError(
                f"{self.kind} takes {len(fields)} parameters {fields}, got {len(self.params)}"
            )
        vals = [float(v) for v in self.params]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"{self.kind} parameters must be finite, got {vals}")
        object.__setattr__(self, "params", tuple(vals))
        if self.kind == "gaussian" and self.params[1] <= 0:
            raise ValueError("gaussian requires stddev > 0")
        if self.kind == "uniform" and not self.params[0] < self.params[1]:
            raise ValueError("uniform requires lo < hi")
        if self.kind == "two_point" and not 0.0 <= self.params[1] <= 1.0:
            raise ValueError("two_point requires 0 <= p <= 1")
        if self.kind == "student_t" and (self.params[0] <= 0 or self.params[1] <= 0):
            raise ValueError("student_t requires dof > 0 and scale > 0")

    @classmethod
    def gaussian(cls, mean: float, stddev: float) -> "DistributionSpec":
        return cls("gaussian", (mean, stddev))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "DistributionSpec":
        return cls("uniform", (lo, hi))

    @classmethod
    def two_point(cls, v1: float, p: float, v2: float) -> "DistributionSpec":
        """Takes value ``v1`` with probability ``p``, else ``v2``."""
        return cls("two_point", (v1, p, v2))

    @classmethod
    def student_t(cls, dof: float, scale: float, shift: float = 0.0) -> "DistributionSpec":
        """``shift + scale * T`` for T standard Student-t with ``dof`` degrees."""
        return cls("student_t", (dof, scale, shift))

    def named_params(self) -> dict[str, float]:
        return dict(zip(KIND_FIELDS[self.kind], self.params))

    def describe(self) -> dict[str, object]:
        d: dict[str, object] = {"kind": self.kind}
        d.update(self.named_params())
        return d


@dataclass(frozen=True)
class MomentSummary:
    """Moment bundle of a law at a requested order alpha.

    ``abs_moment_alpha`` is E[|Z|^alpha]; ``shifted_abs_moment_alpha`` is
    E[(|Z| + |mean|)^alpha], the quantity the zoom-out tail analysis needs
    for the gain law.
    """

    mean: float
    stddev: float
    alpha: float
    abs_moment_alpha: float
    shifted_abs_moment_alpha: float


def sample_array(spec: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """An array of ``n`` i.i.d. draws.

    Consecutive calls on one generator continue a single stream: draws of
    sizes n1, n2, ... equal one draw of n1 + n2 + ... .  A trial's noise is
    all its gains, then all its disturbances (the engine draws both through
    ``sample_rows``, a batch of steps at a time, the gains from a second
    generator, the first having skipped them the same way), so the bit
    stream consumed per trial is a documented function of (spec, seed, horizon).
    """
    p = spec.params
    if spec.kind == "gaussian":
        return p[0] + p[1] * rng.standard_normal(n)
    if spec.kind == "uniform":
        return rng.uniform(p[0], p[1], n)
    if spec.kind == "two_point":
        return np.where(rng.random(n) < p[1], p[0], p[2])
    if spec.kind == "student_t":
        return p[2] + p[1] * rng.standard_t(p[0], n)
    raise AssertionError(spec.kind)


def sample_rows(spec: DistributionSpec, rngs: Sequence[np.random.Generator], out: np.ndarray) -> None:
    """Fill the (len(rngs), n) block ``out``: row j is ``sample_array(spec, rngs[j], n)``, bit for bit.

    A gaussian block draws each row's standard normals in place, then
    scales the whole block, ``stddev * z`` and ``+ mean`` in one pass each:
    the same IEEE operations as ``mean + stddev * z``.  Other laws fill
    the rows through ``sample_array``.
    """
    n = out.shape[1]
    if spec.kind != "gaussian":
        for row, rng in zip(out, rngs):
            row[:] = sample_array(spec, rng, n)
        return
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= spec.params[1]
    out += spec.params[0]


def moments(spec: DistributionSpec) -> tuple[float, float]:
    """Exact (mean, variance) of the law.

    Raises MomentError where undefined (student_t with dof <= 2).
    """
    p = spec.params
    if spec.kind == "gaussian":
        return p[0], p[1] ** 2
    if spec.kind == "uniform":
        lo, hi = p
        return (lo + hi) / 2.0, (hi - lo) ** 2 / 12.0
    if spec.kind == "two_point":
        v1, prob, v2 = p
        mean = prob * v1 + (1.0 - prob) * v2
        var = prob * v1**2 + (1.0 - prob) * v2**2 - mean**2
        return mean, max(var, 0.0)
    if spec.kind == "student_t":
        dof, scale, shift = p
        if dof <= 2:
            raise MomentError(
                f"student_t variance is undefined for dof={dof}; requires dof > 2"
            )
        return shift, scale**2 * dof / (dof - 2.0)
    raise AssertionError(spec.kind)


def _uniform_abs_moment(lo: float, hi: float, alpha: float, shift: float) -> float:
    # antiderivative of (x + shift)^alpha is (x + shift)^(alpha+1) / (alpha+1)
    def seg(a: float, b: float) -> float:
        # integral of (|x| + shift)^alpha over [a, b] with a, b same sign
        if b <= 0:
            a, b = -b, -a
        lo_, hi_ = a + shift, b + shift
        return (hi_ ** (alpha + 1.0) - lo_ ** (alpha + 1.0)) / (alpha + 1.0)

    if lo >= 0 or hi <= 0:
        total = seg(lo, hi)
    else:
        total = seg(lo, 0.0) + seg(0.0, hi)
    return total / (hi - lo)


def _quad_abs_moment(spec: DistributionSpec, alpha: float, shift: float) -> float:
    # Tanh-sinh in theta = atan(z), z = (x - loc)/scale the standardized variable:
    # the density times dz is cos(theta)^-2 times exp(-z^2/2) for gaussian, times
    # (1 + z^2/dof)^(-(dof+1)/2) = cos^(dof+1) (cos^2 + sin^2/dof)^(-(dof+1)/2) for
    # student_t, with no spike at large dof.  Terms are formed in logs of each node's
    # distances to its piece's ends, so a narrow law far from 0 and the student_t's
    # singularity at theta = +-pi/2 come out exact to rounding.
    if spec.kind == "gaussian":
        loc, scale = spec.params
        beta, log_norm = 1.0, -0.5 * math.log(2.0 * math.pi)
    else:
        dof, scale, loc = spec.params
        beta, x = min(1.0, dof - alpha), dof / 2.0
        # log of the density at 0: lgamma(x + 1/2) - lgamma(x) - log(2 pi x)/2, the
        # difference taken by its series in 1/x where lgamma's would cancel
        log_ratio = math.lgamma(x + 0.5) - math.lgamma(x) - 0.5 * math.log(x) if x < 100.0 else (
            (1.0 / (192.0 * x * x) - 0.125) / x)
        log_norm = log_ratio - 0.5 * math.log(2.0 * math.pi)
    # the kink of |x| at theta0 = atan(-loc / scale) splits (-pi/2, pi/2) into
    # two pieces, one row each; |x| = hyp * |sin(theta - theta0)| / cos(theta)
    w = np.array([[max(math.atan2(scale, sign * loc), math.ulp(0.0))] for sign in (-1.0, 1.0)])
    log_hyp = math.log(math.hypot(scale, loc))
    log_shift = math.log(shift) if shift > 0 else -math.inf
    log_ref = np.logaddexp(log_hyp, log_shift)  # sums are relative to (hyp + shift)^alpha
    t_max = math.asinh(40.0 / (math.pi * beta))  # terms fall like d^beta, d ~ exp(-pi sinh t)

    def log_sine_over(log_d, d_far):  # (log(sin(m) / d), m), m = min(d, d_far), d + d_far = pi
        m = np.minimum(np.exp(log_d), d_far)
        return np.where(m < d_far, 0.0, np.log(d_far) - log_d) + np.log(np.sinc(m / math.pi)), m

    def node_sum(t, h):  # h times the terms at nodes t of both pieces, summed
        two_u = math.pi * np.sinh(t)
        log_dk = np.log(w) - np.logaddexp(0.0, two_u)  # node distance to the kink end
        log_dp = np.log(w) - np.logaddexp(0.0, -two_u)  # and to the pole end
        cos_rel, m = log_sine_over(log_dp, w[::-1] + np.exp(log_dk))  # log(cos(theta) / dp)
        sin_rel, _ = log_sine_over(log_dk, w[::-1] + np.exp(log_dp))  # log(|sin(theta - theta0)| / dk)
        log_xc = np.logaddexp(log_hyp + log_dk + sin_rel, log_shift + log_dp + cos_rel)
        if spec.kind == "gaussian":  # exp(-z^2/2), z = tan(theta)
            power, log_law = -2.0 - alpha, -0.5 / np.tan(m) ** 2
        else:  # u = log(z^2 / dof), from |sin(theta)| = cos(dp)
            log_sin = np.log(np.abs(np.cos(np.exp(log_dp))))
            u = 2.0 * (log_sin - log_dp - cos_rel) - math.log(dof)
            # where z^2 > dof, cos^(dof+1) joins cos's power, so its exponent
            # near the pole is dof - 1 - alpha whole; log1p(z^2/dof) elsewhere
            tail = u > 0.0
            power = np.where(tail, dof - 1.0 - alpha, -2.0 - alpha)
            log_law = -(dof + 1.0) / 2.0 * np.where(
                tail, 2.0 * log_sin - math.log(dof) + np.logaddexp(0.0, -u), np.logaddexp(0.0, u))
        # cos^power dp, formed as dp^(power+1) (cos/dp)^power: nothing cancels at the pole
        log_term = (alpha * (log_xc - log_ref) + (power + 1.0) * log_dp + power * cos_rel + log_dk
                    + np.log(math.pi * h * np.cosh(t)) - np.log(w) + log_norm + log_law)
        return np.exp(log_term).sum()

    # halve the step until two sums agree; a sum of 0 or nan never does
    with np.errstate(all="ignore"):
        h, n = 0.125, math.ceil(t_max / 0.125)
        total = node_sum(h * np.arange(-n, n + 1), h)
        for _ in range(8):
            prev, h, n = total, h / 2, 2 * n
            total = prev / 2 + node_sum(h * np.arange(1 - n, n, 2), h)
            if 0 < total and abs(total - prev) <= QUAD_REL_TOL * total:
                return float(np.exp(alpha * log_ref) * total)
    raise MomentError(f"E[(|Z|+{shift})^{alpha}] under {spec.kind} {spec.params}: "
                      f"tanh-sinh sums did not agree to {QUAD_REL_TOL} down to step {h}")


def abs_moment(spec: DistributionSpec, alpha: float, shift: float = 0.0) -> float:
    """E[(|Z| + shift)^alpha] for Z distributed per ``spec``.

    ``alpha >= 1`` and ``shift >= 0``.  Closed form for two_point and
    uniform; a tanh-sinh rule (relative tolerance 1e-6) for gaussian and
    student_t.  Raises MomentError when the moment does not exist, or when
    the rule's sums do not agree.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    p = spec.params
    if spec.kind == "two_point":
        v1, prob, v2 = p
        return prob * (abs(v1) + shift) ** alpha + (1.0 - prob) * (abs(v2) + shift) ** alpha
    if spec.kind == "uniform":
        return _uniform_abs_moment(p[0], p[1], alpha, shift)
    if spec.kind == "student_t" and alpha >= p[0]:
        raise MomentError(
            f"E[(|Z|+s)^alpha] does not exist for student_t with dof={p[0]} "
            f"and alpha={alpha}; requires alpha < dof"
        )
    return _quad_abs_moment(spec, alpha, shift)


def moment_summary(spec: DistributionSpec, alpha: float) -> MomentSummary:
    mean, var = moments(spec)
    return MomentSummary(
        mean=mean,
        stddev=math.sqrt(var),
        alpha=alpha,
        abs_moment_alpha=abs_moment(spec, alpha, 0.0),
        shifted_abs_moment_alpha=abs_moment(spec, alpha, abs(mean)),
    )


def central_moment(spec: DistributionSpec, k: int) -> float:
    """k-th central moment, k in {2, 3, 4}, closed form per family.

    Used by the exact-variance oracle for the idealized policies.  Raises
    MomentError where undefined (student_t needs dof > k).
    """
    if k not in (2, 3, 4):
        raise ValueError(f"central_moment supports k in 2..4, got {k}")
    p = spec.params
    if spec.kind == "gaussian":
        sd = p[1]
        return {2: sd**2, 3: 0.0, 4: 3.0 * sd**4}[k]
    if spec.kind == "uniform":
        width = p[1] - p[0]
        return {2: width**2 / 12.0, 3: 0.0, 4: width**4 / 80.0}[k]
    if spec.kind == "two_point":
        v1, prob, v2 = p
        mean = prob * v1 + (1.0 - prob) * v2
        return prob * (v1 - mean) ** k + (1.0 - prob) * (v2 - mean) ** k
    if spec.kind == "student_t":
        dof, scale, _ = p
        if dof <= k:
            raise MomentError(
                f"student_t central moment of order {k} requires dof > {k}, got dof={dof}"
            )
        if k == 2:
            return scale**2 * dof / (dof - 2.0)
        if k == 3:
            return 0.0
        return 3.0 * scale**4 * dof**2 / ((dof - 2.0) * (dof - 4.0))
    raise AssertionError(spec.kind)

