"""Fixed-rate interval codec shared by encoder and controller.

Normal (zoom-in) mode partitions the live range [-P*M_prev, P*M_prev] into
2L equal cells of width P*M_prev/L; because L = 1/delta is an integer, zero
is always a cell endpoint and no cell straddles the origin.  Symbols
0..2L-1 index the cells left to right; symbol 2L is the reserved zoom-out
(emergency) codeword announcing that the state escaped the live range.
The codebook therefore has 2L+1 entries and the channel rate is
R = ceil(log2(2L+1)) bits per step.

Boundary convention: cells are half-open [a, b), except the rightmost cell
which is closed.  x = 0 encodes into [0, w) with sign +1.

Receiving a normal symbol pins the state to a known cell, from which both
sides derive the same tracker triple:

    M = max(M0, |a|, |b|)     running bound on |X|
    I = max(M0, (b - a)/2)    quantization half-width
    rho = sign of the cell    (+1 when a = 0, -1 when b = 0)

so that, with the floors at M0 inactive, x lies in rho*[M - 2I, M].

Cell arithmetic is anchored at zero (endpoints are computed as multiples
of the cell width, not as offsets from -P*M_prev) so that encoding stays
precise even when P is astronomically large relative to |x|.

``cell_tracker`` is the array form of the three: it repeats the scalar
arithmetic expression by expression, one lane per element, with live_range
= P*M_prev per lane and float cell indices k = symbol - L, and writes into
the caller's buffers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# L is capped so cell indices and symbols stay exactly representable in
# float64 and int64 intermediate arithmetic.
MAX_L = 2**50


class ProtocolError(ValueError):
    """A symbol outside the agreed codebook usage reached the decoder."""


class EncodeRangeError(ValueError):
    """encode_normal was called with |x| beyond the live range."""


@dataclass(frozen=True)
class StrategyParams:
    """Tunable constants of the two-mode strategy.

    L:  cells per half-range; the quantizer step is delta = 1/L.
    P:  zoom factor; the live range is [-P*M_prev, P*M_prev] and the
        tracker grows by P per zoom-out step.
    M0: floor for both M and I.
    K:  weight of I^2 inside the composite envelope Q = sqrt(M^2 + K*I^2).
    c:  target per-step contraction rate of E[N^2], in (0, 3/4).
    """

    L: int
    P: float
    M0: float
    K: float
    c: float

    def __post_init__(self):
        if not isinstance(self.L, int) or isinstance(self.L, bool):
            raise ValueError(f"L must be an integer, got {self.L!r}")
        if not 1 <= self.L <= MAX_L:
            raise ValueError(f"L must be in [1, {MAX_L}], got {self.L}")
        if not (math.isfinite(self.P) and self.P > 1.0):
            raise ValueError(f"P must be finite and > 1, got {self.P}")
        if not (math.isfinite(self.M0) and self.M0 > 0.0):
            raise ValueError(f"M0 must be finite and > 0, got {self.M0}")
        if not (math.isfinite(self.K) and self.K > 0.0):
            raise ValueError(f"K must be finite and > 0, got {self.K}")
        if not 0.0 < self.c < 0.75:
            raise ValueError(f"c must lie in (0, 0.75), got {self.c}")
        # the first live range and cell width, P*M0 and P*M0/L, must be
        # normal floats, or the cell arithmetic overflows or loses precision
        if not math.isfinite(self.P * self.M0):
            raise ValueError(f"P*M0 overflows: P={self.P}, M0={self.M0}")
        if self.P * self.M0 / self.L < sys.float_info.min:
            raise ValueError(
                f"cell width P*M0/L = {self.P * self.M0 / self.L!r} is below the smallest "
                f"normal float {sys.float_info.min!r}"
            )

    @property
    def delta(self) -> float:
        return 1.0 / self.L

    @property
    def num_symbols(self) -> int:
        return 2 * self.L + 1

    @property
    def emergency_symbol(self) -> int:
        return 2 * self.L

    def drift_coefficient(self, mu_A: float, sigma_A: float) -> float:
        """sigma_A^2 + (2 mu_A + sigma_A)(2 P delta) + (2+K)(P delta)^2, kept below 1 - c."""
        y = self.P * self.delta
        return sigma_A**2 + (2.0 * mu_A + sigma_A) * (2.0 * y) + (2.0 + self.K) * y * y

    def drift_constant(self, var_W: float) -> float:
        """D = 2 Var(W) + (1 + K) M0^2 of the drift inequality for E[N^2]."""
        return 2.0 * var_W + (1.0 + self.K) * self.M0**2

    def describe(self) -> dict[str, object]:
        return {"L": self.L, "P": self.P, "M0": self.M0, "K": self.K, "c": self.c,
                "rate_bits": rate(self)}


@dataclass(frozen=True)
class Cell:
    """One quantization interval, a < b."""

    a: float
    b: float

    @property
    def width(self) -> float:
        return self.b - self.a


def rate(params: StrategyParams) -> int:
    """Channel rate in bits: ceil(log2(2L+1)), computed exactly."""
    return rate_bits(params.L)


def rate_bits(L: int) -> int:
    """Bits per symbol of a codebook of 2L+1 symbols."""
    # 2L+1 is odd, so ceil(log2(2L+1)) == bit_length(2L)
    return (2 * L).bit_length()


def cell_width(m_prev: float, params: StrategyParams) -> float:
    return params.P * m_prev / params.L


def encode_normal(x: float, m_prev: float, params: StrategyParams) -> int:
    """Symbol of the cell containing x in the partition scaled by m_prev.

    Requires |x| <= P*m_prev; out-of-range states must be signalled with
    the emergency codeword instead.
    """
    limit = params.P * m_prev
    if not abs(x) <= limit:
        raise EncodeRangeError(
            f"|x|={abs(x)!r} exceeds the live range P*M_prev={limit!r}; "
            "the emergency codeword must be used"
        )
    w = cell_width(m_prev, params)
    k = math.floor(x / w)
    # one-ulp fixup so the chosen cell provably contains x under the
    # half-open convention, using the same endpoint arithmetic as cell_of
    if x < k * w:
        k -= 1
    elif x >= (k + 1) * w:
        k += 1
    k = min(max(k, -params.L), params.L - 1)
    return params.L + k


def cell_of(symbol: int, m_prev: float, params: StrategyParams) -> Cell:
    """Endpoints of the cell a normal symbol refers to."""
    if symbol == params.emergency_symbol:
        raise ProtocolError("the emergency codeword does not index a cell")
    if not 0 <= symbol < 2 * params.L:
        raise ProtocolError(
            f"symbol {symbol} outside codebook [0, {params.emergency_symbol}]"
        )
    w = cell_width(m_prev, params)
    k = symbol - params.L
    # the extreme cells take the range bound exactly so the partition
    # tiles [-P*m_prev, P*m_prev] with no overhang
    a = -params.P * m_prev if k == -params.L else k * w
    b = params.P * m_prev if k == params.L - 1 else (k + 1) * w
    return Cell(a, b)


def tracker_update_normal(
    symbol: int, m_prev: float, params: StrategyParams
) -> tuple[float, float, int]:
    """(M, I, rho) implied by a normal symbol.

    I is computed from the literal endpoint difference (b - a)/2.  For
    same-sign endpoints within a factor of two, b - a is exact in floats,
    which makes M - 2*I reproduce the inner endpoint exactly; the
    containment check in the verification layer relies on this.
    """
    cell = cell_of(symbol, m_prev, params)
    a, b = cell.a, cell.b
    m = max(params.M0, abs(a), abs(b))
    i = max(params.M0, (b - a) / 2.0)
    if a >= 0.0:
        rho = 1
    elif b <= 0.0:
        rho = -1
    else:  # pragma: no cover - cells never straddle zero
        raise AssertionError(f"cell {cell} straddles zero")
    return m, i, rho


def cell_tracker(x, live_range, L: int, M0: float, k: np.ndarray, out, work) -> None:
    """Array form of encode_normal, cell_of and tracker_update_normal, in place.

    With ``x``, encodes it into ``k`` as encode_normal does, with no range
    check: floor, the one-ulp fixups, the clip to [-L, L - 1].  With x None,
    ``k`` holds the cell indices already.  ``work`` = (a, b, flag): a and b
    receive the endpoints of cell k, the extreme cells taking -live_range and
    live_range exactly, and flag is boolean scratch.  ``out`` = (M, I, rho)
    receives the tracker: the floors at M0 and rho = +-1, as floats.  All
    are arrays of one shape; nothing is allocated.  The fixups, the clip and
    the extreme-cell endpoints cost extra calls only when some lane needs
    them.
    """
    m, i, rho = out
    a, b, flag = work
    w = np.divide(live_range, L, out=i)  # the cell width, held in I until the endpoints are known

    def endpoints():
        np.multiply(k, w, out=a)
        np.multiply(np.add(k, 1.0, out=b), w, out=b)

    if x is not None:
        np.floor(np.divide(x, w, out=k), out=k)
        k += 0.0  # the index of x = -0.0 is 0, not -0.0
        np.multiply(k, w, out=a)
        fixed = np.count_nonzero(np.less(x, a, out=flag))
        if fixed:
            np.subtract(k, flag, out=k)
        np.multiply(np.add(k, 1.0, out=b), w, out=b)
        if np.count_nonzero(np.greater_equal(x, b, out=flag)):
            np.add(k, flag, out=k)
            fixed = True
        if fixed:
            endpoints()
    else:
        endpoints()
    lo, hi = (k.min(), k.max()) if k.size else (0.0, 0.0)
    if x is not None and not (-L <= lo and hi <= L - 1):  # also when NaN
        np.fmin(np.fmax(k, -L, out=k), L - 1, out=k)
        endpoints()
        lo, hi = -L, L - 1
    if lo <= -L:  # M not written yet holds -live_range
        np.putmask(a, np.equal(k, -L, out=flag), np.negative(live_range, out=m))
    if hi >= L - 1:
        np.putmask(b, np.equal(k, L - 1, out=flag), live_range)
    # a <= b, so max(|a|, |b|) is max(-a, b)
    np.maximum(np.maximum(np.negative(a, out=m), b, out=m), M0, out=m)
    np.maximum(np.divide(np.subtract(b, a, out=i), 2.0, out=i), M0, out=i)
    np.subtract(np.multiply(np.greater_equal(a, 0.0, out=flag), 2.0, out=rho), 1.0, out=rho)


def is_clamped(a: np.ndarray, b: np.ndarray, M0: float) -> np.ndarray:
    """True where either floor at M0 overrides the geometry of cell [a, b).

    Ties (floor equal to the geometric value) count as unclamped since the
    resulting tracker values coincide with the unclamped ones.
    """
    return (np.maximum(np.abs(a), np.abs(b)) < M0) | ((b - a) / 2.0 < M0)

