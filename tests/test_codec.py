import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zoomctl.codec import (
    Cell,
    EncodeRangeError,
    ProtocolError,
    StrategyParams,
    cell_of,
    cell_tracker,
    cell_width,
    encode_normal,
    is_clamped,
    rate,
    rate_bits,
    tracker_update_normal,
)

P_SMALL = StrategyParams(L=2, P=2.0, M0=0.1, K=2.0, c=0.2)


# --- params validation ------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L=0, P=2.0, M0=1.0, K=1.0, c=0.2),
        dict(L=2, P=1.0, M0=1.0, K=1.0, c=0.2),
        dict(L=2, P=2.0, M0=0.0, K=1.0, c=0.2),
        dict(L=2, P=2.0, M0=1.0, K=0.0, c=0.2),
        dict(L=2, P=2.0, M0=1.0, K=1.0, c=0.75),
        dict(L=2, P=2.0, M0=1.0, K=1.0, c=0.0),
        dict(L=2**51, P=2.0, M0=1.0, K=1.0, c=0.2),
    ],
)
def test_bad_params_rejected(kwargs):
    with pytest.raises(ValueError):
        StrategyParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        # P*M0/L below the smallest normal float
        (dict(L=8, P=2.0, M0=1e-310), "cell width"),
        (dict(L=2**50, P=1.5, M0=1e-293), "cell width"),
        # P*M0 overflows
        (dict(L=8, P=1e300, M0=1e10), "P\\*M0 overflows"),
    ],
)
def test_degenerate_cell_width_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        StrategyParams(K=2.0, c=0.2, **kwargs)


def test_smallest_normal_cell_width_accepted():
    tiny = sys.float_info.min
    params = StrategyParams(L=4, P=2.0, M0=2.0 * tiny, K=2.0, c=0.2)
    assert params.P * params.M0 / params.L == tiny
    StrategyParams(L=1, P=1e300, M0=1e8, K=2.0, c=0.2)


# --- rate -------------------------------------------------------------------

@pytest.mark.parametrize("L,want", [(1, 2), (2, 3), (4, 4), (8, 5), (16, 6)])
def test_rate_formula(L, want):
    params = StrategyParams(L=L, P=2.0, M0=1.0, K=1.0, c=0.2)
    assert rate(params) == want
    assert params.num_symbols == 2 * L + 1


def test_rate_never_below_two():
    assert rate(StrategyParams(L=1, P=1.5, M0=1.0, K=1.0, c=0.2)) == 2


@pytest.mark.parametrize("L", [1, 2, 3, 8, 1000, 2**50, 2**60])
def test_rate_of_codebook_size(L):
    # ceil(log2(2L+1)) without floating point
    assert rate_bits(L) == next(r for r in range(1, 200) if 2**r >= 2 * L + 1)
    if L <= 2**50:
        assert rate_bits(L) == rate(StrategyParams(L=L, P=2.0, M0=1.0, K=1.0, c=0.2))


# --- encode / cell examples -------------------------------------------------

def test_encode_examples():
    assert encode_normal(1.3, 1.0, P_SMALL) == 3
    assert encode_normal(0.0, 1.0, P_SMALL) == 2
    assert encode_normal(-2.0, 1.0, P_SMALL) == 0


def test_cell_examples():
    assert cell_of(3, 1.0, P_SMALL) == Cell(1.0, 2.0)
    assert cell_of(0, 1.0, P_SMALL) == Cell(-2.0, -1.0)
    with pytest.raises(ProtocolError):
        cell_of(P_SMALL.emergency_symbol, 1.0, P_SMALL)


def test_tracker_update_examples():
    assert tracker_update_normal(3, 1.0, P_SMALL) == (2.0, 0.5, 1)
    assert tracker_update_normal(2, 1.0, P_SMALL) == (1.0, 0.5, 1)
    p6 = StrategyParams(L=2, P=2.0, M0=0.6, K=2.0, c=0.2)
    assert tracker_update_normal(1, 1.0, p6) == (1.0, 0.6, -1)


def test_encode_out_of_range_rejected():
    with pytest.raises(EncodeRangeError):
        encode_normal(2.0000001, 1.0, P_SMALL)


def test_tracker_update_rejects_emergency():
    with pytest.raises(ProtocolError):
        tracker_update_normal(P_SMALL.emergency_symbol, 1.0, P_SMALL)


def test_zero_maps_to_right_cell_with_positive_sign():
    sym = encode_normal(0.0, 3.7, P_SMALL)
    cell = cell_of(sym, 3.7, P_SMALL)
    assert cell.a == 0.0
    _, _, rho = tracker_update_normal(sym, 3.7, P_SMALL)
    assert rho == 1
    sym_neg = encode_normal(-0.0, 3.7, P_SMALL)
    assert sym_neg == sym


# --- property tests ----------------------------------------------------------

def params_strategy():
    return st.builds(
        StrategyParams,
        L=st.integers(1, 64),
        P=st.floats(1.01, 50.0),
        M0=st.floats(0.01, 5.0),
        K=st.floats(0.1, 20.0),
        c=st.floats(0.01, 0.74),
    )


@settings(max_examples=300, deadline=None)
@given(
    params=params_strategy(),
    m_prev=st.floats(0.01, 1e6),
    frac=st.floats(-1.0, 1.0),
)
def test_round_trip_containment(params, frac, m_prev):
    m_prev = max(m_prev, params.M0)
    x = frac * params.P * m_prev
    assume(abs(x) <= params.P * m_prev)
    sym = encode_normal(x, m_prev, params)
    assert 0 <= sym < params.emergency_symbol
    cell = cell_of(sym, m_prev, params)
    lo_ok = cell.a <= x or sym == 0
    hi_ok = x < cell.b or (sym == params.emergency_symbol - 1 and x <= params.P * m_prev)
    assert lo_ok and hi_ok


@settings(max_examples=200, deadline=None)
@given(params=params_strategy(), m_prev=st.floats(0.01, 1e6))
def test_cells_tile_range(params, m_prev):
    m_prev = max(m_prev, params.M0)
    cells = [cell_of(s, m_prev, params) for s in range(2 * params.L)]
    assert cells[0].a == -params.P * m_prev
    assert cells[-1].b == params.P * m_prev
    for left, right in zip(cells, cells[1:]):
        assert left.b == right.a
    w = cell_width(m_prev, params)
    for c in cells:
        assert c.width == pytest.approx(w, rel=1e-9)
    # zero is an endpoint of the cell pair around the origin
    assert cells[params.L].a == 0.0


@settings(max_examples=300, deadline=None)
@given(params=params_strategy(), m_prev=st.floats(0.01, 1e6), sym=st.integers(0, 200))
def test_tracker_invariants(params, m_prev, sym):
    m_prev = max(m_prev, params.M0)
    sym = sym % (2 * params.L)
    m, i, rho = tracker_update_normal(sym, m_prev, params)
    assert m >= params.M0
    assert i >= params.M0
    assert i <= m
    assert rho in (-1, 1)
    cell = cell_of(sym, m_prev, params)
    if not is_clamped(cell.a, cell.b, params.M0):
        # unclamped: the canonical interval rho*[M-2I, M] is exactly the cell
        inner = m - 2.0 * i
        if rho == 1:
            assert inner == cell.a and m == cell.b
        else:
            assert inner == -cell.b and m == -cell.a


@settings(max_examples=300, deadline=None)
@given(
    params=params_strategy(),
    m_prev=st.floats(0.01, 1e6),
    frac=st.floats(-1.0, 1.0),
)
def test_containment_in_canonical_interval(params, m_prev, frac):
    m_prev = max(m_prev, params.M0)
    x = frac * params.P * m_prev
    assume(abs(x) <= params.P * m_prev)
    sym = encode_normal(x, m_prev, params)
    cell = cell_of(sym, m_prev, params)
    if is_clamped(cell.a, cell.b, params.M0):
        return
    m, i, rho = tracker_update_normal(sym, m_prev, params)
    rx = rho * x
    # exact comparisons: the cell arithmetic reproduces the interval endpoints
    assert m - 2.0 * i <= rx or sym in (0, params.emergency_symbol - 1)
    assert rx <= m


def test_huge_codebook_precision():
    # astronomically large live range; encoding near the origin stays exact
    params = StrategyParams(L=200_000_000_000_000, P=1e13, M0=1.0, K=2.0, c=0.2)
    w = cell_width(3.0, params)
    for x in (0.0, 1.0, -2.5, 123.456, -3.0e12):
        sym = encode_normal(x, 3.0, params)
        cell = cell_of(sym, 3.0, params)
        assert cell.a <= x <= cell.b
        # endpoint rounding grows with the distance from the origin
        assert cell.width == pytest.approx(w, abs=4.0 * np.spacing(abs(x) + w))


# --- in-place array form ------------------------------------------------------

def _valid_params(L, P, M0):
    try:
        return StrategyParams(L=L, P=P, M0=M0, K=2.0, c=0.2)
    except ValueError:
        return None


# L from 1 to 2^50, P just above 1 and huge, M0 tiny and huge: the valid
# combinations.  With L a power of two the extreme cells' endpoints come out
# exact anyway; with L = 3 or 2^50 - 1 only the extreme-cell rule gives them
EXTREME_PARAMS = [p for L in (1, 2, 3, 2**50 - 1, 2**50) for P in (1.0000001, 1e300)
                  for M0 in (1e-300, 1e100) if (p := _valid_params(L, P, M0)) is not None]


def _branches(x, m_prev, params):
    """Which exception branches encode_normal and cell_of take for x.

    The extreme cells count where their exact endpoint differs from the
    multiple of the cell width.
    """
    L, lim = params.L, params.P * m_prev
    w = cell_width(m_prev, params)
    k = math.floor(x / w)
    down = x < k * w
    k -= down
    up = x >= (k + 1) * w
    k += up
    clip = not -L <= k <= L - 1
    k = min(max(k, -L), L - 1)
    inexact = L * w != lim
    return {"down": down, "up": up, "clip": clip, "low": k == -L and inexact, "high": k == L - 1 and inexact}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _lane_x(params, m_prev, kind, j, ulp, frac):
    """A lane's state; zoom-out lanes encode X = 0, as in the engine."""
    lim = params.P * m_prev
    if kind in ("edge", "-edge"):
        return lim if kind == "edge" else -lim
    if kind == "boundary":
        x = (j % (2 * params.L + 1) - params.L) * (lim / params.L)
        x = np.nextafter(x, math.copysign(math.inf, ulp)) if ulp else x
        return float(min(max(x, -lim), lim))
    if kind == "frac":
        return frac * lim
    return -0.0 if kind == "-zero" else 0.0  # zero, -zero and zoom-out


def _check_lanes(params, m_prev, xs):
    """cell_tracker on the lanes, both ways, against the scalar codec lane by lane; the branches taken."""
    n = len(xs)
    lim = params.P * np.asarray(m_prev, dtype=float)
    k, out = np.empty(n), np.empty((3, n))
    work = (np.empty(n), np.empty(n), np.empty(n, dtype=bool))
    cell_tracker(np.asarray(xs, dtype=float), lim, params.L, params.M0, k, out, work)
    syms = [encode_normal(x, m, params) for x, m in zip(xs, m_prev)]
    cells = [cell_of(s, m, params) for s, m in zip(syms, m_prev)]
    want = np.array([tracker_update_normal(s, m, params) for s, m in zip(syms, m_prev)], dtype=float).T
    assert np.array_equal(k, np.array(syms, dtype=float) - params.L)
    assert np.array_equal(_bits(work[0]), _bits([c.a for c in cells]))
    assert np.array_equal(_bits(work[1]), _bits([c.b for c in cells]))
    assert np.array_equal(_bits(out), _bits(want))
    # replay: the same cells from their indices
    out2, k2 = np.empty((3, n)), np.array(syms, dtype=float) - params.L
    cell_tracker(None, lim, params.L, params.M0, k2, out2, work)
    assert np.array_equal(_bits(out2), _bits(want))
    return [_branches(x, m, params) for x, m in zip(xs, m_prev)]


LANE = st.tuples(
    st.sampled_from(["edge", "-edge", "boundary", "zero", "-zero", "frac", "zoom"]),
    st.floats(0.0, 40.0),  # m_prev = M0 * 2^e
    st.integers(0, 2**51),  # cell index, reduced to [-L, L]
    st.sampled_from([-1, 0, 1]),  # ulps off the boundary
    st.floats(-1.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(params=st.sampled_from(EXTREME_PARAMS), lanes=st.lists(LANE, min_size=1, max_size=12))
def test_cell_tracker_matches_scalar_codec(params, lanes):
    m_prev = [params.M0 * 2.0**e for _, e, *_ in lanes]
    xs = [_lane_x(params, m, kind, j, ulp, frac) for m, (kind, _, j, ulp, frac) in zip(m_prev, lanes)]
    _check_lanes(params, m_prev, xs)


def test_cell_tracker_takes_every_exception_branch():
    rng = np.random.default_rng(5)
    taken = dict.fromkeys(("down", "up", "clip", "low", "high"), 0)
    for params in EXTREME_PARAMS + [StrategyParams(L=8, P=2.0, M0=0.1, K=8.0, c=0.2)]:
        for e in rng.uniform(0.0, 17.0, size=3):
            m = params.M0 * 2.0**e
            lanes = [_lane_x(params, m, "boundary", int(j), ulp, 0.0)
                     for j in rng.integers(0, 2**51, size=40) for ulp in (-1, 0, 1)]
            lanes += [_lane_x(params, m, kind, 0, 0, 0.0) for kind in ("edge", "-edge", "zero", "-zero")]
            for flags in _check_lanes(params, [m] * len(lanes), lanes):
                for name, hit in flags.items():
                    taken[name] += hit
    assert all(taken.values()), taken

