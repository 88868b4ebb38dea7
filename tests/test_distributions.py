import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoomctl.distributions import (
    DistributionSpec,
    MomentError,
    abs_moment,
    central_moment,
    moment_summary,
    moments,
    sample_array,
    sample_rows,
)


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# --- validation -----------------------------------------------------------

@pytest.mark.parametrize(
    "ctor",
    [
        lambda: DistributionSpec.gaussian(0.0, 0.0),
        lambda: DistributionSpec.gaussian(0.0, -1.0),
        lambda: DistributionSpec.uniform(1.0, 1.0),
        lambda: DistributionSpec.uniform(2.0, -2.0),
        lambda: DistributionSpec.two_point(0.0, 1.5, 1.0),
        lambda: DistributionSpec.two_point(0.0, -0.1, 1.0),
        lambda: DistributionSpec.student_t(0.0, 1.0),
        lambda: DistributionSpec.student_t(5.0, 0.0),
        lambda: DistributionSpec("weibull", (1.0,)),
    ],
)
def test_invalid_specs_rejected(ctor):
    with pytest.raises(ValueError):
        ctor()


# --- moments --------------------------------------------------------------

def test_moments_uniform():
    assert moments(DistributionSpec.uniform(-1.0, 1.0)) == (0.0, pytest.approx(1.0 / 3.0))


def test_moments_gaussian():
    assert moments(DistributionSpec.gaussian(1.0, 0.5)) == (1.0, 0.25)


def test_moments_two_point():
    mean, var = moments(DistributionSpec.two_point(0.0, 0.5, 2.0))
    assert mean == 1.0 and var == 1.0


def test_moments_student_t():
    mean, var = moments(DistributionSpec.student_t(5.0, 0.3872983346207417, 1.0))
    assert mean == 1.0
    assert var == pytest.approx(0.25)


def test_student_t_variance_undefined():
    with pytest.raises(MomentError, match="dof"):
        moments(DistributionSpec.student_t(2.0, 1.0))


# --- sampling -------------------------------------------------------------

def test_two_point_degenerate_always_v1():
    spec = DistributionSpec.two_point(1.0, 1.0, 123.0)
    draws = sample_array(spec, rng_from(0), 1000)
    assert np.all(draws == 1.0)


def test_sampling_reproducible():
    spec = DistributionSpec.gaussian(0.0, 1.0)
    a = sample_array(spec, rng_from(42), 1)
    b = sample_array(spec, rng_from(42), 1)
    assert np.array_equal(a, b)
    s1 = sample_array(spec, rng_from(7), 100)
    s2 = sample_array(spec, rng_from(7), 100)
    assert np.array_equal(s1, s2)


def test_uniform_law_of_large_numbers():
    spec = DistributionSpec.uniform(-1.0, 1.0)
    draws = sample_array(spec, rng_from(11), 10**6)
    assert abs(draws.mean()) < 0.01


@pytest.mark.parametrize("kind_seed", [("gaussian", 1), ("uniform", 2), ("student_t", 3)])
def test_sample_matches_moments(kind_seed):
    kind, seed = kind_seed
    spec = {
        "gaussian": DistributionSpec.gaussian(0.7, 1.3),
        "uniform": DistributionSpec.uniform(-2.0, 5.0),
        "student_t": DistributionSpec.student_t(6.0, 0.8, -0.5),
    }[kind]
    mean, var = moments(spec)
    draws = sample_array(spec, rng_from(seed), 200_000)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - mean) < 4 * se


# --- absolute moments -----------------------------------------------------

def test_abs_moment_standard_normal_fourth():
    val = abs_moment(DistributionSpec.gaussian(0.0, 1.0), 4.0)
    assert val == pytest.approx(3.0, rel=1e-6)


def test_abs_moment_two_point_unit():
    assert abs_moment(DistributionSpec.two_point(-1.0, 0.5, 1.0), 4.0) == 1.0


def test_abs_moment_gaussian_shift_vs_monte_carlo():
    # independent oracle: 1e7 draws of (|Z|+1)^4.5 for Z ~ N(1, 0.5)
    spec = DistributionSpec.gaussian(1.0, 0.5)
    draws = sample_array(spec, rng_from(123), 10**7)
    mc = np.mean((np.abs(draws) + 1.0) ** 4.5)
    assert abs_moment(spec, 4.5, 1.0) == pytest.approx(mc, rel=0.01)


def test_abs_moment_uniform_closed_form_vs_quadrature():
    spec = DistributionSpec.uniform(-0.7, 2.3)
    alpha, shift = 3.5, 0.25
    val = abs_moment(spec, alpha, shift)
    # 40-point Gauss-Legendre on each side of the kink at 0, where the integrand is smooth
    nodes, weights = np.polynomial.legendre.leggauss(40)
    num = sum(
        (b - a) / 2 * weights @ ((np.abs((a + b) / 2 + (b - a) / 2 * nodes) + shift) ** alpha / 3.0)
        for a, b in ((-0.7, 0.0), (0.0, 2.3))
    )
    assert val == pytest.approx(num, rel=1e-9)


def test_abs_moment_student_t_requires_alpha_below_dof():
    with pytest.raises(MomentError, match="alpha < dof"):
        abs_moment(DistributionSpec.student_t(5.0, 1.0), 5.0)
    with pytest.raises(MomentError, match="alpha < dof"):
        abs_moment(DistributionSpec.student_t(4.0, 1.0, 1.0), 4.5)


def test_abs_moment_student_t_vs_monte_carlo():
    spec = DistributionSpec.student_t(5.0, 0.3872983346207417, 1.0)
    draws = sample_array(spec, rng_from(9), 10**7)
    mc = np.mean((np.abs(draws) + 1.0) ** 4.5)
    # heavy tail: align only loosely but well within the same magnitude
    assert abs_moment(spec, 4.5, 1.0) == pytest.approx(mc, rel=0.05)


@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec.gaussian(1.0, 0.5),
        DistributionSpec.gaussian(-2.0, 1.7),
        DistributionSpec.uniform(-1.0, 3.0),
        DistributionSpec.two_point(-1.5, 0.25, 0.5),
        DistributionSpec.student_t(5.0, 0.7, 0.3),
    ],
)
def test_abs_moment_alpha2_matches_second_moment(spec):
    mean, var = moments(spec)
    assert abs_moment(spec, 2.0) == pytest.approx(mean**2 + var, rel=1e-6)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize(
    "spec,seed",
    [
        (DistributionSpec.gaussian(0.4, 1.2), 100),
        (DistributionSpec.uniform(-2.0, 1.0), 200),
    ],
)
def test_abs_moment_within_3se_of_empirical(spec, seed, alpha):
    draws = np.abs(sample_array(spec, rng_from(seed + int(alpha * 10)), 10**6)) ** alpha
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - abs_moment(spec, alpha)) < 3 * se


# laws narrow against their distance from 0, and wide ones: the quadrature
# runs in the standardized variable, so its accuracy does not depend on either
NARROW_AND_FAR = [
    DistributionSpec.gaussian(1.0, 1e-3),
    DistributionSpec.gaussian(1000.0, 1e-3),
    DistributionSpec.gaussian(0.0, 1e-6),
    DistributionSpec.gaussian(5.0, 0.01),
    DistributionSpec.gaussian(-3.0, 1e-12),
    DistributionSpec.gaussian(1e-3, 1e4),
    DistributionSpec.student_t(5.0, 1e-3, 1.0),
    DistributionSpec.student_t(4.6, 1e-6, -1000.0),
    DistributionSpec.student_t(30.0, 1e3, 2.0),
]


@pytest.mark.parametrize("spec", NARROW_AND_FAR)
def test_abs_moment_alpha2_of_narrow_and_far_laws(spec):
    mean, var = moments(spec)
    assert abs_moment(spec, 2.0) == pytest.approx(mean**2 + var, rel=1e-12)


def gaussian_centered_abs_moment(sd, alpha):
    """E|sd Z|^alpha for Z standard normal."""
    return sd**alpha * 2.0 ** (alpha / 2.0) * math.gamma((alpha + 1.0) / 2.0) / math.sqrt(math.pi)


def student_t_centered_abs_moment(dof, scale, alpha):
    """E|scale T|^alpha for T standard Student-t with dof > alpha degrees."""
    return (scale**alpha * dof ** (alpha / 2.0) * math.gamma((alpha + 1.0) / 2.0)
            * math.gamma((dof - alpha) / 2.0) / (math.sqrt(math.pi) * math.gamma(dof / 2.0)))


@pytest.mark.parametrize("sd", [1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("alpha", [1.0, 2.5, 4.5, 7.0])
def test_abs_moment_centered_gaussian_closed_form(sd, alpha):
    want = gaussian_centered_abs_moment(sd, alpha)
    assert abs_moment(DistributionSpec.gaussian(0.0, sd), alpha) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.5, 4.5])
@pytest.mark.parametrize("gap, rel", [(3.0, 1e-12), (0.5, 1e-12), (0.1, 1e-9), (0.01, 1e-6)])
@pytest.mark.parametrize("scale", [1e-3, 1.0])
def test_abs_moment_centered_student_t_near_its_last_moment(alpha, gap, rel, scale):
    # dof = alpha + gap: the integrand's singularity at the tails sharpens as gap -> 0
    dof = alpha + gap
    want = student_t_centered_abs_moment(dof, scale, alpha)
    assert abs_moment(DistributionSpec.student_t(dof, scale), alpha) == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("dof", [5e5, 1e6, 1e15])
def test_abs_moment_student_t_at_large_dof(dof):
    # far from 0 and nearly gaussian: in theta = atan(z) the density has no
    # spike for the rule's steps to miss, and its normalizer does not cancel
    spec = DistributionSpec.student_t(dof, 1.0, 1000.0)
    assert abs_moment(spec, 2.0) == pytest.approx(1000.0**2 + dof / (dof - 2.0), rel=1e-12)


def test_abs_moment_raises_rather_than_return_unconverged_sums():
    # E|Z|^2000 is about 1e2870, past float range: every sum overflows, and
    # sums that are inf (or nan, or 0) never agree, so none is returned
    with pytest.raises(MomentError, match="did not agree"):
        abs_moment(DistributionSpec.gaussian(0.0, 1.0), 2000.0)


def test_abs_moment_rejects_bad_args():
    spec = DistributionSpec.gaussian(0.0, 1.0)
    with pytest.raises(ValueError):
        abs_moment(spec, 0.5)
    with pytest.raises(ValueError):
        abs_moment(spec, 2.0, -1.0)


# --- summaries and tail moments --------------------------------------------

def test_moment_summary_jensen_and_shift_ordering():
    spec = DistributionSpec.gaussian(1.0, 0.5)
    ms = moment_summary(spec, 4.5)
    assert ms.abs_moment_alpha >= abs(ms.mean) ** 4.5
    assert ms.shifted_abs_moment_alpha >= ms.abs_moment_alpha
    assert ms.stddev == 0.5


def test_gain_tail_moment_floor():
    # a point mass at 0 has tiny shifted moment; feasibility's floor of 2 applies
    from zoomctl.analysis import feasibility
    from zoomctl.codec import StrategyParams

    spec = DistributionSpec.two_point(0.0, 1.0, 1.0)
    assert moment_summary(spec, 4.5).shifted_abs_moment_alpha < 2.0
    params = StrategyParams(L=8, P=2.0, M0=1.0, K=2.0, c=0.2)
    report = feasibility(params, moment_summary(spec, 4.5),
                         moment_summary(DistributionSpec.gaussian(0.0, 1.0), 4.5), 4.5)
    assert report.m_alpha == 2.0


def test_noise_tail_moment_standard_normal():
    # E|Z|^4.5 for Z ~ N(0,1): 2^(4.5/2) * Gamma(2.75) / sqrt(pi)
    want = 2.0 ** (4.5 / 2.0) * math.gamma((4.5 + 1.0) / 2.0) / math.sqrt(math.pi)
    assert moment_summary(DistributionSpec.gaussian(0.0, 1.0), 4.5).abs_moment_alpha == pytest.approx(
        want, rel=1e-6
    )


def test_central_moments_match_empirical():
    spec = DistributionSpec.student_t(7.0, 1.3, 2.0)
    draws = sample_array(spec, rng_from(5), 2_000_000)
    centered = draws - draws.mean()
    assert central_moment(spec, 2) == pytest.approx(np.mean(centered**2), rel=0.02)
    assert central_moment(spec, 4) == pytest.approx(np.mean(centered**4), rel=0.1)
    assert central_moment(spec, 3) == 0.0


def test_central_moment_student_t_domain():
    with pytest.raises(MomentError):
        central_moment(DistributionSpec.student_t(4.0, 1.0), 4)


# --- property tests --------------------------------------------------------

finite_means = st.floats(-5.0, 5.0, allow_nan=False)
pos_scales = st.floats(0.05, 5.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(mean=finite_means, sd=pos_scales, alpha=st.floats(1.0, 5.0), shift=st.floats(0.0, 3.0))
def test_gaussian_abs_moment_monotone_in_shift(mean, sd, alpha, shift):
    spec = DistributionSpec.gaussian(mean, sd)
    assert abs_moment(spec, alpha, shift) <= abs_moment(spec, alpha, shift + 0.5) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    v1=finite_means, v2=finite_means, p=st.floats(0.0, 1.0),
    alpha=st.floats(1.0, 6.0), shift=st.floats(0.0, 2.0),
)
def test_two_point_abs_moment_closed_form(v1, v2, p, alpha, shift):
    spec = DistributionSpec.two_point(v1, p, v2)
    want = p * (abs(v1) + shift) ** alpha + (1 - p) * (abs(v2) + shift) ** alpha
    assert abs_moment(spec, alpha, shift) == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), kind=st.sampled_from(["gaussian", "uniform", "two_point", "student_t"]))
def test_stream_reproducibility_all_kinds(seed, kind):
    spec = {
        "gaussian": DistributionSpec.gaussian(0.5, 2.0),
        "uniform": DistributionSpec.uniform(-1.0, 4.0),
        "two_point": DistributionSpec.two_point(-1.0, 0.3, 2.0),
        "student_t": DistributionSpec.student_t(5.0, 1.0, 0.0),
    }[kind]
    assert np.array_equal(
        sample_array(spec, rng_from(seed), 50), sample_array(spec, rng_from(seed), 50)
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    kind=st.sampled_from(["gaussian", "uniform", "two_point", "student_t"]),
    sizes=st.lists(st.integers(0, 300), max_size=8),
)
def test_blocked_draws_equal_one_call(seed, kind, sizes):
    # the engine draws each trial's disturbances one time block at a time
    spec = {
        "gaussian": DistributionSpec.gaussian(0.5, 2.0),
        "uniform": DistributionSpec.uniform(-1.0, 4.0),
        "two_point": DistributionSpec.two_point(-1.0, 0.3, 2.0),
        "student_t": DistributionSpec.student_t(2.5, 1.0, 0.0),
    }[kind]
    whole_rng = rng_from(seed)
    whole = sample_array(spec, whole_rng, sum(sizes))
    rng = rng_from(seed)
    blocks = [sample_array(spec, rng, n) for n in sizes]
    assert np.array_equal(np.concatenate([whole[:0]] + blocks), whole)
    # and leaves the generator where one call does
    assert rng.bit_generator.state == whole_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "two_point", "student_t"])
def test_sample_rows_equal_sample_array_per_row(kind):
    spec = {
        "gaussian": DistributionSpec.gaussian(0.3, 1.7),
        "uniform": DistributionSpec.uniform(-1.0, 4.0),
        "two_point": DistributionSpec.two_point(-1.0, 0.3, 2.0),
        "student_t": DistributionSpec.student_t(2.5, 1.3, 0.2),
    }[kind]
    # the engine's disturbance block: the first columns of a wider buffer,
    # as in a last, shorter time block; a second block continues each stream
    buf = np.full((5, 40), np.nan)
    rngs = [rng_from([3, j]) for j in range(5)]
    refs = [rng_from([3, j]) for j in range(5)]
    for n in (23, 40):
        sample_rows(spec, rngs, buf[:, :n])
        for j, ref in enumerate(refs):
            assert np.array_equal(buf[j, :n].view(np.int64), sample_array(spec, ref, n).view(np.int64))
            assert rngs[j].bit_generator.state == ref.bit_generator.state
        assert np.isnan(buf[:, n:]).all()
