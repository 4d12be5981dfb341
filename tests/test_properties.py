"""Property-based checks of the divergence bounds and conversions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from amplify_acct.accountant import (
    Bis,
    Gaussian,
    PoissonGaussian,
    rdp_curve,
    scale_curve,
    to_delta,
    to_dp,
)
from amplify_acct.rdp_math import (
    MixtureFamily,
    epsilon_loose,
    epsilon_tight,
    family_mixture,
    forward_bound,
    forward_exact_enum,
    forward_exact_k1_curve,
    reverse_bound,
)
from amplify_acct.rdp_math import _not_a_knot_spline, _TwoHotReverse

@st.composite
def family_strategy(draw, max_d=12, max_c=4.0, min_sigma=0.3, max_sigma=4.0):
    d = draw(st.integers(1, max_d))
    k = draw(st.integers(1, d))
    c = draw(st.floats(0.0, max_c))
    sigma = draw(st.floats(min_sigma, max_sigma))
    return MixtureFamily(d, k, c, sigma)


families = family_strategy()
small_families = family_strategy(max_d=6, max_c=3.0, min_sigma=0.4, max_sigma=3.0)

orders = st.integers(2, 100)


@settings(max_examples=150, deadline=None)
@given(families, orders, orders)
def test_loose_monotone_in_order(family, a1, a2):
    lo, hi = sorted((a1, a2))
    assert epsilon_loose(family, lo) <= epsilon_loose(family, hi) + 1e-9


@settings(max_examples=50, deadline=None)
@given(small_families, st.integers(2, 12), st.integers(2, 12))
def test_tight_monotone_in_order(family, a1, a2):
    lo, hi = sorted((a1, a2))
    assert epsilon_tight(family, lo)[0] <= epsilon_tight(family, hi)[0] + 1e-9


@settings(max_examples=150, deadline=None)
@given(families, orders, st.floats(0.0, 3.0), st.floats(0.1, 2.0))
def test_loose_monotone_in_scale(family, alpha, c_lo, bump):
    lower = MixtureFamily(family.d, family.k, c_lo, family.sigma)
    higher = MixtureFamily(family.d, family.k, c_lo + bump, family.sigma)
    assert epsilon_loose(lower, alpha) <= epsilon_loose(higher, alpha) + 1e-9


@settings(max_examples=150, deadline=None)
@given(families, orders, st.floats(0.4, 3.0), st.floats(0.1, 2.0))
def test_loose_antitone_in_noise(family, alpha, sigma_lo, bump):
    noisier = MixtureFamily(family.d, family.k, family.c, sigma_lo + bump)
    quieter = MixtureFamily(family.d, family.k, family.c, sigma_lo)
    assert epsilon_loose(noisier, alpha) <= epsilon_loose(quieter, alpha) + 1e-9


@settings(max_examples=150, deadline=None)
@given(families, orders, st.floats(0.05, 40.0))
def test_scale_invariance(family, alpha, t):
    scaled = MixtureFamily(family.d, family.k, t * family.c, t * family.sigma)
    base = epsilon_loose(family, alpha)
    assert epsilon_loose(scaled, alpha) == pytest.approx(base, rel=1e-9, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(small_families, st.integers(2, 6))
def test_exact_forward_below_bound(family, alpha):
    assume(family.k == 1 or math.comb(family.d, family.k) ** alpha <= 10**7)
    exact = (
        forward_exact_k1_curve(family.d, family.c, family.sigma, 1.0, [alpha])[0]
        if family.k == 1
        else forward_exact_enum(family_mixture(family), alpha)
    )
    assert exact <= forward_bound(family, alpha) + 1e-9


@settings(max_examples=80, deadline=None)
@given(small_families, st.integers(2, 8))
def test_tight_below_loose(family, alpha):
    assert epsilon_tight(family, alpha)[0] <= epsilon_loose(family, alpha) + 1e-12


@settings(max_examples=80, deadline=None)
@given(small_families)
def test_order2_bound_is_exact(family):
    exact = (
        forward_exact_k1_curve(family.d, family.c, family.sigma, 1.0, [2])[0]
        if family.k == 1
        else forward_exact_enum(family_mixture(family), 2)
    )
    assert forward_bound(family, 2) == pytest.approx(exact, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.floats(0.0, 3.0), st.floats(0.4, 3.0), st.integers(2, 40))
def test_gaussian_reduction_all_paths(d, c, sigma, alpha):
    family = MixtureFamily(1, 1, c, sigma)
    expected = alpha * c * c / (2 * sigma * sigma)
    assert forward_bound(family, alpha) == pytest.approx(expected, abs=1e-12)
    assert reverse_bound(family, alpha) == pytest.approx(expected, abs=1e-12)
    assert epsilon_tight(family, alpha)[0] == pytest.approx(expected, abs=1e-12)
    full = MixtureFamily(d, d, c, sigma)
    assert epsilon_loose(full, alpha) == pytest.approx(d * expected, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 4.0), st.floats(0.01, 1.0), st.integers(1, 200), orders)
def test_poisson_below_gaussian_and_monotone(sigma, gamma, count, alpha):
    sub = rdp_curve(PoissonGaussian(c=1, sigma=sigma, gamma=gamma), orders=(alpha,))
    plain = rdp_curve(Gaussian(c=1, sigma=sigma), orders=(alpha,))
    assert sub.epsilons[0] <= plain.epsilons[0] + 1e-9
    doubled = rdp_curve(PoissonGaussian(c=1, sigma=sigma, gamma=min(1.0, 2 * gamma)), orders=(alpha,))
    assert sub.epsilons[0] <= doubled.epsilons[0] * (1 + 1e-12)
    assert scale_curve(sub, count).epsilons[0] == pytest.approx(count * sub.epsilons[0], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.floats(0.3, 3.0))
def test_composition_linearity(count_a, count_b, sigma):
    curve = rdp_curve(Gaussian(c=1, sigma=sigma), orders=(2, 17))
    total = scale_curve(curve, count_a + count_b)
    parts = scale_curve(curve, count_a).epsilons + scale_curve(curve, count_b).epsilons
    assert np.allclose(total.epsilons, parts, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.4, 4.0), st.floats(1e-9, 0.5), st.integers(1, 500))
def test_conversion_consistency(sigma, delta, count):
    curve = scale_curve(rdp_curve(Gaussian(c=1, sigma=sigma)), count)
    eps = to_dp(curve, delta).epsilon
    assert to_delta(curve, eps) <= delta * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.floats(0.5, 3.0), orders)
def test_bis_curves_monotone_in_order_prefix(T, sigma, alpha):
    assume(alpha > 2)
    k = max(1, T // 3)
    curve = rdp_curve(Bis(T=T, k=k, c=1, sigma=sigma), orders=tuple(range(2, alpha + 1)))
    assert np.all(np.diff(curve.epsilons) >= -1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 15),
    st.floats(0.01, 0.3),
    st.floats(2e3, 1e6),
    st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
    st.floats(0.0, 1.0),
)
def test_spline_reproduces_cubics_across_the_step_change(d, s, t_max, coeffs, frac):
    # Not-a-knot splines are exact on cubics; the grid switches from step h
    # to 4h (t_max above the excess-form limit), and three columns share it.
    xi = _TwoHotReverse(d, s)._grids(t_max)[0]
    assert len(set(np.round(np.diff(xi), 12))) == 2
    poly = np.array(coeffs).reshape(4, 3)
    mid = 0.5 * (xi[0] + xi[-1])

    def cubic(x):
        return sum(poly[p] * (x[:, None] - mid) ** p for p in range(4))

    c = _not_a_knot_spline(xi, cubic(xi))
    dx = frac * np.diff(xi)
    spline = ((c[0] * dx[:, None] + c[1]) * dx[:, None] + c[2]) * dx[:, None] + c[3]
    truth = cubic(xi[:-1] + dx)
    assert np.max(np.abs(spline - truth)) <= 1e-12 * max(1.0, np.max(np.abs(truth)))
