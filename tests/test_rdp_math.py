import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from amplify_acct.rdp_math import (
    CostLimitError,
    GenericMixture,
    MixtureFamily,
    epsilon_loose,
    epsilon_tight,
    family_mixture,
    forward_bound,
    forward_exact,
    forward_exact_enum,
    gaussian_rdp,
    reverse_bound,
    reverse_bound_curve,
    validate_order,
)
from amplify_acct.rdp_math import (
    _ENUM_CHUNK,
    _EXP_ZERO,
    _forward_exact_overlap,
    _forward_fallback_curve,
    _k1_sum_tables,
    _log_poly_mul,
    _logsumexp,
    _order_ints,
    _overlap_counts,
    _overlap_log_weights,
    _TwoHotReverse,
    forward_exact_k1_curve,
    forward_poisson_cap_curve,
    log_comb,
)
from amplify_acct import rdp_math
from reference_formulas import (
    DivergenceUndefinedError,
    forward_exact_k1_curve_per_call,
    gaussian_rdp_same_mean,
    log_poly_mul_per_product,
    logsumexp_masked_copy,
    overlap_log_weights_comb,
    reverse_bound_paper,
)

E = math.e


def naive_enum_forward(centers, weights, sigma, alpha):
    """Plain-python tuple enumeration, independent of the library's chunked path."""
    n = len(centers)
    total = 0.0
    for tup in itertools.product(range(n), repeat=alpha):
        pair_sum = 0.0
        for i in range(alpha):
            for j in range(alpha):
                if i != j:
                    pair_sum += float(np.dot(centers[tup[i]], centers[tup[j]]))
        weight = 1.0
        for idx in tup:
            weight *= weights[idx]
        total += weight * math.exp(pair_sum / (2.0 * sigma**2))
    return math.log(total) / (alpha - 1)


class TestValidateOrder:
    def test_accepts_integers_and_integral_floats(self):
        assert validate_order(2) == 2
        assert validate_order(100.0) == 100

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, 1.99])
    def test_rejects_non_orders(self, bad):
        with pytest.raises(ValueError):
            validate_order(bad)


class TestGaussianRdp:
    def test_unit_case(self):
        assert gaussian_rdp(1, 1, 2) == 1.0

    def test_zero_shift(self):
        assert gaussian_rdp(0, 3, 50) == 0.0

    def test_scaled(self):
        assert gaussian_rdp(2, 2, 10) == 5.0

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_rdp(1, 0, 2)


class TestForwardBound:
    def test_single_component_is_gaussian(self):
        assert forward_bound(MixtureFamily(1, 1, 1, 1), 2) == pytest.approx(1.0, abs=1e-12)

    def test_two_component_closed_form(self):
        # At order 2 the bound coincides with the exact enumeration value.
        assert forward_bound(MixtureFamily(2, 1, 1, 1), 2) == pytest.approx(math.log((E + 1) / 2), rel=1e-12)

    def test_full_participation(self):
        assert forward_bound(MixtureFamily(5, 5, 1, 1), 3) == pytest.approx(7.5, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 10, 1000])
    def test_matches_one_hot_closed_form(self, d):
        for alpha in (2, 5, 20):
            expected = math.log((math.exp(alpha / 2) + d - 1) / d)
            assert forward_bound(MixtureFamily(d, 1, 1, 1), alpha) == pytest.approx(expected, rel=1e-12)

    def test_k_near_d_takes_exact_binomials(self):
        # Order 2 is exact; min(k, d - k) = 1 keeps the weights on integer binomials.
        family = MixtureFamily(2000, 1999, 1, 30)
        exact = _forward_exact_overlap(family, [2])[0]
        assert abs(forward_bound(family, 2) - exact) <= math.ulp(exact)

    def test_no_overflow_huge_parameters(self):
        value = forward_bound(MixtureFamily(10**6, 10, 10, 1), 1000)
        assert math.isfinite(value) and value > 0


class TestReverseBound:
    # The paper's closed form survives as the labelled test-only reference
    # ``reference_formulas.reverse_bound_paper``; these pin its formula and
    # numerics.
    def test_closed_form_order2(self):
        expected = 0.5 + 0.5 * math.log(E / (2 * math.exp(0.25) - 1) ** 2)
        assert reverse_bound_paper(MixtureFamily(2, 1, 1, 1), 2) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_order3(self):
        expected = 0.75 + 0.25 * math.log(E**1.5 / (3 * math.exp(0.25) - 2) ** 2)
        assert reverse_bound_paper(MixtureFamily(2, 1, 1, 1), 3) == pytest.approx(expected, rel=1e-12)

    def test_full_participation_kills_log_term(self):
        assert reverse_bound(MixtureFamily(7, 7, 1, 1), 4) == pytest.approx(14.0, abs=1e-12)

    def test_zero_scale(self):
        for d, k, alpha in [(3, 1, 2), (5, 2, 17)]:
            assert reverse_bound(MixtureFamily(d, k, 0.0, 2.0), alpha) == 0.0

    def test_tiny_exponent_stays_positive(self):
        # x = c^2 k (d-k) / (sigma^2 d^2) ~ 1e-6 here; the expm1 form keeps
        # the log term from collapsing to 0/0 noise.
        value = reverse_bound_paper(MixtureFamily(10**6, 1, 1, 1), 64)
        naive_first = 64 / (2 * 10**6)
        assert value >= naive_first
        assert math.isfinite(value)

    def test_matches_naive_formula_at_moderate_x(self):
        family = MixtureFamily(4, 2, 1.5, 1.0)
        alpha = 6
        x = family.c**2 * family.k * (family.d - family.k) / (family.sigma**2 * family.d**2)
        naive = (
            alpha * family.c**2 * family.k**2 / (2 * family.sigma**2 * family.d)
            + (alpha * family.d * x - family.d * math.log(alpha * math.exp(x) + 1 - alpha)) / (2 * (alpha - 1))
        )
        assert reverse_bound_paper(family, alpha) == pytest.approx(naive, rel=1e-13)


def laplace_reverse_mpmath(d, s, alpha, dps=20):
    """The one-hot reverse divergence as its Laplace integral, in 20-digit arithmetic.

    E[S^-m] = 1 + Gamma(m)^-1 int t^(m-1) e^-t expm1(d log E e^(-u(Y-1))) dt,
    u = t/d, Y = exp(s Z - s^2/2): Gauss-Legendre in t, a trapezoid rule in z.
    """
    import mpmath as mp

    mp.mp.dps = dps
    s, m = mp.mpf(s), alpha - 1
    hz = mp.mpf(1) / 4
    zs = [-10 + hz * i for i in range(int((2 * s + 20) / hz) + 1)]
    ys = [mp.expm1(s * z - s * s / 2) for z in zs]
    ws = [hz * mp.npdf(z) for z in zs]

    def integrand(t):
        u = t / d
        h = mp.fsum(w * (mp.expm1(-u * y) + u * y) for w, y in zip(ws, ys))
        return mp.exp((m - 1) * mp.log(t) - t - mp.loggamma(m)) * mp.expm1(d * mp.log1p(h))

    c, r = mp.mpf(m + 2), 9 * mp.sqrt(m + 2)
    j = mp.quad(integrand, [max(0, c - r), c, c + r, c + 3 * r + 40], method="gauss-legendre")
    return float(mp.log1p(j) / m)


class TestReverseBoundQuadrature:
    def test_counterexample_cell_is_covered(self):
        # The paper's formula gives 0.5501667 here; the true value is 0.5690426.
        from amplify_acct.oracles import point_mixture, quad_renyi

        family = MixtureFamily(2, 1, 1, 1)
        truth = quad_renyi(point_mixture(np.zeros(2), 1.0), family_mixture(family), 2)
        assert truth == pytest.approx(0.5690426, abs=1e-6)
        assert reverse_bound(family, 2) == pytest.approx(truth, rel=1e-9)
        assert reverse_bound_paper(family, 2) == pytest.approx(0.5501667, abs=1e-6)

    @pytest.mark.parametrize("c,sigma", [(1.0, 1.0), (3.0, 0.4), (0.2, 2.0)])
    def test_single_block_and_full_participation_are_gaussian(self, c, sigma):
        for alpha in (2, 7, 100):
            expected = alpha * c * c / (2 * sigma * sigma)
            assert reverse_bound(MixtureFamily(1, 1, c, sigma), alpha) == pytest.approx(expected, abs=1e-12)
            assert reverse_bound(MixtureFamily(6, 6, c, sigma), alpha) == pytest.approx(6 * expected, rel=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("alpha", [2, 64])
    def test_large_d_matches_mpmath_laplace_integral(self, s, alpha):
        value = reverse_bound(MixtureFamily(10**6, 1, s, 1.0), alpha)
        assert value == pytest.approx(laplace_reverse_mpmath(10**6, s, alpha), rel=1e-9)

    def test_complement_identity(self):
        # k = d-1 is the reflected one-hot family, shifted along the all-ones axis.
        for alpha in (2, 5, 30):
            one_hot = reverse_bound(MixtureFamily(5, 1, 1.3, 1.0), alpha)
            expected = one_hot + alpha * 1.3**2 * (2 * 4 - 5) / 2
            assert reverse_bound(MixtureFamily(5, 4, 1.3, 1.0), alpha) == pytest.approx(expected, rel=1e-12)

    def test_curve_matches_single_orders(self):
        family = MixtureFamily(2000, 655, 1.0, 10.17)
        orders = list(range(2, 101))
        curve = reverse_bound_curve(family, orders)
        for i in (0, 7, 50, 98):
            assert curve[i] == pytest.approx(reverse_bound(family, orders[i]), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 9, 1000, 10**6])
    @pytest.mark.parametrize("ratio", [1e-6, 0.05, 1.0, 7.5, 15.0, 40.0])
    def test_finite_monotone_and_below_am_gm(self, d, ratio):
        orders = [2, 3, 10, 100, 1000]
        values = reverse_bound_curve(MixtureFamily(d, 1, ratio, 1.0), orders)
        assert np.all(np.isfinite(values)) and np.all(values >= 0)
        assert np.all(np.diff(values) >= -1e-12 * values[1:])
        am_gm = (np.array(orders) + d - 1) * ratio**2 / (2 * d)
        assert np.all(values <= am_gm * (1 + 1e-12))


def gauss_hermite_two_hot_reverse(d, s, alpha, nodes=12):
    """The two-hot reverse divergence by tensor Gauss-Hermite cubature in d dimensions."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    z = np.stack([g.ravel() for g in np.meshgrid(*([x] * d), indexing="ij")], axis=1)
    weights = np.prod(np.stack([g.ravel() for g in np.meshgrid(*([w] * d), indexing="ij")], axis=1), axis=1)
    y = np.exp(s * z - s * s / 2)
    total = y.sum(axis=1)
    ratio = (total * total - (y * y).sum(axis=1)) / (d * (d - 1))  # e2(y) / C(d, 2)
    return math.log(float(np.dot(weights, ratio ** (1 - alpha)))) / (alpha - 1)


class TestTwoHotReverse:
    # When k does not divide d the block bound is above the truth at leading
    # order in c/sigma; two-hot families with odd d are computed exactly.

    @pytest.mark.parametrize("s", [0.01, 0.1, 0.3])
    def test_recursion_matches_complement_identity_at_d3(self, s):
        # At d = 3 the two-hot family is the reflected one-hot one.
        orders = np.array([2, 3, 10, 50, 100])
        two_hot = _TwoHotReverse(3, s).divergences(orders - 1.0)
        one_hot = reverse_bound_curve(MixtureFamily(3, 1, s, 1.0), orders)
        assert two_hot == pytest.approx(one_hot + orders * s * s / 2, rel=3e-6)

    @pytest.mark.parametrize("sigma", [4.0, 5.0])
    def test_matches_gauss_hermite_cubature_at_d5(self, sigma):
        for alpha in (2, 3, 4):
            truth = gauss_hermite_two_hot_reverse(5, 1 / sigma, alpha)
            value = reverse_bound(MixtureFamily(5, 2, 1.0, sigma), alpha)
            assert truth * (1 - 1e-9) <= value <= truth * (1 + 3e-5)
            # The complementary 3-hot family shares the value, shifted.
            shifted = reverse_bound(MixtureFamily(5, 3, 1.0, sigma), alpha)
            assert shifted == pytest.approx(value + alpha / (2 * sigma * sigma), rel=1e-12)

    def test_below_block_bound_and_poisson_where_block_is_not(self):
        # Bis(5, 2) at sigma=4: the block bound sums one-hot blocks of sizes 2, 3.
        family = MixtureFamily(5, 2, 1.0, 4.0)
        orders = [2, 3]
        block = reverse_bound_curve(MixtureFamily(2, 1, 1.0, 4.0), orders) + reverse_bound_curve(
            MixtureFamily(3, 1, 1.0, 4.0), orders
        )
        exact = reverse_bound_curve(family, orders)
        poisson = forward_poisson_cap_curve(family, orders)
        assert np.all(exact < poisson) and np.all(poisson < block)
        assert exact[0] == pytest.approx(0.0506789428, rel=2e-5)  # 5-D Gauss-Hermite value

    def test_guards_fall_back_to_the_block_bound(self):
        # Beyond the cost guards (d <= 15, 0.01 <= c/sigma <= 0.3) the block bound stands.
        for d, sigma in ((17, 4.0), (5, 2.0), (5, 200.0)):
            q = d // 2
            block = reverse_bound_curve(MixtureFamily(q, 1, 1.0, sigma), [2]) + reverse_bound_curve(
                MixtureFamily(q + 1, 1, 1.0, sigma), [2]
            )
            assert reverse_bound_curve(MixtureFamily(d, 2, 1.0, sigma), [2]) == pytest.approx(block, rel=1e-12)

    def test_rescaled_family_shares_the_value(self):
        family = MixtureFamily(7, 2, 0.3, 1.7)
        rescaled = MixtureFamily(7, 2, 0.3 * 3.3, 1.7 * 3.3)
        assert reverse_bound(rescaled, 5) == reverse_bound(family, 5)


def test_two_hot_path_loads_no_scipy():
    # A fresh interpreter: this process may already hold scipy from other tests.
    src = Path(rdp_math.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from amplify_acct.rdp_math import MixtureFamily, _two_hot_reverse_exact, reverse_bound_curve; "
        "reverse_bound_curve(MixtureFamily(5, 2, 1.0, 4.0), [2, 3]); "
        "print(_two_hot_reverse_exact.cache_info().misses, "
        "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout.strip() == "1 []"  # the two-hot recursion ran once


class TestPoissonGaussianCurve:
    @pytest.mark.parametrize("gamma", [0.01, 0.3275, 0.9, 1.0])
    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_matches_per_order_sum(self, gamma, sigma):
        # Reference: the binomial sum term by term, one order at a time.
        orders = (2, 3, 17, 100)
        theta = 1.0 / (2 * sigma * sigma)
        for alpha, value in zip(orders, forward_exact_k1_curve(1, 1.0, sigma, gamma, orders)):
            terms = [
                math.log(math.comb(alpha, l)) + l * math.log(gamma) + theta * l * (l - 1)
                + ((alpha - l) * math.log1p(-gamma) if alpha > l else 0.0)
                for l in range(alpha + 1)
                if gamma < 1 or l == alpha
            ]
            top = max(terms)
            expected = (top + math.log(math.fsum(math.exp(t - top) for t in terms))) / (alpha - 1)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("gamma", [1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("sigma", [1.0, 3.0, 8.0])
    def test_small_rates_match_mpmath(self, gamma, sigma):
        # At these rates the epsilon is a small difference of terms of order
        # alpha gamma; log(1 - gamma) rounded in double precision, instead of
        # log1p(-gamma), is off by up to 3e-5 relative on it.
        orders = (2, 8, 32, 100)
        for alpha, value in zip(orders, forward_exact_k1_curve(1, 1.0, sigma, gamma, orders)):
            expected = poisson_epsilon_mpmath(gamma, sigma, alpha)
            assert abs(value - expected) <= 1e-9 * expected


def poisson_epsilon_mpmath(gamma, sigma, alpha, dps=50):
    """Poisson-subsampled Gaussian epsilon (c = 1) from the binomial sum in ``dps``-digit arithmetic."""
    import mpmath as mp

    mp.mp.dps = dps
    g, theta = mp.mpf(gamma), 1 / (2 * mp.mpf(sigma) ** 2)
    total = mp.fsum(
        mp.binomial(alpha, l) * (1 - g) ** (alpha - l) * g**l * mp.exp(theta * l * (l - 1)) for l in range(alpha + 1)
    )
    return float(mp.log(total) / (alpha - 1))


class TestPoissonCap:
    @pytest.mark.parametrize("d,k", [(5, 2), (6, 2), (6, 3)])
    def test_enumeration_below_poisson_cap(self, d, k):
        # Negative association: the exact k-hot forward divergence is at most
        # d times the Poisson-subsampled Gaussian at rate k/d.
        for sigma in (0.5, 1.0, 2.0):
            family = MixtureFamily(d, k, 1.0, sigma)
            orders = (2, 3, 4, 5)
            cap = forward_poisson_cap_curve(family, orders)
            for alpha, bound in zip(orders, cap):
                assert forward_exact_enum(family_mixture(family), alpha) <= bound * (1 + 1e-12)

    def test_full_rate_cap_is_the_gaussian(self):
        cap = forward_poisson_cap_curve(MixtureFamily(4, 4, 1.0, 2.0), (2, 9))
        assert cap == pytest.approx([4 * 2 / 8, 4 * 9 / 8], rel=1e-12)

    def test_loose_forward_side_is_capped_for_k_ge_2(self):
        family = MixtureFamily(1000, 100, 1.0, 2.0)
        for alpha in (2, 11, 60):
            capped = min(forward_bound(family, alpha), forward_poisson_cap_curve(family, [alpha])[0])
            assert epsilon_loose(family, alpha) == max(capped, reverse_bound(family, alpha))
        assert forward_poisson_cap_curve(family, [11])[0] < forward_bound(family, 11)


class TestForwardExactEnum:
    def test_point_mass_is_zero(self):
        mixture = GenericMixture(np.zeros((1, 3)), np.ones(1), 2.0)
        for alpha in (2, 7):
            assert forward_exact_enum(mixture, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_two_basis_centers_order2(self):
        mixture = GenericMixture(np.eye(2), np.full(2, 0.5), 1.0)
        assert forward_exact_enum(mixture, 2) == pytest.approx(math.log((E + 1) / 2), rel=1e-12)

    def test_two_basis_centers_order3(self):
        mixture = GenericMixture(np.eye(2), np.full(2, 0.5), 1.0)
        assert forward_exact_enum(mixture, 3) == pytest.approx(0.5 * math.log((E**3 + 3 * E) / 4), rel=1e-12)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(8):
            n = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 4))
            centers = rng.normal(scale=1.2, size=(n, dim))
            weights = rng.random(n)
            weights /= weights.sum()
            sigma = float(rng.uniform(0.6, 2.5))
            alpha = int(rng.integers(2, 7))
            cases.append((centers, weights, sigma, alpha))
        # Two copies of one center and a zero-weight component: the multisets
        # carry runs of 3 or more equal entries, and the last center must vanish.
        centers = np.array([[0.8, 0.0], [0.8, 0.0], [0.0, 1.1], [-0.4, 0.5], [2.0, 2.0]])
        weights = np.array([0.25, 0.15, 0.4, 0.2, 0.0])
        cases += [(centers, weights, 0.9, alpha) for alpha in (3, 5, 6)]
        # Unequal weights, one or two of them zero, and a duplicated center, at
        # every order whose n^alpha tuples fit 4096.
        for _ in range(6):
            n = int(rng.integers(3, 7))
            centers = rng.normal(scale=1.1, size=(n, int(rng.integers(1, 4))))
            centers[1] = centers[0]
            weights = rng.random(n)
            weights[n // 2 + 1 :] = 0.0
            weights /= weights.sum()
            sigma = float(rng.uniform(0.6, 2.5))
            cases += [(centers, weights, sigma, alpha) for alpha in range(2, 7) if n**alpha <= 4096]
        # A single center, and the C(2,2) = 1 center of the two-hot family.
        cases += [(np.array([[0.7, -0.2]]), np.ones(1), 0.8, alpha) for alpha in (2, 5, 9)]
        two_hot = family_mixture(MixtureFamily(2, 2, 1.3, 1.1))
        cases.append((two_hot.centers, two_hot.weights, two_hot.sigma, 12))
        for centers, weights, sigma, alpha in cases:
            expected = naive_enum_forward(centers, weights, sigma, alpha)
            got = forward_exact_enum(GenericMixture(centers, weights, sigma), alpha)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_cost_guard_names_tuple_count(self):
        mixture = GenericMixture(np.eye(10), np.full(10, 0.1), 1.0)
        with pytest.raises(CostLimitError, match=r"10\^8"):
            forward_exact_enum(mixture, 8)

    def test_zero_weight_components_are_dropped(self):
        centers = np.array([[1.0], [50.0]])
        mixture = GenericMixture(centers, np.array([1.0, 0.0]), 1.0)
        assert forward_exact_enum(mixture, 3) == pytest.approx(gaussian_rdp(1, 1, 3), rel=1e-12)

    def test_peak_memory_is_bounded_by_the_chunk(self):
        # 1,565,620 multisets of 3 indices: as one chunk the call peaks near
        # 115 MB, chunked near 10 MB: a few chunk arrays.  tracemalloc traces
        # every itertools tuple, so this test takes seconds.
        family = MixtureFamily(10, 4, 1.0, 2.0)
        mixture = family_mixture(family)
        tracemalloc.start()
        try:
            value = forward_exact_enum(mixture, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * _ENUM_CHUNK * 8
        # The only test cell that spans chunks (12): their log-sums must
        # reduce to the value of the independent overlap counts.
        assert value == pytest.approx(_forward_exact_overlap(family, [3])[0], rel=1e-12)


def brute_overlap_counts(d, k, alpha):
    """{u: N_u} over every alpha-tuple of k-subsets of [d] (as bit masks), u = sum_{i<j} |S_i & S_j|."""
    subsets = [sum(1 << v for v in ones) for ones in itertools.combinations(range(d), k)]
    return Counter(
        sum((a & b).bit_count() for a, b in itertools.combinations(tup, 2))
        for tup in itertools.product(subsets, repeat=alpha)
    )


def guard_cells(max_d):
    """(d, k, orders): the orders of the grid 2..100 whose C(d,k)^alpha tuples fit ENUM_TUPLE_LIMIT."""
    for d in range(1, max_d + 1):
        for k in range(1, d + 1):
            n = math.comb(d, k)
            yield d, k, [a for a in range(2, 101) if n**a <= rdp_math.ENUM_TUPLE_LIMIT]


class TestOverlapCounts:
    def test_counts_equal_brute_force(self):
        cells = 0
        for d in range(1, 7):
            for k in range(1, d + 1):  # k = d included: one center
                counts = _overlap_counts(d, k, 5)
                for alpha in range(2, 6):
                    if math.comb(d, k) ** alpha <= 2 * 10**5:
                        assert counts[alpha] == brute_overlap_counts(d, k, alpha), (d, k, alpha)
                        cells += 1
        assert cells == 81

    def test_counts_sum_to_every_tuple_on_guard_cells(self):
        for d, k, orders in guard_cells(12):
            counts = _overlap_counts(d, k, max(orders))
            for alpha in orders:
                assert sum(counts[alpha].values()) == math.comb(d, k) ** alpha, (d, k, alpha)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.0, 5.0, 10.0])
    def test_kernel_matches_mpmath_sum_of_the_counts(self, sigma):
        import mpmath as mp

        for d, k, orders in guard_cells(8):
            orders = [a for a in orders if a <= 12]
            counts = _overlap_counts(d, k, max(orders))
            values = _forward_exact_overlap(MixtureFamily(d, k, 1.0, sigma), orders)
            with mp.workdps(50):
                rate = mp.mpf(1.0 / (sigma * sigma))  # the kernel's rounded c^2/sigma^2
                for alpha, value in zip(orders, values):
                    moment = sum(ways * mp.exp(rate * u) for u, ways in counts[alpha].items())
                    truth = mp.log(moment / mp.mpf(math.comb(d, k)) ** alpha) / (alpha - 1)
                    assert value == pytest.approx(float(truth), rel=1e-13, abs=1e-300), (d, k, alpha)

    @pytest.mark.parametrize("d,k,alpha", [(10, 4, 3), (3162, 3161, 2)])
    def test_peak_memory_is_below_a_megabyte(self, d, k, alpha):
        # Enumeration peaks near 10 MB at Bis(10, 4), alpha = 3 (115 MB as
        # one chunk), and the 3162-center mixture alone takes 80 MB.
        tracemalloc.start()
        try:
            _, rules = forward_exact(MixtureFamily(d, k, 1.0, 2.0), [alpha])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rules == ("enum",)
        assert peak <= 1 << 20


class TestForwardExactK1:
    def test_single_block_reduces_to_gaussian(self):
        assert forward_exact_k1_curve(1, 1, 1, 1.0, [5])[0] == pytest.approx(2.5, abs=1e-12)

    def test_matches_enum_small(self):
        assert forward_exact_k1_curve(2, 1, 1, 1.0, [3])[0] == pytest.approx(0.5 * math.log((E**3 + 3 * E) / 4), rel=1e-10)

    def test_order2_closed_form(self):
        assert forward_exact_k1_curve(5, 1, 1, 1.0, [2])[0] == pytest.approx(math.log((E + 4) / 5), rel=1e-12)

    @pytest.mark.parametrize("d,alpha", [(2, 2), (3, 4), (4, 6), (6, 5), (5, 8), (2, 20), (3, 12)])
    def test_matches_enumeration_grid(self, d, alpha):
        for ratio in (0.5, 1.0, 2.0):
            series = forward_exact_k1_curve(d, ratio, 1.0, 1.0, [alpha])[0]
            enum = forward_exact_enum(family_mixture(MixtureFamily(d, 1, ratio, 1.0)), alpha)
            assert series == pytest.approx(enum, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_subsampled_split_matches_enumeration(self, d):
        # Weight 1 - gamma on the origin and gamma/d on each c e_v, at every
        # order whose (d + 1)^alpha tuples fit the enumeration budget.
        orders = [alpha for alpha in range(2, 9) if (d + 1) ** alpha <= rdp_math.ENUM_TUPLE_LIMIT]
        centers = np.vstack([np.zeros(d), np.eye(d)])
        for gamma in (0.05, 0.3, 0.9):
            weights = np.concatenate([[1.0 - gamma], np.full(d, gamma / d)])
            for sigma in (0.7, 1.0, 2.0):
                mixture = GenericMixture(centers, weights, sigma)
                for alpha, value in zip(orders, forward_exact_k1_curve(d, 1.0, sigma, gamma, orders)):
                    assert value == pytest.approx(forward_exact_enum(mixture, alpha), rel=1e-11)

    def test_large_d_high_order_is_cheap_and_finite(self):
        value = forward_exact_k1_curve(10**6, 1, 1, 1.0, [100])[0]
        assert math.isfinite(value) and 0 <= value
        # Well below the unamplified Gaussian value.
        assert value < gaussian_rdp(1, 1, 100)


    @pytest.mark.parametrize("d", [1, 2, 3, 8, 1000, 10**6])
    def test_zero_scale_is_exactly_zero(self, d):
        assert np.all(forward_exact_k1_curve(d, 0.0, 1.0, 1.0, range(2, 1001)) == 0.0)

    @pytest.mark.parametrize("d", [2, 8, 1000, 10**6])
    @pytest.mark.parametrize("ratio", [0.125, 1.0, 2.0])
    def test_matches_mpmath_power_series(self, d, ratio):
        orders = (2, 10, 100)
        coeffs = k1_power_series_mpmath(d, ratio, max(orders))
        for alpha, value in zip(orders, forward_exact_k1_curve(d, ratio, 1.0, 1.0, orders)):
            expected = k1_epsilon_mpmath(coeffs, d, alpha)
            # The absolute floor covers the cancellation in
            # lgamma(alpha + 1) + log coefficient - alpha log d near 0.
            assert abs(value - expected) <= 1e-12 * abs(expected) + 1e-14


def k1_power_series_mpmath(d, ratio, amax, dps=50):
    """Coefficients of f(z)^d up to z^amax, f(z) = sum_m z^m exp(theta m (m-1)) / m!.

    One truncated power in 50-digit arithmetic, by J. C. P. Miller's
    recurrence for g = f^d (f_0 = 1): n g_n = sum_k ((d + 1) k - n) f_k g_(n-k).
    """
    import mpmath as mp

    mp.mp.dps = dps
    theta = mp.mpf(ratio) ** 2 / 2
    f = [mp.exp(theta * m * (m - 1)) / mp.factorial(m) for m in range(amax + 1)]
    g = [mp.mpf(1)]
    for n in range(1, amax + 1):
        g.append(mp.fsum(((d + 1) * k - n) * f[k] * g[n - k] for k in range(1, n + 1)) / n)
    return g


def k1_epsilon_mpmath(coeffs, d, alpha):
    import mpmath as mp

    return max(0.0, float((mp.loggamma(alpha + 1) + mp.log(coeffs[alpha]) - alpha * mp.log(d)) / (alpha - 1)))


class TestLogKernels:
    def test_poisson_curve_of_tiny_epsilons_matches_mpmath(self):
        # Per-iteration epsilons near 1e-6: the terms after the largest sum to
        # ~1e-6 of it, which only the log1p form keeps to 1e-11.
        orders = range(2, 101)
        for alpha, value in zip(orders, forward_exact_k1_curve(1, 1.0, 8.0, 0.01, orders)):
            expected = poisson_epsilon_mpmath(0.01, 8.0, alpha, dps=40)
            assert abs(value - expected) <= 1e-11 * expected

    def test_logsumexp_all_minus_inf_rows(self):
        rows = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, math.log(3.0)]])
        out = _logsumexp(rows, axis=1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(math.log(4.0), rel=1e-15)
        assert _logsumexp(np.full(5, -np.inf)) == -np.inf

    def test_logsumexp_axis_none_and_given_axis(self):
        rng = np.random.default_rng(3)
        a = 40.0 * rng.normal(size=(6, 9))
        total = _logsumexp(a)
        assert np.ndim(total) == 0
        top = a.max()
        assert total == pytest.approx(top + math.log(math.fsum(np.exp(a - top).ravel())), rel=1e-14)
        for axis in (0, 1):
            expected = [
                float(row.max() + math.log(math.fsum(np.exp(row - row.max()))))
                for row in np.moveaxis(a, axis, -1)
            ]
            assert _logsumexp(a, axis=axis) == pytest.approx(expected, rel=1e-14)

    def test_logsumexp_single_element(self):
        assert _logsumexp([2.5]) == 2.5
        assert _logsumexp(np.array([[7.25]]), axis=1).tolist() == [7.25]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_logsumexp_over_one_column_is_the_general_path_bit_for_bit(self):
        vals = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -3e300, 5e-324])
        with np.errstate(divide="ignore", invalid="ignore"):
            # Over all entries (axis=None) a length-1 array takes the general path.
            expected = np.array([_logsumexp(np.array([v])) for v in vals]).view(np.uint64)
        for a, axis in ((vals[:, None].copy(), 1), (vals[None, :].copy(), 0), (vals[:, None].copy(), -1)):
            before = a.copy()
            out = _logsumexp(a, axis=axis)
            assert np.array_equal(out.view(np.uint64), expected)
            out[:] = 7.0
            assert np.array_equal(a.view(np.uint64), before.view(np.uint64))

    def test_log_comb_matches_exact_binomials(self):
        for n in (0, 1, 5, 100, 20000):
            k = np.array(sorted({0, min(1, n), n // 3, n // 2, n}))
            expected = [math.log(math.comb(n, int(j))) for j in k]
            # A difference of log-gammas: its error scales with lgamma(n + 1).
            assert log_comb(n, k) == pytest.approx(expected, rel=0, abs=1e-14 * math.lgamma(n + 1) + 1e-15)
        assert log_comb(3, 5) == -np.inf  # k > n: Gamma has a pole at n - k + 1


def run_recording_warnings(fn, *args, **kwargs):
    """(fn's result, sorted messages of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, sorted(str(w.message) for w in caught)


def float_hexes(x):
    """(type, shape, float.hex of every entry): equal only for the same values bit for bit, NaN aside."""
    return type(x), np.shape(x), [float(v).hex() for v in np.ravel(x)]


class TestBitForBitAgainstReference:
    """The one-buffer kernels against the per-call reference bodies in ``reference_formulas``."""

    @staticmethod
    def logsumexp_inputs():
        rng = np.random.default_rng(25)
        a = 30.0 * rng.normal(size=(9, 11))
        a[0, [2, 5, 7]] = a[0].max()  # three tied tops
        a[1, :4] = a[1, 4] = 1.25  # ties below the top
        a[2] = -np.inf  # an all -inf row
        a[3, 3] = np.inf
        a[4, [1, 6]] = np.inf  # two +inf tops
        a[5, 8] = np.nan
        a[6, ::2] = -np.inf
        a[7] = [0.0, -700.0, -708.5, -730.0, -745.0, -745.2, -745.9, -746.0, -746.1, -800.0, -np.inf]
        a[8] = np.nan  # an all-NaN row
        wide = np.concatenate([np.zeros((400, 1)), rng.uniform(-760.0, -700.0, size=(400, 60))], axis=1)
        yield a, (None, 0, 1, -1)
        yield a[[0, 1, 3, 6, 7]], (None, 0, 1)  # no NaN
        yield wide, (None, 0, 1)
        yield 40.0 * rng.normal(size=(3, 4, 5)), (None, 0, 1, 2)
        for zero_d in (np.float64(3.0), np.array(-np.inf), np.array(np.inf), np.array(np.nan), 2.5):
            yield zero_d, (None,)
        yield [1.0, 2.0, 2.0, -5.0], (None, 0)
        yield [[0.5, -np.inf], [3.0, 3.0]], (None, 0, 1)

    def test_logsumexp_matches_the_masked_copy_form(self):
        for a, axes in self.logsumexp_inputs():
            for axis in axes:
                got, got_warnings = run_recording_warnings(_logsumexp, a, axis=axis)
                want, want_warnings = run_recording_warnings(logsumexp_masked_copy, a, axis=axis)
                assert float_hexes(got) == float_hexes(want), (a, axis)
                assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))
                assert got_warnings == want_warnings

    def test_exp_rounds_to_zero_at_and_below_the_skip_threshold(self):
        x = np.linspace(_EXP_ZERO - 50.0, _EXP_ZERO, 200001)
        assert not np.exp(x).any()
        assert np.exp(np.nextafter(-745.0, 0.0)) > 0.0  # the threshold leaves the subnormal range alone

    def test_log_poly_mul_matches_the_per_product_form(self):
        rng = np.random.default_rng(7)
        for n_a, n_b, trunc in ((12, 7, 5), (101, 101, 100), (30, 50, 60), (8, 3, 20), (1, 1, 0)):
            la = 50.0 * rng.normal(size=n_a)
            lb = 50.0 * rng.normal(size=n_b)
            la[::4] = -np.inf
            lb[1::3] = lb[0]
            for x, y in ((la, lb), (la, la), (lb, la)):
                got = _log_poly_mul(x, y, trunc)
                assert float_hexes(got) == float_hexes(log_poly_mul_per_product(x, y, trunc))

    @pytest.mark.parametrize("d", [1, 2, 8, 10**3, 10**6])
    def test_k1_curve_matches_the_per_call_form(self, d):
        for gamma in (1.0, 0.3275, 1e-3):
            for c, sigma in ((1.0, 1.0), (1.0, 0.3), (0.5, 4.0), (3.0, 1.0)):
                for orders in (range(2, 101), (2, 3, 7, 32, 64, 100), [17]):
                    got = forward_exact_k1_curve(d, c, sigma, gamma, orders)
                    want = forward_exact_k1_curve_per_call(d, c, sigma, gamma, orders)
                    assert float_hexes(got) == float_hexes(want), (d, gamma, c, sigma, orders)

    def test_overlap_log_weights_match_the_comb_form(self):
        rng = np.random.default_rng(26)
        cells = [(d, k) for d in range(1, 61) for k in range(d + 1)]
        cells += [(1400, 700), (1401, 700), (2000, 655), (10**6, 700)]
        for d in rng.integers(61, 2001, size=300).tolist():
            cells.append((d, int(rng.integers(0, d + 1))))
        for d, k in cells:
            got = _overlap_log_weights.__wrapped__(d, k)
            assert float_hexes(got) == float_hexes(overlap_log_weights_comb(d, k)), (d, k)

    def test_tables_are_keyed_on_the_orders_alone_and_read_only(self):
        orders = tuple(range(2, 41))
        _order_ints.cache_clear()
        _k1_sum_tables.cache_clear()
        for d, c, sigma, gamma in ((1, 1.0, 2.0, 0.1), (5, 0.7, 1.0, 0.5), (10**4, 2.0, 3.0, 0.01)):
            forward_exact_k1_curve(d, c, sigma, gamma, orders)
            forward_exact_k1_curve(d, c, sigma, gamma, list(orders))
        assert _order_ints.cache_info().currsize == 1
        assert _k1_sum_tables.cache_info().currsize == 1
        for table in (_order_ints(orders), *_k1_sum_tables(orders)):
            with pytest.raises(ValueError):
                table[0] = 0


class TestForwardExactSelector:
    def test_enum_within_the_tuple_budget_then_bound(self):
        # C(5,2) = 10 centers: 10^7 tuples fit ENUM_TUPLE_LIMIT, 10^8 do not.
        family = MixtureFamily(5, 2, 1.0, 2.0)
        values, rules = forward_exact(family, range(2, 10))
        assert rules == ("enum",) * 6 + ("bound",) * 2
        mixture = family_mixture(family)
        for alpha, value in zip(range(2, 8), values[:6]):
            assert value == pytest.approx(forward_exact_enum(mixture, alpha), rel=1e-12)
        assert values[6:].tolist() == _forward_fallback_curve(family, [8, 9]).tolist()

    def test_rules_follow_the_tuple_guard(self):
        # C(10,4) = 210: 210^3 tuples fit, 210^4 do not.  C(2000,1999)^2 =
        # 4e6 fits: an "enum" cell whose mixture alone would take 32 MB.
        bis_10_4 = MixtureFamily(10, 4, 1.0, 2.0)
        assert forward_exact(bis_10_4, range(2, 21))[1] == ("enum",) * 2 + ("bound",) * 17
        values, rules = forward_exact(MixtureFamily(2000, 1999, 1.0, 30.0), [2])
        assert rules == ("enum",)
        # Two 1999-subsets of [2000] share 1999 entries (probability 1/2000)
        # or 1998, and the order-2 moment is E exp((c/sigma)^2 overlap).
        rate = 1.0 / 900.0
        assert values[0] == pytest.approx(1998.0 * rate + math.log1p(math.expm1(rate) / 2000.0), rel=1e-14)

    def test_one_hot_family_takes_the_series(self):
        values, rules = forward_exact(MixtureFamily(7, 1, 1.3, 0.9), [2, 5, 40])
        assert rules == ("k1-series",) * 3
        assert values.tolist() == forward_exact_k1_curve(7, 1.3, 0.9, 1.0, [2, 5, 40]).tolist()


class TestEpsilonTightLoose:
    def test_degenerate_family_equals_gaussian(self):
        family = MixtureFamily(1, 1, 1, 1)
        assert epsilon_loose(family, 2) == pytest.approx(1.0, abs=1e-12)
        assert epsilon_tight(family, 2)[0] == pytest.approx(1.0, abs=1e-12)

    def test_loose_is_max_of_parts(self):
        family = MixtureFamily(2, 1, 1, 1)
        expected = max(forward_bound(family, 2), reverse_bound(family, 2))
        assert epsilon_loose(family, 2) == expected
        assert epsilon_loose(family, 2) == pytest.approx(math.log((E + 1) / 2), rel=1e-12)

    def test_zero_scale(self):
        assert epsilon_loose(MixtureFamily(6, 2, 0.0, 1.0), 9) == 0.0

    def test_tight_forward_dominates_reverse_here(self):
        eps, rule = epsilon_tight(MixtureFamily(2, 1, 1, 1), 3)
        assert rule == "k1-series"
        assert eps == pytest.approx(0.5 * math.log((E**3 + 3 * E) / 4), rel=1e-10)

    def test_tight_enum_path_for_k2(self):
        family = MixtureFamily(4, 2, 1, 1)
        eps, rule = epsilon_tight(family, 2)
        assert rule == "enum"
        expected_forward = naive_enum_forward(family_mixture(family).centers, [1 / 6] * 6, 1.0, 2)
        assert eps == pytest.approx(max(expected_forward, reverse_bound(family, 2)), rel=1e-10)

    def test_tight_degrades_to_bound_with_flag(self):
        eps, rule = epsilon_tight(MixtureFamily(40, 10, 1, 2), 5)
        assert rule == "bound"
        assert eps == pytest.approx(epsilon_loose(MixtureFamily(40, 10, 1, 2), 5), rel=1e-12)

    @pytest.mark.parametrize("d,k", [(1, 1), (3, 1), (4, 2), (5, 5), (12, 3)])
    def test_tight_never_exceeds_loose(self, d, k):
        for alpha in (2, 3, 7, 40):
            family = MixtureFamily(d, k, 1.3, 0.9)
            assert epsilon_tight(family, alpha)[0] <= epsilon_loose(family, alpha) + 1e-12

    def test_scale_invariance(self):
        base = MixtureFamily(7, 2, 1.0, 0.5)
        scaled = MixtureFamily(7, 2, 13.0, 6.5)
        for alpha in (2, 6, 30):
            assert epsilon_loose(base, alpha) == pytest.approx(epsilon_loose(scaled, alpha), rel=1e-12)
            assert epsilon_tight(base, alpha)[0] == pytest.approx(
                epsilon_tight(scaled, alpha)[0], rel=1e-12
            )


class TestGaussianSameMean:
    def test_equal_sigmas_zero(self):
        assert gaussian_rdp_same_mean(1.7, 1.7, 3, 7) == 0.0

    def test_sqrt_e_closed_form(self):
        expected = 0.5 * math.log(E**2 / (2 * E - 1))
        assert gaussian_rdp_same_mean(1.0, math.sqrt(E), 1, 2) == pytest.approx(expected, rel=1e-12)

    def test_dim2_closed_form(self):
        expected = 0.5 * math.log(2**8 / (1 * (2 * 4 - 1) ** 2))
        assert gaussian_rdp_same_mean(1.0, 2.0, 2, 2) == pytest.approx(expected, rel=1e-12)

    def test_undefined_when_order_too_large(self):
        # alpha*sigma_den^2 + (1-alpha)*sigma_num^2 = 2 - 4 < 0
        with pytest.raises(DivergenceUndefinedError):
            gaussian_rdp_same_mean(2.0, 1.0, 1, 2)


class TestFamilyValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(d=0, k=1, c=1, sigma=1),
        dict(d=2, k=0, c=1, sigma=1),
        dict(d=2, k=3, c=1, sigma=1),
        dict(d=2, k=1, c=-1, sigma=1),
        dict(d=2, k=1, c=1, sigma=0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MixtureFamily(**kwargs)

    def test_generic_mixture_weight_checks(self):
        with pytest.raises(ValueError):
            GenericMixture(np.eye(2), np.array([0.6, 0.6]), 1.0)
        with pytest.raises(ValueError):
            GenericMixture(np.eye(2), np.array([1.5, -0.5]), 1.0)
        with pytest.raises(ValueError):
            GenericMixture(np.eye(2), np.array([0.5, 0.5]), 0.0)

    def test_family_mixture_materializes_scaled_binary_vectors(self):
        mixture = family_mixture(MixtureFamily(3, 2, 2.0, 1.0))
        assert mixture.centers.shape == (3, 3)
        assert sorted(tuple(row) for row in mixture.centers.tolist()) == [
            (0.0, 2.0, 2.0),
            (2.0, 0.0, 2.0),
            (2.0, 2.0, 0.0),
        ]
        assert np.allclose(mixture.weights, 1 / 3)


def test_every_export_is_used_outside_the_module():
    # rdp_math exports only names that the rest of the package, scripts/ or
    # perfbench/ use; a name only tests need stays importable unexported.
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "amplify_acct").glob("*.py") if p.name != "rdp_math.py"]
    files += [*(root / "scripts").rglob("*.py"), *(root / "perfbench").rglob("*.py")]
    text = "\n".join(p.read_text() for p in files)
    unused = [name for name in rdp_math.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []


def test_refuted_formula_and_test_only_names_are_gone():
    for name in ("forward_exact_k1", "TightEpsilon", "reverse_bound_paper", "gaussian_rdp_same_mean",
                 "DivergenceUndefinedError"):
        assert not hasattr(rdp_math, name)
