import math
import tracemalloc

import numpy as np
import pytest

from amplify_acct.oracles import (
    _GRID_CHUNK_CELLS,
    McSpec,
    QuadratureSpec,
    _grid_axes,
    grid_spec,
    mc_renyi,
    mixture_logpdf,
    point_mixture,
    quad_renyi,
    verify_dim_reduction,
    verify_offset_identity,
    verify_sandwich,
)
from amplify_acct.rdp_math import (
    CostLimitError,
    GenericMixture,
    MixtureFamily,
    family_mixture,
    forward_exact_enum,
    gaussian_rdp,
)
from reference_formulas import gaussian_rdp_same_mean, mixture_logpdf_direct, quad_renyi_points, reverse_bound_paper

E = math.e

SMALL_MC = McSpec(n_samples=400_000, seed=11)


def two_center_mixture(sigma=1.0):
    return GenericMixture(np.array([[1.0], [-1.0]]), np.full(2, 0.5), sigma)


def with_duplicate_and_zero_weight_center(mixture):
    # The first center twice (weights n/(n+1) of the old ones and 1/(n+1) for
    # the copy) and a far center of weight 0, a -inf column in log space.
    n, d = mixture.centers.shape
    centers = np.vstack([mixture.centers, mixture.centers[:1], np.full((1, d), 3.0 * mixture.sigma)])
    weights = np.concatenate([mixture.weights * n / (n + 1), [1.0 / (n + 1), 0.0]])
    return GenericMixture(centers, weights, mixture.sigma)


class TestMixtureLogpdf:
    def test_single_gaussian_density(self):
        g = point_mixture([0.0, 0.0], 2.0)
        x = np.array([[0.0, 0.0], [1.0, -1.0]])
        expected = -np.array([0.0, 2.0]) / (2 * 4.0) - math.log(2 * math.pi * 4.0)
        assert mixture_logpdf(g, x) == pytest.approx(expected, rel=1e-12)

    def test_mixture_weights_enter(self):
        m = GenericMixture(np.array([[0.0], [10.0]]), np.array([0.25, 0.75]), 1.0)
        at_zero = mixture_logpdf(m, np.array([[0.0]]))[0]
        assert at_zero == pytest.approx(math.log(0.25) - 0.5 * math.log(2 * math.pi), rel=1e-9)

    @pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
    def test_expanded_square_matches_direct_formula(self, d, k):
        # Expanding |x - mu|^2 cancels terms of size |x|^2 / (2 sigma^2);
        # the error stays at a few ulps of 1 + |log density| out to 14 sigma.
        rng = np.random.default_rng(100 * d + k)
        for sigma in (0.5, 1.0, 2.0):
            for ratio in (0.5, 1.0, 2.0):
                family = family_mixture(MixtureFamily(d, k, ratio * sigma, sigma))
                mixtures = [family, with_duplicate_and_zero_weight_center(family)]
                if k == 1:
                    mixtures.append(point_mixture(np.zeros(d), sigma))
                x = sigma * np.vstack([rng.uniform(-14.0, 14.0, (4000, d)), 3.0 * rng.standard_normal((4000, d))])
                for mixture in mixtures:
                    ref = mixture_logpdf_direct(mixture, x)
                    assert np.all(np.abs(mixture_logpdf(mixture, x) - ref) <= 1e-14 * (1.0 + np.abs(ref)))

    def test_peak_memory_has_no_dim_factor(self):
        # The direct formula holds a (rows, centers, dim) tensor (8.6x rows x
        # centers x 8 B at this size); the expanded square stays below 5x.
        mixture = family_mixture(MixtureFamily(4, 2, 1.0, 1.0))
        rows, centers = 1 << 18, len(mixture.weights)
        assert centers == 6
        x = np.random.default_rng(5).standard_normal((rows, 4))
        tracemalloc.start()
        try:
            mixture_logpdf(mixture, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * rows * centers * 8


class TestQuadRenyi:
    def test_identical_gaussians(self):
        g = point_mixture([0.0], 1.0)
        assert quad_renyi(g, g, 5) == pytest.approx(0.0, abs=1e-6)

    def test_shifted_gaussian_closed_form(self):
        num = point_mixture([1.0], 1.0)
        den = point_mixture([0.0], 1.0)
        assert quad_renyi(num, den, 3) == pytest.approx(1.5, abs=1e-4)

    def test_mixture_matches_enumeration(self):
        mix = two_center_mixture()
        den = point_mixture([0.0], 1.0)
        assert quad_renyi(mix, den, 2) == pytest.approx(forward_exact_enum(mix, 2), abs=1e-4)

    def test_same_mean_different_variance_closed_form(self):
        num = point_mixture([0.0], 1.0)
        den = point_mixture([0.0], 2.0)
        assert quad_renyi(num, den, 2) == pytest.approx(gaussian_rdp_same_mean(1.0, 2.0, 1, 2), abs=1e-4)

    def test_two_dim_grid(self):
        num = point_mixture([1.0, 0.0], 1.0)
        den = point_mixture([0.0, 0.0], 1.0)
        assert quad_renyi(num, den, 4) == pytest.approx(2.0, abs=1e-4)

    def test_reverse_direction_mass_is_covered(self):
        # The reverse integrand concentrates far from the centers; a box
        # around the centers alone would lose almost all of it.
        mix = family_mixture(MixtureFamily(2, 1, 2.0, 1.0))
        origin = point_mixture([0.0, 0.0], 1.0)
        lhs = quad_renyi(origin, mix, 5)
        shift = gaussian_rdp(2.0 * 1 / math.sqrt(2), 1.0, 5)
        avg = point_mixture([1.0, 1.0], 1.0)
        tail = quad_renyi(avg, mix, 5)
        assert lhs == pytest.approx(shift + tail, abs=2e-4)

    def test_dimension_guard_points_to_mc(self):
        num = point_mixture([0.0] * 3, 1.0)
        with pytest.raises(ValueError, match="mc_renyi"):
            quad_renyi(num, num, 2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_radius_sigmas=4)
        with pytest.raises(ValueError):
            QuadratureSpec(points_per_sigma=5)
        with pytest.raises(ValueError, match="mc_renyi"):
            QuadratureSpec(max_dim_grid=4)

    @pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_broadcast_grid_matches_point_quadrature(self, d, k):
        # Same grid, chunks and accumulation order as the point-array
        # reference; only the rounding of the log densities differs.
        spec = grid_spec(d)
        cells = [(2, 0.5), (3, 1.0)] if d == 3 else [(a, r) for a in (2, 3, 5) for r in (0.5, 1.0, 2.0)]
        origin = point_mixture(np.zeros(d), 1.0)
        for alpha, ratio in cells:
            mixture = family_mixture(MixtureFamily(d, k, ratio, 1.0))
            for num, den in ((mixture, origin), (origin, mixture)):
                ref = quad_renyi_points(num, den, alpha, spec)
                assert abs(quad_renyi(num, den, alpha, spec) - ref) <= 1e-13 * abs(ref)

    def test_broadcast_grid_unequal_sigmas_and_zero_weight_center(self):
        pairs = [
            (family_mixture(MixtureFamily(2, 1, 1.0, 1.0)), point_mixture([0.0, 0.0], 1.5)),
            (GenericMixture(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]), np.array([0.5, 0.5, 0.0]), 1.0),
             point_mixture([0.0, 0.0], 1.0)),
        ]
        pairs.append(pairs[-1][::-1])
        for num, den in pairs:
            ref = quad_renyi_points(num, den, 3)
            assert abs(quad_renyi(num, den, 3) - ref) <= 1e-13 * abs(ref)

    def test_peak_memory_of_a_three_dim_chunk(self):
        # Unit: chunk cells x (centers + 1) x 8 B.  The point-array
        # reference, with its (cells, dim) points and (cells, centers)
        # matmuls, peaks at 6.3 units here; the broadcast grid at 1.75.
        origin = point_mixture(np.zeros(3), 1.0)
        mixture = family_mixture(MixtureFamily(3, 1, 1.0, 1.0))
        spec = grid_spec(3)
        axes = _grid_axes(origin, mixture, 2, spec)
        tail = len(axes[1]) * len(axes[2])
        chunk_cells = min(len(axes[0]), _GRID_CHUNK_CELLS // tail) * tail
        tracemalloc.start()
        try:
            quad_renyi(origin, mixture, 2, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * chunk_cells * (len(mixture.weights) + 1) * 8


class TestMcRenyi:
    def test_identical_families_near_zero(self):
        g = point_mixture([0.0, 0.0], 1.0)
        est = mc_renyi(g, g, 4, SMALL_MC)
        assert abs(est.estimate) <= max(3 * est.stderr, 1e-9)

    def test_matches_enumeration_within_three_stderr(self):
        mix = family_mixture(MixtureFamily(3, 1, 1.0, 1.0))
        den = point_mixture([0.0] * 3, 1.0)
        est = mc_renyi(mix, den, 2, McSpec(n_samples=1_000_000, seed=5))
        exact = forward_exact_enum(mix, 2)
        assert abs(est.estimate - exact) <= 3 * est.stderr
        assert not est.low_confidence

    def test_reverse_direction_against_quadrature(self):
        mix = two_center_mixture()
        den = point_mixture([0.0], 1.0)
        est = mc_renyi(den, mix, 3, McSpec(n_samples=1_000_000, seed=9))
        assert est.proposal == "numerator"  # the Gaussian, against a two-center mixture
        truth = quad_renyi(den, mix, 3)
        assert abs(est.estimate - truth) <= max(3 * est.stderr, 5e-4)

    def test_bit_identical_for_same_seed(self):
        mix = two_center_mixture()
        den = point_mixture([0.0], 1.0)
        a = mc_renyi(mix, den, 2, SMALL_MC)
        b = mc_renyi(mix, den, 2, SMALL_MC)
        assert a.estimate == b.estimate and a.stderr == b.stderr
        assert a.proposal == "denominator"  # the Gaussian, against a two-center mixture

    def test_different_seed_changes_estimate(self):
        mix = two_center_mixture()
        den = point_mixture([0.0], 1.0)
        a = mc_renyi(mix, den, 2, McSpec(n_samples=400_000, seed=1))
        b = mc_renyi(mix, den, 2, McSpec(n_samples=400_000, seed=2))
        assert a.estimate != b.estimate

    def test_dimension_guard(self):
        g = point_mixture([0.0] * 7, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            mc_renyi(g, g, 2, SMALL_MC)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            McSpec(n_samples=10)


class TestVerifySandwich:
    def test_full_participation_family_all_ok(self):
        # k=d collapses every quantity to the same Gaussian value.
        report = verify_sandwich(MixtureFamily(2, 2, 1.0, 1.0), 2)
        assert report.ok
        assert report.forward_matches_exact
        assert report.oracle_forward == pytest.approx(2.0, abs=1e-4)

    def test_zero_scale_all_zero(self):
        report = verify_sandwich(MixtureFamily(3, 1, 0.0, 1.0), 3, mc_spec=SMALL_MC)
        assert report.ok
        assert report.tight == 0.0 and report.loose == 0.0
        assert abs(report.oracle_forward) <= 1e-4

    def test_forward_side_is_exact_on_quadrature_cells(self):
        report = verify_sandwich(MixtureFamily(2, 1, 1.0, 1.0), 2)
        assert report.oracle_forward == pytest.approx(math.log((E + 1) / 2), abs=1e-4)
        assert report.forward_matches_exact
        assert report.ok_forward_below_exact
        assert report.ok_exact_below_bound
        assert report.ok_tight_below_loose

    def test_reverse_bound_defect_is_reported_not_raised(self, monkeypatch):
        # The paper's reverse formula genuinely sits below the true reverse
        # divergence on this instance (0.5502 vs 0.5690); checked against it,
        # the report must say so rather than pass or throw.
        monkeypatch.setattr("amplify_acct.oracles.reverse_bound", reverse_bound_paper)
        report = verify_sandwich(MixtureFamily(2, 1, 1.0, 1.0), 2)
        assert report.oracle_reverse == pytest.approx(0.5690426, abs=1e-4)
        assert report.reverse_bound == pytest.approx(0.5501667, abs=1e-6)
        assert not report.ok_reverse_below_bound
        assert not report.ok

    def test_size_guard(self):
        with pytest.raises(ValueError):
            verify_sandwich(MixtureFamily(5, 1, 1.0, 1.0), 2)

    def test_order_beyond_the_enumeration_budget_refused(self):
        # 6^9 tuples exceed ENUM_TUPLE_LIMIT: only a forward bound exists, and
        # it must not be reported as the exact value.
        with pytest.raises(CostLimitError, match="no exact forward path"):
            verify_sandwich(MixtureFamily(4, 2, 1.0, 1.0), 9)

    def test_six_center_cell_runs(self):
        report = verify_sandwich(MixtureFamily(4, 2, 1.0, 1.0), 2, mc_spec=SMALL_MC)
        assert report.ok_forward_below_exact
        assert report.ok_tight_below_loose


class TestVerifyOffsetIdentity:
    def test_basic_cell(self):
        report = verify_offset_identity(MixtureFamily(2, 1, 1.0, 1.0), 2)
        assert report.ok
        assert report.shift_term == pytest.approx(0.5, abs=1e-12)
        assert report.lhs == pytest.approx(report.shift_term + report.tail_term, abs=report.tol)

    def test_zero_scale(self):
        report = verify_offset_identity(MixtureFamily(2, 1, 0.0, 1.0), 4)
        assert report.ok
        assert report.lhs == pytest.approx(0.0, abs=1e-6)

    def test_full_participation_tail_vanishes(self):
        report = verify_offset_identity(MixtureFamily(2, 2, 1.0, 1.0), 2)
        assert report.ok
        assert report.shift_term == pytest.approx(2.0, abs=1e-12)
        assert report.tail_term == pytest.approx(0.0, abs=1e-6)

    def test_mc_path_for_d3(self):
        report = verify_offset_identity(MixtureFamily(3, 1, 1.0, 1.0), 2, mc_spec=McSpec(n_samples=600_000, seed=3))
        assert report.stderr > 0
        assert report.ok


class TestVerifyDimReduction:
    def test_pair_of_centers_1d_to_2d(self):
        report = verify_dim_reduction(np.array([[1.0], [-1.0]]), 1.0, 2)
        assert report.ok
        assert report.value_embedded == pytest.approx(report.value_lowdim, abs=2e-4)

    def test_single_zero_center(self):
        report = verify_dim_reduction(np.zeros((1, 1)), 1.5, 6)
        assert report.ok
        assert report.value_lowdim == pytest.approx(0.0, abs=1e-6)

    def test_one_hot_pair_2d_to_3d(self):
        centers = family_mixture(MixtureFamily(2, 1, 1.0, 1.0)).centers
        report = verify_dim_reduction(centers, 1.0, 3)
        assert report.ok

    def test_embedding_guard(self):
        with pytest.raises(ValueError):
            verify_dim_reduction(np.zeros((1, 3)), 1.0, 2)


class TestQuadratureMcAgreement:
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_low_dim_estimators_agree(self, alpha):
        mix = family_mixture(MixtureFamily(2, 1, 1.0, 1.0))
        den = point_mixture([0.0, 0.0], 1.0)
        q = quad_renyi(mix, den, alpha)
        m = mc_renyi(mix, den, alpha, McSpec(n_samples=2_000_000, seed=21))
        assert abs(q - m.estimate) <= max(3 * m.stderr, 5e-4)
