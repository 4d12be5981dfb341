import math
import tracemalloc

import numpy as np
import pytest

from amplify_acct.oracles import (
    _BLOCK,
    McSpec,
    QuadratureSpec,
    _chunk_rows,
    _draw_blocks,
    _grid_axes,
    _logsumexp_centers,
    _mc_estimates,
    grid_spec,
    mc_renyi,
    mixture_logpdf,
    point_mixture,
    quad_renyi,
    sample_mixture,
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
from reference_formulas import (
    gaussian_rdp_same_mean,
    logsumexp_centers_logaddexp,
    mc_estimates_per_chunk,
    mixture_logpdf_direct,
    quad_renyi_points,
    reverse_bound_paper,
    sample_mixture_choice,
)

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


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def traced_peak(f) -> int:
    """Peak bytes tracemalloc sees while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLogsumexpCenters:
    # The shifted exp-sum against the logaddexp chain: within a few ulps of
    # 1 + |result| on finite points, the same values where the chain's result
    # is fixed by its special entries.
    TOL = 1e-14

    def test_random_rows_match_the_logaddexp_chain(self):
        rng = np.random.default_rng(19)
        for centers in (1, 2, 3, 6, 10, 45):
            for scale in (1e-3, 1.0, 30.0, 700.0):
                comp = scale * rng.standard_normal((centers, 2000)) + scale * rng.standard_normal()
                ref = logsumexp_centers_logaddexp(comp)
                got = _logsumexp_centers(comp.copy())
                assert np.all(np.abs(got - ref) <= self.TOL * (1.0 + np.abs(ref)))

    def test_one_center_is_its_row_and_two_equal_entries_add_log_two(self):
        row = np.random.default_rng(3).uniform(-700.0, 700.0, 1000)
        assert np.array_equal(bits(_logsumexp_centers(row[None, :].copy())), bits(row))
        pair = np.vstack([row, row])
        assert np.array_equal(bits(_logsumexp_centers(pair.copy())), bits(logsumexp_centers_logaddexp(pair)))

    def test_a_zero_weight_center_adds_exactly_nothing(self):
        rng = np.random.default_rng(4)
        for centers in (1, 2, 5, 44):
            comp = rng.uniform(-50.0, 50.0, (centers, 500))
            with_dead = np.insert(comp, centers // 2, -np.inf, axis=0)
            assert np.array_equal(bits(_logsumexp_centers(with_dead.copy())), bits(_logsumexp_centers(comp.copy())))
            assert np.array_equal(bits(logsumexp_centers_logaddexp(with_dead)), bits(logsumexp_centers_logaddexp(comp)))

    def test_duplicated_centers_stay_within_the_bound(self):
        rng = np.random.default_rng(5)
        for centers in (2, 3, 7, 45):
            comp = rng.uniform(-20.0, 20.0, (centers, 500))
            comp[-1] = comp[0]
            ref = logsumexp_centers_logaddexp(comp)
            got = _logsumexp_centers(comp.copy())
            assert np.all(np.abs(got - ref) <= self.TOL * (1.0 + np.abs(ref)))

    def test_non_finite_entries_give_the_chain_result(self):
        inf, nan = np.inf, np.nan
        points = [
            [-inf, -inf, -inf],
            [inf, 1.0, -inf],
            [inf, inf, 2.0],
            [-inf, inf, -inf],
            [nan, 1.0, 2.0],
            [1.0, nan, inf],
            [-inf, nan, -inf],
            [nan, nan, nan],
            [800.0, inf, -inf],
        ]
        comp = np.array(points).T.copy()
        with np.errstate(invalid="ignore"):
            ref = logsumexp_centers_logaddexp(comp)
        got = _logsumexp_centers(comp.copy())
        assert np.array_equal(got, ref, equal_nan=True)
        # A point whose centers are all -inf gives -inf next to a finite point.
        got = _logsumexp_centers(np.array([[0.5, -inf], [1.5, -inf]]))
        assert np.isfinite(got[0]) and got[1] == -inf


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
        assert traced_peak(lambda: mixture_logpdf(mixture, x)) <= 5 * rows * centers * 8


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

    @pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_broadcast_grid_matches_point_quadrature(self, d, k):
        # Same grid and chunks as the point-array reference.  A one-center
        # side is folded into the per-axis weights (and a pair of them, as
        # at d = k, into per-axis sums) instead of evaluated per cell, so
        # the two differ only by the rounding of the log densities and sums.
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

    def test_chunks_hold_one_block_of_cells_and_at_least_a_row(self):
        assert [_chunk_rows(tail) for tail in (1, 541, _BLOCK, _BLOCK + 1, 68_121)] == [_BLOCK, _BLOCK // 541, 1, 1, 1]

    def test_peak_memory_of_a_three_dim_chunk(self):
        # Unit: chunk cells x (centers + 1) x 8 B.  A chunk is one row of the
        # grid's tail: 32,761 cells at c/sigma = 1, alpha = 2, and 68,121,
        # more than a block, at c/sigma = 2, alpha = 5.  The point-array
        # reference, with its (cells, dim) points and (cells, centers)
        # matmuls, peaks at 4.3 and 4.1 units; the broadcast grid, with the
        # one-center side folded into the per-axis weights, at 1.08.
        origin = point_mixture(np.zeros(3), 1.0)
        spec = grid_spec(3)
        for ratio, alpha in ((1.0, 2), (2.0, 5)):
            mixture = family_mixture(MixtureFamily(3, 1, ratio, 1.0))
            axes = _grid_axes(origin, mixture, alpha, spec)
            tail = len(axes[1]) * len(axes[2])
            chunk_cells = min(len(axes[0]), _chunk_rows(tail)) * tail
            peak = traced_peak(lambda: quad_renyi(origin, mixture, alpha, spec))
            assert peak <= 3 * chunk_cells * (len(mixture.weights) + 1) * 8

    def test_peak_memory_of_a_two_dim_cell_is_one_block(self):
        # Unit: one block of cells x (centers + 1) x 8 B.  The 541 x 541
        # grid of this sandwich cell runs in chunks of 60 rows, and peaks at
        # about 1.1 units; one chunk of the whole grid would take 9.3.
        family = MixtureFamily(2, 1, 1.0, 1.0)
        mixture = family_mixture(family)
        origin = point_mixture(np.zeros(2), 1.0)
        assert len(_grid_axes(mixture, origin, 3, grid_spec(2))[1]) == 541
        peak = traced_peak(lambda: verify_sandwich(family, 3))
        assert peak <= 2 * _BLOCK * (len(mixture.weights) + 1) * 8

    def test_block_chunks_regroup_the_sum_only(self, monkeypatch):
        # Chunks of one block of cells against one chunk for the whole grid.
        origin = point_mixture(np.zeros(2), 1.0)
        three = GenericMixture(np.array([[1.0, 0.0], [0.0, 1.5], [-1.0, -0.5]]), np.array([0.2, 0.3, 0.5]), 1.0)
        cells = [(family_mixture(MixtureFamily(2, 1, r, 1.0)), a) for r in (0.5, 2.0) for a in (2, 5)] + [(three, 3)]
        pairs = [(p, q, a) for m, a in cells for p, q in ((m, origin), (origin, m))]
        blocked = [quad_renyi(p, q, a) for p, q, a in pairs]
        monkeypatch.setattr("amplify_acct.oracles._BLOCK", 1 << 30)
        for (p, q, a), v in zip(pairs, blocked):
            whole = quad_renyi(p, q, a)
            assert abs(v - whole) <= 1e-15 * (1.0 + abs(whole))

    def test_one_center_pair_builds_no_grid(self):
        # Per-axis sums only: about 15 kB here, where one chunk of this
        # 3-D grid (one 29,920-cell row, and a log density for each side)
        # would take 0.5 MB.
        spec = grid_spec(3)
        point = point_mixture([1.0, 0.5, -0.3], 1.0)
        origin = point_mixture(np.zeros(3), 1.0)
        assert traced_peak(lambda: quad_renyi(point, origin, 3, spec)) < 1 << 20


class TestMcRenyi:
    @pytest.mark.parametrize("d,k", [(3, 3), (4, 2)])
    def test_draw_is_centers_plus_scaled_normal_bit_for_bit(self, d, k):
        # One center (MixtureFamily(3, 3)) and six; the in-place draw is the
        # formula centers[idx] + sigma z on the same stream.
        mixture = family_mixture(MixtureFamily(d, k, 0.7, 1.3))
        draw = sample_mixture(mixture, 5000, np.random.Generator(np.random.Philox(4)))
        rng = np.random.Generator(np.random.Philox(4))
        idx = rng.choice(len(mixture.weights), size=5000, p=mixture.weights)
        expected = mixture.centers[idx] + mixture.sigma * rng.standard_normal((5000, d))
        assert np.array_equal(bits(draw), bits(expected))

    @pytest.mark.parametrize("n", [1, 3, 7, 1000, 200_000])
    def test_one_center_draw_and_stream_match_the_choice_form(self, n):
        # One center skips the n raw draws of its indices: two chunks in a
        # row give the same rows and leave the stream in the same state.
        for mixture in (point_mixture([0.5, -1.0], 1.3), family_mixture(MixtureFamily(3, 3, 0.7, 1.3))):
            for seed in range(5):
                rng, ref = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
                for _ in range(2):
                    draw = sample_mixture(mixture, n, rng)
                    assert np.array_equal(bits(draw), bits(sample_mixture_choice(mixture, n, ref)))
                assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, (1 << 20) + 3])
    def test_block_draws_join_to_the_one_draw(self, n):
        # One center and six: the blocks are the rows of sample_mixture's one
        # (n, dim) draw bit for bit, with the stream left in the same state.
        for mixture in (point_mixture([0.5, -1.0, 0.2, 0.0], 1.3), family_mixture(MixtureFamily(4, 2, 0.7, 1.3))):
            rng, ref = (np.random.Generator(np.random.Philox(7)) for _ in range(2))
            whole = sample_mixture(mixture, n, ref)
            start = 0
            for block in _draw_blocks(mixture, n, rng, _BLOCK):
                assert len(block) == min(_BLOCK, n - start)
                assert np.array_equal(bits(block), bits(whole[start : start + len(block)]))
                start += len(block)
            assert start == n
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    def test_blocks_match_the_per_chunk_loop(self):
        # The same draws, evaluated one block at a time: only the grouping of
        # the log-mean-exp sums differs from whole chunks.  The last case
        # draws from a two-center side across a chunk boundary.
        origin = point_mixture(np.zeros(4), 1.0)
        two = GenericMixture(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]), np.array([0.3, 0.7]), 1.0)
        cases = [
            (family_mixture(MixtureFamily(4, 2, 1.0, 1.0)), origin, 3, True, 200_000),
            (family_mixture(MixtureFamily(4, 4, 1.0, 1.0)), origin, 2, True, 100_000),
            (origin, family_mixture(MixtureFamily(4, 1, 1.5, 1.0)), 5, False, 100_000),
            (two, family_mixture(MixtureFamily(4, 2, 1.0, 1.0)), 2, True, (1 << 20) + 3 * _BLOCK + 7),
        ]
        for num, den, alpha, both, n in cases:
            spec = McSpec(n_samples=n, seed=13)
            got = _mc_estimates(num, den, alpha, spec, both)
            ref = mc_estimates_per_chunk(num, den, alpha, spec, both)
            assert len(got) == len(ref) == 1 + both
            for g, r in zip(got, ref):
                assert (g.n_samples, g.proposal, g.low_confidence) == (r.n_samples, r.proposal, r.low_confidence)
                for v, w in ((g.estimate, r.estimate), (g.stderr, r.stderr)):
                    assert abs(v - w) <= 2e-15 * (1.0 + abs(w))

    def test_peak_memory_of_a_sandwich_cell_is_one_block(self):
        # Unit: one block of draws and its component matrix, _BLOCK x (dim +
        # centers) x 8 B.  The 200k-draw cell of the benchmark peaks at
        # about 1.8 units; whole 2^20-draw chunks took 8.5.
        family = MixtureFamily(4, 2, 1.0, 1.0)
        centers = len(family_mixture(family).weights)
        peak = traced_peak(lambda: verify_sandwich(family, 3, mc_spec=McSpec(n_samples=200_000, seed=0)))
        assert peak <= 3 * _BLOCK * (family.d + centers) * 8

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
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            McSpec(seed=-1)


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

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_monte_carlo_cells_equal_two_mc_renyi_calls(self, k):
        # Both directions draw from the origin's side with the same seed, so
        # one draw serves both; at k = d the sides tie and each direction
        # draws from its own denominator, as two calls would.
        family = MixtureFamily(4, k, 1.0, 1.0)
        mixture = family_mixture(family)
        origin = point_mixture(np.zeros(4), 1.0)
        for alpha in (2, 3):
            report = verify_sandwich(family, alpha, mc_spec=SMALL_MC)
            fwd = mc_renyi(mixture, origin, alpha, SMALL_MC)
            rev = mc_renyi(origin, mixture, alpha, SMALL_MC)
            got = [report.oracle_forward, report.oracle_forward_stderr, report.oracle_reverse, report.oracle_reverse_stderr]
            assert np.array_equal(bits(got), bits([fwd.estimate, fwd.stderr, rev.estimate, rev.stderr]))
            assert report.oracle_reverse_stderr > 0

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
        report = verify_offset_identity(
            MixtureFamily(3, 1, 1.0, 1.0), 2, QuadratureSpec(), McSpec(n_samples=600_000, seed=3)
        )
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
