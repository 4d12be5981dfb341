import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from amplify_acct import accountant
from amplify_acct.accountant import (
    Bis,
    BisPoissonComparison,
    CalibrationBracketError,
    DEFAULT_ORDERS,
    DpGuarantee,
    DropoutSplit,
    Gaussian,
    MECHANISMS,
    MixtureSplit,
    ModelSplit,
    PartialSplit,
    PoissonGaussian,
    RdpCurve,
    bis_epoch_composition,
    calibrate_sigma,
    compare_bis_poisson,
    mechanism_label,
    rdp_curve,
    scale_curve,
    to_delta,
    to_dp,
)
from amplify_acct.rdp_math import MixtureFamily, check_fields, forward_exact_k1_curve, gaussian_rdp

E = math.e


class TestRdpCurve:
    def test_gaussian_curve_values(self):
        curve = rdp_curve(Gaussian(c=1, sigma=1), orders=(2, 3, 4))
        assert np.allclose(curve.epsilons, [1.0, 1.5, 2.0])
        assert curve.provenance == ("exact", "exact", "exact")

    def test_poisson_full_rate_collapses_to_gaussian(self):
        poisson = rdp_curve(PoissonGaussian(c=1, sigma=1, gamma=1.0))
        gaussian = rdp_curve(Gaussian(c=1, sigma=1))
        assert np.max(np.abs(poisson.epsilons - gaussian.epsilons)) <= 1e-12

    def test_poisson_half_rate_order2(self):
        curve = rdp_curve(PoissonGaussian(c=1, sigma=1, gamma=0.5), orders=(2,))
        assert curve.epsilons[0] == pytest.approx(math.log(0.75 + 0.25 * E), rel=1e-12)

    def test_poisson_zero_scale_is_free(self):
        curve = rdp_curve(PoissonGaussian(c=0, sigma=1, gamma=0.3), orders=(2, 10, 100))
        assert np.allclose(curve.epsilons, 0.0, atol=1e-12)

    def test_poisson_no_overflow_extreme(self):
        curve = rdp_curve(PoissonGaussian(c=10, sigma=1, gamma=0.2), orders=(100,))
        assert math.isfinite(curve.epsilons[0])

    def test_model_split_d1_equals_gaussian(self):
        split = rdp_curve(ModelSplit(d=1, c=1, sigma=1))
        gaussian = rdp_curve(Gaussian(c=1, sigma=1))
        assert np.max(np.abs(split.epsilons - gaussian.epsilons)) <= 1e-9

    def test_full_rate_and_single_block_are_the_gaussian_bit_for_bit(self):
        orders = tuple(range(2, 1001))
        for ratio in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 4.0):
            gaussian = rdp_curve(Gaussian(c=ratio, sigma=1), orders).epsilons
            assert np.array_equal(rdp_curve(PoissonGaussian(c=ratio, sigma=1, gamma=1.0), orders).epsilons, gaussian)
            assert np.array_equal(rdp_curve(ModelSplit(d=1, c=ratio, sigma=1), orders).epsilons, gaussian)

    def test_gaussian_rdp_is_the_gaussian_curve_bit_for_bit(self):
        orders = tuple(range(2, 1001))
        for ratio in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 4.0):
            gaussian = rdp_curve(Gaussian(c=ratio, sigma=1), orders).epsilons
            assert np.array_equal([gaussian_rdp(ratio, 1, a) for a in orders], gaussian)

    def test_mixture_and_dropout_reuse_model_split(self):
        base = rdp_curve(ModelSplit(d=2, c=1, sigma=2), orders=(2, 5, 9))
        assert np.allclose(rdp_curve(MixtureSplit(d=2, c=1, sigma=2), orders=(2, 5, 9)).epsilons, base.epsilons)
        assert np.allclose(rdp_curve(DropoutSplit(c=1, sigma=2), orders=(2, 5, 9)).epsilons, base.epsilons)

    def test_partial_split_adds_nonsplit_gaussian(self):
        combined = rdp_curve(PartialSplit(c_split=1, c_nonsplit=0.5, d=3, sigma=1), orders=(2, 4))
        split_only = rdp_curve(ModelSplit(d=3, c=1, sigma=1), orders=(2, 4))
        extra = np.array([2, 4]) * 0.25 / 2.0
        assert np.allclose(combined.epsilons, split_only.epsilons + extra)

    def test_bis_full_participation_is_composition(self):
        bis = rdp_curve(Bis(T=10, k=10, c=1, sigma=1))
        gaussian = rdp_curve(Gaussian(c=1, sigma=1))
        assert np.max(np.abs(bis.epsilons - 10 * gaussian.epsilons)) <= 1e-9

    def test_bis_tight_provenance_records_cost_guard(self):
        curve = rdp_curve(Bis(T=10, k=4, c=1, sigma=2))
        # C(10,4)=210: enumeration fits the budget only for orders 2 and 3.
        assert curve.provenance[:2] == ("tight", "tight")
        assert set(curve.provenance[2:]) == {"loose"}

    def test_loose_mode_provenance(self):
        curve = rdp_curve(Bis(T=10, k=4, c=1, sigma=2), mode="loose")
        assert set(curve.provenance) == {"loose"}

    def test_k1_tight_uses_series_everywhere(self):
        curve = rdp_curve(ModelSplit(d=1000, c=1, sigma=1))
        assert set(curve.provenance) == {"tight"}
        assert np.all(np.diff(curve.epsilons) >= -1e-12)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            rdp_curve(Gaussian(c=1, sigma=1), mode="middling")

    @pytest.mark.parametrize("bad", [
        lambda: Gaussian(c=-1, sigma=1),
        lambda: Gaussian(c=1, sigma=0),
        lambda: PoissonGaussian(c=1, sigma=1, gamma=0),
        lambda: PoissonGaussian(c=1, sigma=1, gamma=1.2),
        lambda: ModelSplit(d=0, c=1, sigma=1),
        lambda: Bis(T=5, k=6, c=1, sigma=1),
        lambda: Bis(T=0, k=0, c=1, sigma=1),
        lambda: PartialSplit(c_split=1, c_nonsplit=-2, d=2, sigma=1),
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ValueError):
            bad()


# A valid value, and values out of range, for every field name with a rule.
VALID = {"c": 1.0, "c_split": 1.0, "c_nonsplit": 0.5, "sigma": 2.0, "d": 3, "T": 4, "k": 2, "gamma": 0.5}
INVALID = {
    "c": [-1.0],
    "c_split": [-1.0],
    "c_nonsplit": [-0.5],
    "sigma": [0.0, -1.0],
    "d": [0],
    "T": [0],
    "k": [0, 5],
    "gamma": [0.0, 1.5],
}
# Every spec and family, and the kernels that take these fields as arguments
# (with the arguments that are not fields).
FIELD_TARGETS = {cls.__name__: (cls, {}) for cls in (*MECHANISMS, MixtureFamily)}
FIELD_TARGETS["forward_exact_k1_curve"] = (forward_exact_k1_curve, {"orders": [2, 3]})
FIELD_TARGETS["gaussian_rdp"] = (gaussian_rdp, {"alpha": 2})


def _fields_of(name):
    target, extra = FIELD_TARGETS[name]
    return [param for param in inspect.signature(target).parameters if param not in extra]


class TestFieldRules:
    @pytest.mark.parametrize(
        "name, field, bad",
        [
            pytest.param(name, field, bad, id=f"{name}-{field}={bad}")
            for name in FIELD_TARGETS
            for field in _fields_of(name)
            for bad in INVALID[field]
        ],
    )
    def test_out_of_range_value_names_its_field(self, name, field, bad):
        target, extra = FIELD_TARGETS[name]
        args = {**{param: VALID[param] for param in _fields_of(name)}, **extra}
        target(**args)
        with pytest.raises(ValueError, match=rf"^{field} must "):
            target(**{**args, field: bad})

    @pytest.mark.parametrize(
        "field, bad",
        [("count", 0), ("n_epochs", 0), ("n_samples", 0), ("hidden_dim", -1), ("delta", 0.0), ("delta", 1.0)],
    )
    def test_keyword_values_name_their_field(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must .*, got {bad}$"):
            check_fields(**{field: bad})

    def test_k_is_bounded_by_T_before_d(self):
        check_fields(T=5, d=2, k=4)
        with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k <= d, got k=4, d=3$"):
            check_fields(d=3, k=4)

    def test_names_without_a_rule_pass(self):
        check_fields(epsilon=-1.0, mode="any", seed=-3)


class TestCompose:
    def test_triple_gaussian(self):
        curve = scale_curve(rdp_curve(Gaussian(c=1, sigma=1), orders=(2,)), 3)
        assert curve.epsilons[0] == pytest.approx(3.0, abs=1e-12)

    def test_bis_full_vs_repeated_gaussian(self):
        left = rdp_curve(Bis(T=10, k=10, c=1, sigma=1))
        right = scale_curve(rdp_curve(Gaussian(c=1, sigma=1)), 10)
        assert np.max(np.abs(left.epsilons - right.epsilons)) <= 1e-9

    def test_linear_in_counts(self):
        single = rdp_curve(PoissonGaussian(c=1, sigma=2, gamma=0.3), orders=(2, 7))
        many = scale_curve(single, 41)
        assert np.allclose(many.epsilons, 41 * single.epsilons)

    def test_general_composition_api_is_gone(self):
        for name in ("compose", "CompositionPlan", "_merge_provenance", "_PROVENANCE_RANK"):
            assert not hasattr(accountant, name)
        for name in ("tight_below_poisson", "loose_below_poisson", "poisson_over_tight_ratio"):
            assert not hasattr(BisPoissonComparison, name)


class TestConversions:
    def test_single_order_curve(self):
        curve = RdpCurve((2,), np.array([1.0]), ("exact",))
        guarantee = to_dp(curve, math.exp(-1))
        assert guarantee.epsilon == pytest.approx(2.0, abs=1e-12)
        assert guarantee.achieving_order == 2

    def test_gaussian_grid_minimization(self):
        curve = rdp_curve(Gaussian(c=1, sigma=1))
        guarantee = to_dp(curve, 1e-5)
        assert guarantee.epsilon == pytest.approx(5.302585092994046, rel=1e-12)
        assert guarantee.achieving_order == 6

    def test_epsilon_nonincreasing_in_delta(self):
        curve = rdp_curve(Gaussian(c=1, sigma=2))
        assert to_dp(curve, 1e-7).epsilon >= to_dp(curve, 1e-5).epsilon >= to_dp(curve, 1e-3).epsilon

    def test_delta_out_of_range(self):
        curve = rdp_curve(Gaussian(c=1, sigma=1))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                to_dp(curve, bad)

    def test_to_delta_inverts_single_order(self):
        curve = RdpCurve((2,), np.array([1.0]), ("exact",))
        assert to_delta(curve, 2.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_to_delta_clamps_to_one(self):
        curve = rdp_curve(Gaussian(c=1, sigma=1))
        assert to_delta(curve, 0.0) == 1.0

    def test_round_trip_consistency(self):
        curve = scale_curve(rdp_curve(PoissonGaussian(c=1, sigma=2, gamma=0.25)), 50)
        for delta in (1e-7, 1e-5, 1e-2):
            eps = to_dp(curve, delta).epsilon
            assert to_delta(curve, eps) <= delta * (1 + 1e-9)

    def test_bis_beats_poisson_delta_small_T(self):
        bis = rdp_curve(Bis(T=60, k=24, c=1, sigma=2))
        poisson = scale_curve(rdp_curve(PoissonGaussian(c=1, sigma=2, gamma=0.4)), 60)
        assert to_delta(bis, 10.0) <= to_delta(poisson, 10.0)

    def test_guarantee_validation(self):
        with pytest.raises(ValueError):
            DpGuarantee(epsilon=1.0, delta=0.0, achieving_order=2)


class TestCalibration:
    def test_gaussian_round_trip(self):
        target = to_dp(scale_curve(rdp_curve(Gaussian(c=1, sigma=3.7)), 5), 1e-5).epsilon
        result = calibrate_sigma(Gaussian(c=1, sigma=1), 5, target, 1e-5)
        assert result.sigma == pytest.approx(3.7, rel=1e-3)
        assert result.achieved_epsilon <= target

    def test_poisson_calibration_matches_direct_accounting(self):
        result = calibrate_sigma(PoissonGaussian(c=1, sigma=1, gamma=0.1), 1000, 8.0, 1e-5)
        achieved = to_dp(
            scale_curve(rdp_curve(PoissonGaussian(c=1, sigma=result.sigma, gamma=0.1)), 1000), 1e-5
        ).epsilon
        assert achieved == pytest.approx(result.achieved_epsilon, rel=1e-12)
        assert achieved <= 8.0
        assert 8.0 - achieved <= 1e-4 * 8.0

    def test_monotone_in_count_and_target(self):
        sigmas_by_count = [
            calibrate_sigma(Gaussian(c=1, sigma=1), count, 2.0, 1e-5).sigma for count in (1, 4, 16)
        ]
        assert sigmas_by_count == sorted(sigmas_by_count)
        sigmas_by_target = [
            calibrate_sigma(Gaussian(c=1, sigma=1), 4, eps, 1e-5).sigma for eps in (1.0, 2.0, 8.0)
        ]
        assert sigmas_by_target == sorted(sigmas_by_target, reverse=True)

    def test_unachievable_target_names_endpoints(self):
        with pytest.raises(CalibrationBracketError, match="not bracketed"):
            calibrate_sigma(Gaussian(c=1, sigma=1), 10**6, 1e-9, 1e-12)

    def test_zero_clip_rejected(self):
        with pytest.raises(ValueError):
            calibrate_sigma(Gaussian(c=0, sigma=1), 1, 1.0, 1e-5)

    # One small template per MECHANISMS entry; a new entry without one fails.
    TEMPLATES = {
        Gaussian: Gaussian(c=1, sigma=1),
        PoissonGaussian: PoissonGaussian(c=1, sigma=1, gamma=0.1),
        ModelSplit: ModelSplit(d=4, c=1, sigma=1),
        MixtureSplit: MixtureSplit(d=5, c=0.5, sigma=1),
        DropoutSplit: DropoutSplit(c=1, sigma=1),
        PartialSplit: PartialSplit(d=4, c_split=1, c_nonsplit=0.5, sigma=1),
        Bis: Bis(T=100, k=10, c=1, sigma=1),
    }

    @pytest.mark.parametrize("target", [1.0, 8.0])
    @pytest.mark.parametrize("count", [1, 100])
    @pytest.mark.parametrize("cls", MECHANISMS, ids=lambda cls: cls.cli_name)
    def test_contract(self, cls, count, target):
        template = self.TEMPLATES[cls]
        result = calibrate_sigma(template, count, target, 1e-5)
        assert result.achieved_epsilon <= target
        assert target - result.achieved_epsilon <= accountant._CALIBRATION_REL_TOL * target
        assert result.bracket_lo <= result.sigma <= result.bracket_hi
        direct = to_dp(scale_curve(rdp_curve(replace(template, sigma=result.sigma)), count), 1e-5)
        assert result.achieved_epsilon == direct.epsilon

    def test_section42_probe_count(self):
        # Linear bisection over [1e-3, 1e3] takes 20 probes past the endpoints here.
        result = calibrate_sigma(Bis(T=2000, k=655, c=1, sigma=1), 1, 8.0, 1e-5)
        assert result.iterations <= 8

    def test_nonconvergence_ends_below_target(self, monkeypatch):
        # With no tolerance no probe can stop the search at this target, so
        # it runs out of probes and returns the last one at or below target.
        monkeypatch.setattr(accountant, "_CALIBRATION_REL_TOL", 0.0)
        result = calibrate_sigma(Gaussian(c=1, sigma=1), 10, 0.3, 1e-5)
        assert result.iterations == accountant._CALIBRATION_MAX_ITER
        assert result.achieved_epsilon <= 0.3


class TestBisEpochComposition:
    def test_single_epoch_is_plain_bis(self):
        composed = bis_epoch_composition(10, 4, 1, 1.0, 2.0)
        plain = rdp_curve(Bis(T=10, k=4, c=1, sigma=2))
        assert np.allclose(composed.epsilons, plain.epsilons)

    def test_epochs_cost_at_least_joint(self):
        # Like-for-like comparison: at T=60 the joint curve degrades to the
        # loose bound anyway, and the exact composed value may sit below a
        # loose joint bound, so the ordering is asserted between matching
        # bound flavors.
        composed = bis_epoch_composition(10, 4, 6, 1.0, 2.0, mode="loose")
        joint = rdp_curve(Bis(T=60, k=24, c=1, sigma=2), mode="loose")
        assert np.all(composed.epsilons >= joint.epsilons - 1e-12)

    def test_unit_epochs_are_gaussian_composition(self):
        composed = bis_epoch_composition(1, 1, 5, 1.0, 1.0)
        gaussian = rdp_curve(Gaussian(c=1, sigma=1))
        assert np.max(np.abs(composed.epsilons - 5 * gaussian.epsilons)) <= 1e-9


class TestCompareBisPoisson:
    def test_full_participation_reduction(self):
        cmp = compare_bis_poisson(6, 6, 1.0, 1.0, orders=tuple(range(2, 30)))
        assert np.max(np.abs(cmp.eps_bis_tight - cmp.eps_poisson)) <= 1e-9

    def test_small_T_tight_dominates(self):
        cmp = compare_bis_poisson(10, 4, 1.0, 2.0)
        assert np.all(cmp.eps_bis_tight <= cmp.eps_poisson)
        ratio = cmp.eps_poisson / cmp.eps_bis_tight
        assert ratio[cmp.orders.index(100)] > ratio[cmp.orders.index(10)]

    def test_loose_dominates_above_threshold(self):
        cmp = compare_bis_poisson(8, 4, 1.0, 2.0)  # k/T = 0.5 >= 0.25
        assert np.all(cmp.eps_bis_loose <= cmp.eps_poisson)

    def test_randomized_dominance_sweep(self):
        # Tight-mode dominance holds wherever the exact forward path is
        # live (provenance "tight"); degraded orders at k/T < 0.2 may not
        # dominate, matching the efficient bound's own threshold.  Loose
        # dominance is asserted for k/T >= 0.25.
        rng = np.random.default_rng(7)
        for _ in range(8):
            T = int(rng.integers(2, 13))
            k = int(rng.integers(1, T + 1))
            sigma = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            cmp = compare_bis_poisson(T, k, 1.0, sigma)
            exact = np.array([p == "tight" for p in cmp.provenance_tight])
            assert np.all(cmp.eps_bis_tight[exact] <= cmp.eps_poisson[exact] + 1e-9), (T, k, sigma)
            if k / T >= 0.25:
                assert np.all(cmp.eps_bis_loose <= cmp.eps_poisson), (T, k, sigma)


class TestLabels:
    def test_labels_are_stable(self):
        assert mechanism_label(Gaussian(c=1, sigma=2)) == "gaussian(c=1,sigma=2)"
        assert mechanism_label(Bis(T=10, k=4, c=1, sigma=2)) == "bis(T=10,k=4,c=1,sigma=2)"
        assert mechanism_label(PartialSplit(c_split=1, c_nonsplit=0.5, d=3, sigma=2)) == (
            "partial-split(d=3,c_split=1,c_nonsplit=0.5,sigma=2)"
        )
        assert mechanism_label(PoissonGaussian(c=1, sigma=2, gamma=0.05)) == "poisson-gaussian(c=1,sigma=2,gamma=0.05)"
        assert mechanism_label(ModelSplit(d=10**6, c=0.5, sigma=2)) == "model-split(d=1000000,c=0.5,sigma=2)"
        assert mechanism_label(MixtureSplit(d=5, c=1, sigma=1.25)) == "mixture-split(d=5,c=1,sigma=1.25)"
        assert mechanism_label(DropoutSplit(c=1, sigma=3)) == "dropout-split(c=1,sigma=3)"
