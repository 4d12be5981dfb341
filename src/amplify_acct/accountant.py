"""Mechanism-level Renyi-DP accounting.

Builds per-order epsilon curves for the supported mechanisms, composes them
additively, converts to (epsilon, delta) guarantees, calibrates noise by
bisection, and compares balanced iteration subsampling against Poisson
subsampling.

Curve provenance per order:

* ``"exact"`` -- closed form (plain Gaussian, Poisson-subsampled Gaussian).
* ``"tight"`` -- exact forward divergence paired with the reverse bound.
* ``"loose"`` -- overlap-count forward bound paired with the reverse bound
  (either requested explicitly or forced by the enumeration cost guard).

A ``PoissonGaussian`` curve is per iteration; pass the iteration count to
``compose`` (or the ``count`` arguments elsewhere) to account a full run.  A
``Bis`` curve already covers all ``T`` iterations jointly.

Each mechanism is declared once, as one entry of ``MECHANISMS``: a frozen
spec dataclass with its CLI name and a ``_curve(orders, mode)`` method.
Labels (``mechanism_label``), ``rdp_curve`` dispatch and the CLI's flags
and ``key=value`` parsing all derive from that entry and its fields.  The
split mechanisms are the one-hot Gaussian-mixture family (``Bis`` is its
k-hot version): ``MixtureSplit`` is a ``ModelSplit`` under another name and
``DropoutSplit`` a ``ModelSplit`` with d fixed at 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Union

import numpy as np

from .rdp_math import (
    MixtureFamily,
    epsilon_loose_curve,
    epsilon_tight_curve,
    forward_exact_k1_curve,  # bound here for perfbench/tests/test_perfbench.py's binding test (ROADMAP item 1)
    poisson_gaussian_curve,
    validate_order,
)

__all__ = [
    "Bis",
    "BisPoissonComparison",
    "CalibrationBracketError",
    "CalibrationResult",
    "CompositionPlan",
    "DEFAULT_ORDERS",
    "DpGuarantee",
    "DropoutSplit",
    "Gaussian",
    "MECHANISMS",
    "MechanismSpec",
    "MixtureSplit",
    "ModelSplit",
    "PartialSplit",
    "PoissonGaussian",
    "RdpCurve",
    "bis_epoch_composition",
    "calibrate_sigma",
    "compare_bis_poisson",
    "compose",
    "mechanism_label",
    "rdp_curve",
    "scale_curve",
    "spec_params",
    "to_delta",
    "to_dp",
]

DEFAULT_ORDERS = tuple(range(2, 101))

_PROVENANCE_RANK = {"exact": 0, "tight": 1, "loose": 2}


class CalibrationBracketError(ValueError):
    """The sigma bracket does not enclose the calibration target."""


def _check_clip_noise(c: float, sigma: float) -> None:
    if c < 0:
        raise ValueError(f"clipping norm must be nonnegative, got {c}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")


@dataclass(frozen=True)
class Gaussian:
    """One release of a sum with l2 sensitivity c plus N(0, sigma^2 I) noise."""

    cli_name = "gaussian"
    c: float
    sigma: float

    def __post_init__(self):
        _check_clip_noise(self.c, self.sigma)

    def _curve(self, orders, mode):
        eps = np.array(orders, dtype=float) * self.c**2 / (2.0 * self.sigma**2)
        return eps, ("exact",) * len(orders)


@dataclass(frozen=True)
class PoissonGaussian:
    """Gaussian release where each sample joins independently with rate gamma.

    The curve is per iteration; compose with the iteration count.
    """

    cli_name = "poisson-gaussian"
    curve_flag = "poisson"
    c: float
    sigma: float
    gamma: float

    def __post_init__(self):
        _check_clip_noise(self.c, self.sigma)
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")

    def _curve(self, orders, mode):
        return poisson_gaussian_curve(self.c, self.sigma, self.gamma, orders), ("exact",) * len(orders)


@dataclass(frozen=True)
class ModelSplit:
    """Each sample updates one of d disjoint parameter blocks, chosen uniformly."""

    cli_name = "model-split"
    d: int
    c: float
    sigma: float

    def __post_init__(self):
        _check_clip_noise(self.c, self.sigma)
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    def _curve(self, orders, mode):
        return _split_family_curve(MixtureFamily(d=self.d, k=1, c=self.c, sigma=self.sigma), orders, mode)


class MixtureSplit(ModelSplit):
    """Probabilistic mixture of disjoint d-way splits: a ModelSplit by another name."""

    cli_name = "mixture-split"


@dataclass(frozen=True)
class DropoutSplit(ModelSplit):
    """Rate-0.5 dropout on hidden units: a ModelSplit with d fixed at 2."""

    cli_name = "dropout-split"
    d: int = field(default=2, init=False, repr=False)


@dataclass(frozen=True)
class PartialSplit:
    """d-way split of part of the model plus a non-split remainder.

    The two parts carry separate clipping norms and their per-order epsilons
    add (sequential-composition property).
    """

    cli_name = "partial-split"
    d: int
    c_split: float
    c_nonsplit: float
    sigma: float

    def __post_init__(self):
        _check_clip_noise(self.c_split, self.sigma)
        if self.c_nonsplit < 0:
            raise ValueError(f"c_nonsplit must be nonnegative, got {self.c_nonsplit}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    def _curve(self, orders, mode):
        split, prov = ModelSplit(d=self.d, c=self.c_split, sigma=self.sigma)._curve(orders, mode)
        nonsplit, _ = Gaussian(c=self.c_nonsplit, sigma=self.sigma)._curve(orders, mode)
        return split + nonsplit, prov


@dataclass(frozen=True)
class Bis:
    """Balanced iteration subsampling: each sample joins exactly k of T iterations.

    The curve covers the whole T-iteration run jointly.
    """

    cli_name = "bis"
    T: int
    k: int
    c: float
    sigma: float

    def __post_init__(self):
        _check_clip_noise(self.c, self.sigma)
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not 1 <= self.k <= self.T:
            raise ValueError(f"k must satisfy 1 <= k <= T, got k={self.k}, T={self.T}")

    def _curve(self, orders, mode):
        return _split_family_curve(MixtureFamily(d=self.T, k=self.k, c=self.c, sigma=self.sigma), orders, mode)


MechanismSpec = Union[Gaussian, PoissonGaussian, ModelSplit, MixtureSplit, DropoutSplit, PartialSplit, Bis]

# Every mechanism, in CLI order.  Each class carries its CLI name
# (``cli_name``; ``curve_flag`` where the ``curve`` command's flag differs)
# and ``_curve(orders, mode) -> (epsilons, provenance)``.
MECHANISMS = (Gaussian, PoissonGaussian, ModelSplit, MixtureSplit, DropoutSplit, PartialSplit, Bis)


def spec_params(cls) -> dict:
    """Constructor parameters of a spec (or family) dataclass: name -> int or float."""
    return {f.name: int if f.type in (int, "int") else float for f in fields(cls) if f.init}


def mechanism_label(spec: MechanismSpec) -> str:
    """Canonical short label used for CSV rows and log lines.

    ``cli_name(field=value,...)`` over the constructor parameters in
    declaration order; ints print with ``{}`` and floats with ``{:g}``.
    """
    params = spec_params(type(spec)).items()
    body = ",".join(f"{name}={format(getattr(spec, name), '' if kind is int else 'g')}" for name, kind in params)
    return f"{spec.cli_name}({body})"


def _split_family_curve(family: MixtureFamily, orders, mode: str):
    if mode == "loose":
        return epsilon_loose_curve(family, orders), ["loose"] * len(orders)
    eps, rules = epsilon_tight_curve(family, orders)
    return eps, ["loose" if rule == "bound" else "tight" for rule in rules]


@dataclass(frozen=True)
class RdpCurve:
    """Per-order epsilon values; the unit of composition."""

    orders: tuple
    epsilons: np.ndarray
    provenance: tuple

    def __post_init__(self):
        orders = tuple(validate_order(a) for a in self.orders)
        eps = np.asarray(self.epsilons, dtype=float)
        prov = tuple(self.provenance)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "provenance", prov)
        if not (len(orders) == len(eps) == len(prov)):
            raise ValueError("orders, epsilons, provenance must have equal lengths")
        if len(orders) == 0:
            raise ValueError("curve must contain at least one order")
        if np.any(eps < 0):
            raise ValueError("epsilons must be nonnegative")


@dataclass(frozen=True)
class DpGuarantee:
    epsilon: float
    delta: float
    achieving_order: int

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class CompositionPlan:
    """Mechanisms to run sequentially, each with a repetition count."""

    items: tuple  # of (MechanismSpec, count)

    def __post_init__(self):
        items = tuple((spec, int(count)) for spec, count in self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("composition plan must be nonempty")
        for _, count in items:
            if count < 1:
                raise ValueError(f"counts must be >= 1, got {count}")


def rdp_curve(spec: MechanismSpec, orders=DEFAULT_ORDERS, mode: str = "tight") -> RdpCurve:
    """Per-order epsilon curve for one mechanism (the spec's ``_curve``).

    ``mode`` selects the forward path for split/subsampling mechanisms;
    closed-form mechanisms ignore it.  Cost-guard degradations appear in the
    per-order provenance rather than as failures.
    """
    orders = tuple(validate_order(a) for a in orders)
    if mode not in ("tight", "loose"):
        raise ValueError(f"mode must be 'tight' or 'loose', got {mode!r}")
    eps, prov = spec._curve(orders, mode)
    return RdpCurve(orders, eps, tuple(prov))


def _merge_provenance(tags) -> str:
    return max(tags, key=lambda t: _PROVENANCE_RANK[t])


def compose(plan: CompositionPlan, orders=DEFAULT_ORDERS, mode: str = "tight") -> RdpCurve:
    """Pointwise epsilon sum over the plan, weighted by counts."""
    orders = tuple(validate_order(a) for a in orders)
    total = np.zeros(len(orders))
    prov = [["exact"] for _ in orders]
    for spec, count in plan.items:
        curve = rdp_curve(spec, orders, mode)
        total += count * curve.epsilons
        for i, tag in enumerate(curve.provenance):
            prov[i].append(tag)
    return RdpCurve(orders, total, tuple(_merge_provenance(tags) for tags in prov))


def scale_curve(curve: RdpCurve, count: int) -> RdpCurve:
    """count sequential runs of the mechanism behind ``curve``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return RdpCurve(curve.orders, count * curve.epsilons, curve.provenance)


def to_dp(curve: RdpCurve, delta: float) -> DpGuarantee:
    """Best (epsilon, delta) over the order grid.

    epsilon = min over alpha of eps(alpha) + log(1/delta)/(alpha - 1); ties
    break to the smallest order.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    a = np.array(curve.orders, dtype=float)
    candidates = curve.epsilons + math.log(1.0 / delta) / (a - 1.0)
    idx = int(np.argmin(candidates))  # argmin returns the first minimum
    return DpGuarantee(float(candidates[idx]), delta, curve.orders[idx])


def to_delta(curve: RdpCurve, epsilon: float) -> float:
    """Smallest grid-achievable delta at a fixed epsilon budget.

    delta = min over alpha of exp((alpha - 1)(eps(alpha) - epsilon)),
    clamped to at most 1.  May underflow to 0 for very strong guarantees.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    a = np.array(curve.orders, dtype=float)
    log_delta = np.min((a - 1.0) * (curve.epsilons - epsilon))
    return float(math.exp(min(log_delta, 0.0)))


@dataclass(frozen=True)
class CalibrationResult:
    sigma: float
    achieved_epsilon: float
    target_epsilon: float
    delta: float
    iterations: int
    bracket_lo: float
    bracket_hi: float


def _clip_scale(spec: MechanismSpec) -> float:
    if isinstance(spec, PartialSplit):
        return max(spec.c_split, spec.c_nonsplit)
    return spec.c


def calibrate_sigma(
    template: MechanismSpec,
    count: int,
    target_epsilon: float,
    delta: float,
    orders=DEFAULT_ORDERS,
    mode: str = "tight",
    rel_tol: float = 1e-4,
    max_iter: int = 200,
) -> CalibrationResult:
    """Bisection for the noise meeting a (target_epsilon, delta) goal.

    ``template``'s sigma field is ignored and replaced by the probe value;
    ``count`` sequential runs are accounted.  Searches sigma in
    [1e-3 c, 1e3 c] (c = the template's clipping scale), stopping when the
    achieved epsilon is within rel_tol of the target or after max_iter
    rounds; the result always satisfies achieved <= target.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if target_epsilon <= 0:
        raise ValueError(f"target epsilon must be positive, got {target_epsilon}")
    c = _clip_scale(template)
    if c <= 0:
        raise ValueError("cannot calibrate a mechanism with zero clipping norm")

    def achieved(sigma: float) -> float:
        curve = scale_curve(rdp_curve(replace(template, sigma=sigma), orders, mode), count)
        return to_dp(curve, delta).epsilon

    lo, hi = 1e-3 * c, 1e3 * c
    eps_lo, eps_hi = achieved(lo), achieved(hi)
    if not (eps_hi <= target_epsilon <= eps_lo):
        raise CalibrationBracketError(
            f"target epsilon {target_epsilon} not bracketed: "
            f"epsilon({lo:g}) = {eps_lo:g}, epsilon({hi:g}) = {eps_hi:g}"
        )
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        mid = 0.5 * (lo + hi)
        eps_mid = achieved(mid)
        if eps_mid <= target_epsilon:
            hi, eps_hi = mid, eps_mid
            if target_epsilon - eps_mid <= rel_tol * target_epsilon:
                break
        else:
            lo = mid
    return CalibrationResult(
        sigma=hi,
        achieved_epsilon=eps_hi,
        target_epsilon=target_epsilon,
        delta=delta,
        iterations=iterations,
        bracket_lo=1e-3 * c,
        bracket_hi=1e3 * c,
    )


def bis_epoch_composition(
    T_epoch: int, k_epoch: int, n_epochs: int, c: float, sigma: float, orders=DEFAULT_ORDERS, mode: str = "tight"
) -> RdpCurve:
    """n_epochs sequential balanced-subsampling runs of T_epoch iterations each.

    Pointwise at least as large as the joint Bis(T_epoch*n_epochs,
    k_epoch*n_epochs) curve: organizing iterations into epochs removes
    randomness.
    """
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    return scale_curve(rdp_curve(Bis(T=T_epoch, k=k_epoch, c=c, sigma=sigma), orders, mode), n_epochs)


@dataclass(frozen=True)
class BisPoissonComparison:
    """Per-order epsilons for Bis(T,k) vs T-fold Poisson at gamma=k/T."""

    T: int
    k: int
    c: float
    sigma: float
    orders: tuple
    eps_bis_tight: np.ndarray
    eps_bis_loose: np.ndarray
    eps_poisson: np.ndarray
    provenance_tight: tuple

    @property
    def tight_below_poisson(self) -> bool:
        return bool(np.all(self.eps_bis_tight <= self.eps_poisson))

    @property
    def loose_below_poisson(self) -> bool:
        return bool(np.all(self.eps_bis_loose <= self.eps_poisson))

    def poisson_over_tight_ratio(self, alpha: int) -> float:
        idx = self.orders.index(validate_order(alpha))
        return float(self.eps_poisson[idx] / self.eps_bis_tight[idx])


def compare_bis_poisson(T: int, k: int, c: float, sigma: float, orders=DEFAULT_ORDERS) -> BisPoissonComparison:
    """Side-by-side curves for the two subsampling schemes at matched rates."""
    orders = tuple(validate_order(a) for a in orders)
    bis_spec = Bis(T=T, k=k, c=c, sigma=sigma)
    tight = rdp_curve(bis_spec, orders, mode="tight")
    loose = rdp_curve(bis_spec, orders, mode="loose")
    poisson = scale_curve(rdp_curve(PoissonGaussian(c=c, sigma=sigma, gamma=k / T), orders), T)
    return BisPoissonComparison(
        T=T,
        k=k,
        c=c,
        sigma=sigma,
        orders=orders,
        eps_bis_tight=tight.epsilons,
        eps_bis_loose=loose.epsilons,
        eps_poisson=poisson.epsilons,
        provenance_tight=tight.provenance,
    )
