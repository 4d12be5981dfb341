"""Brute-force verification of the divergence bounds on small instances.

Two independent estimators of the Renyi divergence between explicit
Gaussian mixtures:

* ``quad_renyi`` -- trapezoid-rule integration on a truncated grid
  (dimensions 1-3, deterministic, absolute error around 1e-4 at the
  default settings);
* ``mc_renyi``   -- seeded importance-sampling Monte Carlo with a
  delta-method standard error (dimensions up to 6).

On top of them, ``verify_sandwich`` checks the oracle values against the
exact forward divergence, the overlap-count forward bound and the
reverse bound (``rdp_math.reverse_bound``),
``verify_offset_identity`` checks the reverse-divergence decomposition
through the Gaussian at the mixture-center average, and
``verify_dim_reduction`` checks that padding every center with a zero
coordinate leaves the divergence unchanged.

Estimates are pure functions of (inputs, spec, seed): grids accumulate in
a fixed order, Monte-Carlo chunks have a fixed size, so identical calls
are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rdp_math import (
    CostLimitError,
    GenericMixture,
    MixtureFamily,
    _logsumexp,
    epsilon_loose,
    family_mixture,
    forward_bound,
    forward_exact,
    forward_exact_enum,  # bound here for perfbench/tests/test_perfbench.py's binding test (ROADMAP item 1)
    gaussian_rdp,
    reverse_bound,
    validate_order,
)

__all__ = [
    "DimReductionReport",
    "McEstimate",
    "McSpec",
    "OffsetIdentityReport",
    "QuadratureSpec",
    "SandwichReport",
    "forward_exact_value",
    "grid_spec",
    "mc_renyi",
    "mixture_logpdf",
    "point_mixture",
    "quad_renyi",
    "sample_mixture",
    "verify_dim_reduction",
    "verify_offset_identity",
    "verify_sandwich",
]

_MC_CHUNK = 1 << 20
_GRID_CHUNK_CELLS = 1 << 21


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid parameters for the trapezoid-rule divergence estimate."""

    truncation_radius_sigmas: float = 12.0
    points_per_sigma: int = 20
    max_dim_grid: int = 2

    def __post_init__(self):
        if self.truncation_radius_sigmas < 8:
            raise ValueError(f"truncation radius must be >= 8 sigma, got {self.truncation_radius_sigmas}")
        if self.points_per_sigma < 10:
            raise ValueError(f"points_per_sigma must be >= 10, got {self.points_per_sigma}")
        if self.max_dim_grid < 1:
            raise ValueError("max_dim_grid must be >= 1")


def grid_spec(dim: int) -> QuadratureSpec:
    """Grid settings for a ``dim``-dimensional integral.

    Up to two dimensions the defaults; a 3-d grid at the default density
    would not fit, so it takes the floor settings (8 sigma, 10 points per
    sigma), still spectrally accurate.  Above three the grid refuses and
    callers fall back to Monte Carlo.
    """
    if dim <= 2:
        return QuadratureSpec()
    return QuadratureSpec(truncation_radius_sigmas=8.0, points_per_sigma=10, max_dim_grid=3)


@dataclass(frozen=True)
class McSpec:
    """Sampling parameters for the Monte-Carlo divergence estimate.

    ``proposal`` picks which side the samples are drawn from; callers
    default it to the side whose likelihood-ratio tails are lighter
    (the denominator for mixture-vs-Gaussian, the numerator for
    Gaussian-vs-mixture).
    """

    n_samples: int = 10_000_000
    seed: int = 0
    proposal: str = "denominator"

    def __post_init__(self):
        if self.n_samples < 100_000:
            raise ValueError(f"n_samples must be >= 1e5, got {self.n_samples}")
        if self.proposal not in ("numerator", "denominator"):
            raise ValueError(f"proposal must be 'numerator' or 'denominator', got {self.proposal!r}")


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    n_samples: int
    proposal: str
    low_confidence: bool


def point_mixture(center, sigma: float) -> GenericMixture:
    """Single-component mixture: one Gaussian at ``center``."""
    center = np.atleast_2d(np.asarray(center, dtype=float))
    return GenericMixture(center, np.ones(1), sigma)


def mixture_logpdf(mixture: GenericMixture, x: np.ndarray) -> np.ndarray:
    """Log density of the mixture at each row of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    diff = x[:, None, :] - mixture.centers[None, :, :]
    sq = np.einsum("bnd,bnd->bn", diff, diff)
    comp = np.log(mixture.weights)[None, :] - sq / (2.0 * mixture.sigma**2)
    norm = 0.5 * mixture.dim * math.log(2.0 * math.pi * mixture.sigma**2)
    return _logsumexp(comp, axis=1) - norm


def sample_mixture(mixture: GenericMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    idx = rng.choice(len(mixture.weights), size=n, p=mixture.weights)
    return mixture.centers[idx] + mixture.sigma * rng.standard_normal((n, mixture.dim))


def _grid_axes(m_num: GenericMixture, m_den: GenericMixture, alpha: int, spec: QuadratureSpec):
    """Per-dimension grid covering everywhere the integrand has mass.

    Completing the square in num^alpha * den^(1-alpha) for a component pair
    (a, b) puts mass around (alpha a/s_n^2 - (alpha-1) b/s_d^2) / prec with
    prec = alpha/s_n^2 - (alpha-1)/s_d^2, which can sit well outside the
    centers themselves; the box covers those points too.
    """
    prec = alpha / m_num.sigma**2 - (alpha - 1) / m_den.sigma**2
    if prec <= 0:
        raise ValueError(
            f"integrand not normalizable: alpha/sigma_num^2 - (alpha-1)/sigma_den^2 = {prec:g} <= 0"
        )
    pts = [m_num.centers, m_den.centers]
    eff = (
        alpha * m_num.centers[:, None, :] / m_num.sigma**2
        - (alpha - 1) * m_den.centers[None, :, :] / m_den.sigma**2
    ) / prec
    pts.append(eff.reshape(-1, m_num.dim))
    pts = np.concatenate(pts, axis=0)

    sigma_hi = max(m_num.sigma, m_den.sigma)
    sigma_lo = min(m_num.sigma, m_den.sigma, 1.0 / math.sqrt(prec))
    margin = spec.truncation_radius_sigmas * sigma_hi
    step = sigma_lo / spec.points_per_sigma
    axes = []
    for dim in range(m_num.dim):
        lo = pts[:, dim].min() - margin
        hi = pts[:, dim].max() + margin
        count = int(math.ceil((hi - lo) / step)) + 1
        axes.append(np.linspace(lo, hi, count))
    return axes


def _axis_log_weights(axis: np.ndarray) -> np.ndarray:
    # Trapezoid rule: half weight at the two edge nodes.
    h = axis[1] - axis[0]
    logw = np.full(len(axis), math.log(h))
    logw[0] += math.log(0.5)
    logw[-1] += math.log(0.5)
    return logw


def quad_renyi(m_num: GenericMixture, m_den: GenericMixture, alpha, spec: QuadratureSpec | None = None) -> float:
    """Trapezoid-rule estimate of the order-alpha divergence num-vs-den.

    Deterministic for a fixed spec; the integrand is accumulated in log
    space.  Dimensions above spec.max_dim_grid are refused with a pointer
    to ``mc_renyi``.
    """
    a = validate_order(alpha)
    spec = spec or QuadratureSpec()
    if m_num.dim != m_den.dim:
        raise ValueError("mixtures must share a dimension")
    dim = m_num.dim
    if dim > spec.max_dim_grid:
        raise ValueError(f"dimension {dim} exceeds the {spec.max_dim_grid}-dim grid limit; use mc_renyi instead")

    axes = _grid_axes(m_num, m_den, a, spec)
    logws = [_axis_log_weights(ax) for ax in axes]
    tail_size = int(np.prod([len(ax) for ax in axes[1:]])) if dim > 1 else 1
    chunk_rows = max(1, _GRID_CHUNK_CELLS // max(tail_size, 1))

    chunk_logs = []
    for start in range(0, len(axes[0]), chunk_rows):
        stop = min(start + chunk_rows, len(axes[0]))
        mesh = np.meshgrid(axes[0][start:stop], *axes[1:], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        logw_mesh = np.meshgrid(logws[0][start:stop], *logws[1:], indexing="ij")
        logw = sum(m.ravel() for m in logw_mesh)
        vals = a * mixture_logpdf(m_num, pts) + (1 - a) * mixture_logpdf(m_den, pts) + logw
        chunk_logs.append(_logsumexp(vals))
    return float(_logsumexp(chunk_logs)) / (a - 1)


def mc_renyi(m_num: GenericMixture, m_den: GenericMixture, alpha, spec: McSpec | None = None) -> McEstimate:
    """Importance-sampling Monte-Carlo divergence estimate with stderr.

    Log-mean-exp of the integrand over draws from the proposal side; the
    standard error comes from the delta method.  Estimates whose stderr
    exceeds 10% of the estimate (above a 1e-4 absolute floor) carry
    low_confidence=True rather than failing silently.
    """
    a = validate_order(alpha)
    spec = spec or McSpec()
    if m_num.dim != m_den.dim:
        raise ValueError("mixtures must share a dimension")
    if m_num.dim > 6:
        raise ValueError(f"dimension {m_num.dim} too high for Monte Carlo variance control (max 6)")
    prop = m_num if spec.proposal == "numerator" else m_den

    rng = np.random.Generator(np.random.Philox(spec.seed))
    shift = -np.inf
    s1 = 0.0
    s2 = 0.0
    n = spec.n_samples
    for start in range(0, n, _MC_CHUNK):
        b = min(_MC_CHUNK, n - start)
        x = sample_mixture(prop, b, rng)
        w = a * mixture_logpdf(m_num, x) + (1 - a) * mixture_logpdf(m_den, x) - mixture_logpdf(prop, x)
        m = float(w.max())
        if m > shift:
            scale = math.exp(shift - m) if shift > -np.inf else 0.0
            s1 *= scale
            s2 *= scale * scale
            shift = m
        u = np.exp(w - shift)
        s1 += float(u.sum())
        s2 += float((u * u).sum())
    mean_u = s1 / n
    var_u = max(0.0, (s2 - s1 * s1 / n) / (n - 1))
    estimate = (shift + math.log(mean_u)) / (a - 1)
    stderr = math.sqrt(var_u / n) / mean_u / (a - 1)
    low_confidence = stderr > max(0.1 * abs(estimate), 1e-4)
    return McEstimate(estimate, stderr, n, spec.proposal, low_confidence)


def forward_exact_value(family: MixtureFamily, alpha) -> float:
    """``rdp_math.forward_exact`` at one order; CostLimitError where it is only a bound."""
    (value,), (rule,) = forward_exact(family, [alpha])
    if rule == "bound":
        raise CostLimitError(f"no exact forward path for {family} at order {alpha} fits the enumeration budget")
    return float(value)


def _oracle_divergence(m_num, m_den, alpha, quad_spec, mc_spec, proposal):
    """Quadrature when the grid allows it, Monte Carlo otherwise."""
    if m_num.dim <= quad_spec.max_dim_grid:
        return quad_renyi(m_num, m_den, alpha, quad_spec), 0.0
    est = mc_renyi(m_num, m_den, alpha, McSpec(mc_spec.n_samples, mc_spec.seed, proposal))
    return est.estimate, est.stderr


@dataclass(frozen=True)
class SandwichReport:
    """Oracle values vs exact forward, forward bound and reverse bound.

    ``ok`` is the conjunction of the three one-sided checks: forward oracle
    below the exact forward value, reverse oracle below the reverse bound,
    and the tight value below the loose one, each within its tolerance.
    ``forward_matches_exact`` additionally records two-sided agreement of
    the forward oracle with the exact value (meaningful for deterministic
    quadrature cells, where the two must coincide).
    """

    family: MixtureFamily
    alpha: int
    oracle_forward: float
    oracle_forward_stderr: float
    oracle_reverse: float
    oracle_reverse_stderr: float
    forward_exact: float
    forward_bound: float
    reverse_bound: float
    tight: float
    loose: float
    tol_forward: float
    tol_reverse: float
    forward_matches_exact: bool
    ok_forward_below_exact: bool
    ok_exact_below_bound: bool
    ok_reverse_below_bound: bool
    ok_tight_below_loose: bool

    @property
    def ok(self) -> bool:
        return self.ok_forward_below_exact and self.ok_reverse_below_bound and self.ok_tight_below_loose


def verify_sandwich(
    family: MixtureFamily,
    alpha,
    quad_spec: QuadratureSpec | None = None,
    mc_spec: McSpec | None = None,
) -> SandwichReport:
    """Check oracle <= exact forward <= forward bound and the reverse side.

    Small instances only (d <= 4, at most 6 mixture centers, an order with an
    exact forward path; else an error before any oracle runs).  Failures are
    recorded in the report, never raised.
    """
    a = validate_order(alpha)
    quad_spec = quad_spec or QuadratureSpec()
    mc_spec = mc_spec or McSpec()
    if family.d > 4 or math.comb(family.d, family.k) > 6:
        raise ValueError("sandwich verification is limited to d <= 4 with at most 6 centers")

    fwd_exact = forward_exact_value(family, a)
    mixture = family_mixture(family)
    origin = point_mixture(np.zeros(family.d), family.sigma)
    fwd_oracle, fwd_se = _oracle_divergence(mixture, origin, a, quad_spec, mc_spec, "denominator")
    rev_oracle, rev_se = _oracle_divergence(origin, mixture, a, quad_spec, mc_spec, "numerator")

    fwd_bound = forward_bound(family, a)
    rev_bound = reverse_bound(family, a)
    tight = max(fwd_exact, rev_bound)
    loose = epsilon_loose(family, a)

    tol_f = max(1e-4, 3.0 * fwd_se)
    tol_r = max(1e-4, 3.0 * rev_se)
    return SandwichReport(
        family=family,
        alpha=a,
        oracle_forward=fwd_oracle,
        oracle_forward_stderr=fwd_se,
        oracle_reverse=rev_oracle,
        oracle_reverse_stderr=rev_se,
        forward_exact=fwd_exact,
        forward_bound=fwd_bound,
        reverse_bound=rev_bound,
        tight=tight,
        loose=loose,
        tol_forward=tol_f,
        tol_reverse=tol_r,
        forward_matches_exact=abs(fwd_oracle - fwd_exact) <= tol_f,
        ok_forward_below_exact=fwd_oracle <= fwd_exact + tol_f,
        ok_exact_below_bound=fwd_exact <= fwd_bound * (1 + 1e-9) + 1e-12,
        ok_reverse_below_bound=rev_oracle <= rev_bound + tol_r,
        ok_tight_below_loose=tight <= loose + 1e-12,
    )


@dataclass(frozen=True)
class OffsetIdentityReport:
    """Reverse divergence vs its two-part decomposition.

    The Gaussian-vs-mixture divergence must equal the divergence to the
    Gaussian at the mixture-center average (closed form alpha c^2 k^2 /
    (2 sigma^2 d)) plus the divergence from that Gaussian to the mixture.
    """

    family: MixtureFamily
    alpha: int
    lhs: float
    shift_term: float
    tail_term: float
    stderr: float
    tol: float
    ok: bool


def verify_offset_identity(
    family: MixtureFamily,
    alpha,
    quad_spec: QuadratureSpec | None = None,
    mc_spec: McSpec | None = None,
) -> OffsetIdentityReport:
    a = validate_order(alpha)
    quad_spec = quad_spec or QuadratureSpec()
    mc_spec = mc_spec or McSpec()
    if family.d > 4:
        raise ValueError("offset identity verification is limited to d <= 4")
    d, k, c, sigma = family.d, family.k, family.c, family.sigma

    mixture = family_mixture(family)
    origin = point_mixture(np.zeros(d), sigma)
    avg = point_mixture(np.full(d, c * k / d), sigma)

    lhs, lhs_se = _oracle_divergence(origin, mixture, a, quad_spec, mc_spec, "numerator")
    shift_term = gaussian_rdp(c * k / math.sqrt(d), sigma, a)
    tail_term, tail_se = _oracle_divergence(avg, mixture, a, quad_spec, mc_spec, "numerator")

    stderr = math.sqrt(lhs_se**2 + tail_se**2)
    tol = max(1e-3, 3.0 * stderr)
    return OffsetIdentityReport(
        family=family,
        alpha=a,
        lhs=lhs,
        shift_term=shift_term,
        tail_term=tail_term,
        stderr=stderr,
        tol=tol,
        ok=abs(lhs - (shift_term + tail_term)) <= tol,
    )


@dataclass(frozen=True)
class DimReductionReport:
    """Divergence with centers padded by a zero coordinate vs without."""

    alpha: int
    sigma: float
    value_lowdim: float
    value_embedded: float
    tol: float
    ok: bool


def verify_dim_reduction(
    centers_lowdim,
    sigma: float,
    alpha,
    quad_spec: QuadratureSpec | None = None,
    tol: float = 2e-4,
) -> DimReductionReport:
    a = validate_order(alpha)
    centers = np.atleast_2d(np.asarray(centers_lowdim, dtype=float))
    low_dim = centers.shape[1]
    if low_dim + 1 > 3:
        raise ValueError("dimension reduction check is limited to embedded dimension <= 3")
    quad_spec = quad_spec or grid_spec(low_dim + 1)

    n = len(centers)
    weights = np.full(n, 1.0 / n)
    low = GenericMixture(centers, weights, sigma)
    embedded = GenericMixture(np.hstack([centers, np.zeros((n, 1))]), weights, sigma)

    value_low = quad_renyi(point_mixture(np.zeros(low_dim), sigma), low, a, quad_spec)
    value_emb = quad_renyi(point_mixture(np.zeros(low_dim + 1), sigma), embedded, a, quad_spec)
    return DimReductionReport(
        alpha=a,
        sigma=sigma,
        value_lowdim=value_low,
        value_embedded=value_emb,
        tol=tol,
        ok=abs(value_emb - value_low) <= tol,
    )
