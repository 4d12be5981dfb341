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

Both evaluate mixture log-densities without a (points, centers, dim)
tensor, with the centers on the leading axis.  The quadrature never forms
grid points: on the tensor grid each component's log density is a sum of
per-axis terms.  A side with one center (the origin, the center average,
the padded point) is therefore separable, and its scaled log density folds
into the per-axis trapezoid log-weights plus one scalar.  Only a side with
two or more centers is evaluated on the grid, a chunk at a time, by
broadcasting per-axis (centers, len(axis)) arrays into (centers, grid...).
When neither side has two centers, the trapezoid sum of the separable
integrand is a product of per-axis sums (Trefethen & Weideman 2014, SIAM
Review 56(3)), and no grid is built at all.  Monte Carlo points go through
``mixture_logpdf``, one (centers, rows) matmul.  Both sum over the
few centers the same way (``_logsumexp_centers``): the max over the
leading axis, then sum(exp(comp - max)) accumulated in place, then log +
max, each a contiguous vector pass.  Its error is a few ulps of
1 + |result| (Blanchard, Higham & Higham 2021, "Accurately computing the
log-sum-exp and softmax functions"); the tests hold it within
1e-14 (1 + |result|) of a ``np.logaddexp`` chain.

``verify_sandwich`` draws its Monte Carlo points once for both directions:
the forward and reverse pairs have the same one-center side, so they
sample the same points and share their two log densities.

Both oracles work in blocks of _BLOCK = 2^15 rows or cells, so that each
array pass runs over a few hundred kB, from the L2 cache.  The quadrature
takes its grid chunks one block of cells at a time (at least one
leading-axis row, ``_chunk_rows``).  Monte Carlo still takes each 2^20-draw
chunk's component indices (or their one-center skip) at once, which fixes
the stream layout, then draws the normals, evaluates both log densities
and adds to the running sums a block of rows at a time.  Every draw is
therefore bit for bit what one (chunk, dim) draw gives; only the grouping
of the sums changed, which moved the benchmark pools' oracle values by at
most 8.8e-16 (1 + |value|) against whole chunks.  Peak memory is a few
blocks: 4.8 MB for a 200k-draw, six-center sandwich cell, 0.9 MB for a
541 x 541 grid cell.

Estimates are pure functions of (inputs, spec, seed): grids accumulate in
a fixed order, Monte-Carlo chunks and blocks have a fixed size, so
identical calls are bit-identical.
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
    "CHECK_MAX_D",
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

# Monte Carlo chunks fix the stream layout; blocks bound every array pass
# (the module docstring).
_MC_CHUNK = 1 << 20
_BLOCK = 1 << 15

# Largest family d each check runs on (``dimred``: before the padding
# coordinate).  ``verify_sandwich``, ``verify_offset_identity`` and
# ``verify_dim_reduction`` refuse larger ones; ``verify`` skips them.
CHECK_MAX_D = {"sandwich": 4, "offset": 4, "dimred": 2}


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
        if self.max_dim_grid > 3:
            # One chunk is a leading-axis row times the whole grid tail: at 4
            # dimensions that tail alone is about 1e8 cells.
            raise ValueError(f"max_dim_grid must be <= 3, got {self.max_dim_grid}; use mc_renyi above three dimensions")


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

    The side the samples are drawn from is not a parameter: ``mc_renyi``
    draws from the side with fewer centers, the denominator on a tie.
    """

    n_samples: int = 10_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 100_000:
            raise ValueError(f"n_samples must be >= 1e5, got {self.n_samples}")


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


def _logsumexp_centers(comp: np.ndarray) -> np.ndarray:
    """log(sum(exp(comp))) over the leading (centers) axis; overwrites ``comp``.

    top + log(sum(exp(comp - top))) with top the max over centers: the
    subtraction and exp run in place, and the sum accumulates into the
    first center's row, so every pass runs over contiguous rows.  The sum
    lies in [1, centers], so the result is within a few ulps of
    1 + |result| (Blanchard, Higham & Higham 2021), and the tests hold it
    within 1e-14 (1 + |result|) of a ``np.logaddexp`` chain.  It gives what
    that chain gives on the special entries: a single center is its row,
    returned as it is; two equal entries give top + log 2; a -inf
    (zero-weight) center adds exactly nothing; a point whose centers are
    all -inf gives -inf, +inf gives +inf and NaN gives NaN (a non-finite
    top is taken out as 0).
    """
    if len(comp) == 1:
        return comp[0]
    shift = comp.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        np.subtract(comp, shift, out=comp)
        np.exp(comp, out=comp)
        out = comp[0]
        for row in comp[1:]:
            out += row
        np.log(out, out=out)
    out += shift
    return out


def _log_weights(mixture: GenericMixture) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(mixture.weights)


def _log_norm(mixture: GenericMixture) -> float:
    # log of the Gaussian normalisation (2 pi sigma^2)^(dim/2).
    return 0.5 * mixture.dim * math.log(2.0 * math.pi * mixture.sigma**2)


def mixture_logpdf(mixture: GenericMixture, x: np.ndarray) -> np.ndarray:
    """Log density of the mixture at each row of x.

    -|x - mu|^2 / (2 sigma^2) = x.mu / sigma^2 - |mu|^2 / (2 sigma^2)
    - |x|^2 / (2 sigma^2).  The last term is the same for every component,
    so it is subtracted once, after the sum over centers; the components
    cost one (centers, rows) matmul and never a (rows, centers, dim) tensor.
    The centers sit on the leading axis, where ``_logsumexp_centers`` sums
    them in place, as on the quadrature grid.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    var = mixture.sigma**2
    centers = mixture.centers
    comp = (centers / var) @ x.T
    comp += (_log_weights(mixture) - np.einsum("nd,nd->n", centers, centers) / (2.0 * var))[:, None]
    out = _logsumexp_centers(comp)
    out -= np.einsum("bd,bd->b", x, x) / (2.0 * var)
    out -= _log_norm(mixture)
    return out


def sample_mixture(mixture: GenericMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the mixture: centers[idx] + sigma z, assembled in place.

    ``rng.choice`` with weights takes one raw draw per index.  One center
    needs no indices: the stream skips the n raw draws they would take and
    the rows add centers[0] by broadcasting, so stream and draws are those
    of the indexed form.
    """
    (x,) = _draw_blocks(mixture, n, rng, max(n, 1))
    return x


def _draw_blocks(mixture: GenericMixture, n: int, rng: np.random.Generator, block: int):
    """The rows of ``sample_mixture(mixture, n, rng)``, ``block`` rows at a time.

    The n indices (or the skip of their raw draws) come first, then the
    normals block by block.  The standard normals take their raw draws one
    value at a time, in row-major order, so the blocks joined are the rows
    of one (n, dim) draw bit for bit, and leave the stream in the same
    state.  n = 0 yields one empty block.
    """
    one = len(mixture.weights) == 1
    if one:
        rng.bit_generator.random_raw(n, output=False)
    else:
        idx = rng.choice(len(mixture.weights), size=n, p=mixture.weights)
    for start in range(0, max(n, 1), block):
        x = rng.standard_normal((min(block, n - start), mixture.dim))
        x *= mixture.sigma
        x += mixture.centers[0] if one else mixture.centers[idx[start : start + len(x)]]
        yield x


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


def _on_axis(values: np.ndarray, j: int, dim: int) -> np.ndarray:
    # Values of shape (..., len) with their last axis placed on axis j of a
    # dim-axis grid; the leading axes stay in front.
    lead = values.shape[:-1]
    return values.reshape(lead + (1,) * j + values.shape[-1:] + (1,) * (dim - 1 - j))


def _grid_logpdf(mixture: GenericMixture, axes) -> np.ndarray:
    """Log density of the mixture on the tensor grid of ``axes``.

    Every term of a component's log density separates by axis, so the
    components are per-axis (centers, len(axis)) arrays broadcast into
    (centers, grid...); only the sum over the leading centers axis couples
    the grid axes, and ``_logsumexp_centers`` reduces it in place.
    """
    inv = 1.0 / (2.0 * mixture.sigma**2)
    comp = (_log_weights(mixture) - _log_norm(mixture)).reshape((-1,) + (1,) * len(axes))
    for j, axis in enumerate(axes):
        term = -((axis - mixture.centers[:, j, None]) ** 2) * inv
        comp = comp + _on_axis(term, j, len(axes))
    return _logsumexp_centers(comp)


def quad_renyi(m_num: GenericMixture, m_den: GenericMixture, alpha, spec: QuadratureSpec | None = None) -> float:
    """Trapezoid-rule estimate of the order-alpha divergence num-vs-den.

    Deterministic for a fixed spec; the integrand num^a den^(1-a) is
    accumulated in log space.  A side with one center is separable: its
    scaled log density e (log w - log-norm - sum_j (x_j - mu_j)^2 /
    (2 sigma^2)), with e = a for the numerator and 1 - a for the
    denominator, folds into the per-axis trapezoid log-weights and one
    scalar (log w is kept, since a lone weight is 1 only to within 1e-12).
    When neither side has more than one center the trapezoid sum is a
    product of per-axis sums (Trefethen & Weideman 2014, SIAM Review
    56(3)), so log sum = scalar + sum_j logsumexp(axis j's log-weights) and
    no grid is built.  Otherwise the mixture sides are evaluated on the
    tensor grid one chunk of leading-axis rows at a time (``_chunk_log_sum``)
    by broadcasting per-axis arrays (``_grid_logpdf``); no grid point array
    is formed, and the chunk values are summed by ``rdp_math._logsumexp``.
    A chunk is one _BLOCK of cells, or one row where a row's tail holds
    more (``_chunk_rows``); the chunking fixes only how the sum is grouped,
    within 1e-15 (1 + |value|) of a single chunk.  Dimensions above
    spec.max_dim_grid are refused with a pointer to ``mc_renyi``.
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
    const = 0.0
    mixtures = []
    for mixture, e in ((m_num, a), (m_den, 1 - a)):
        if len(mixture.weights) > 1:
            mixtures.append((mixture, e))
            continue
        inv = 1.0 / (2.0 * mixture.sigma**2)
        for j, axis in enumerate(axes):
            logws[j] += e * (-((axis - mixture.centers[0, j]) ** 2) * inv)
        const += e * (float(_log_weights(mixture)[0]) - _log_norm(mixture))
    if not mixtures:
        return (const + sum(float(_logsumexp(logw)) for logw in logws)) / (a - 1)

    chunk_rows = _chunk_rows(math.prod(len(ax) for ax in axes[1:]))
    chunk_logs = []
    for start in range(0, len(axes[0]), chunk_rows):
        rows = slice(start, start + chunk_rows)
        chunk_logs.append(_chunk_log_sum(mixtures, [axes[0][rows], *axes[1:]], [logws[0][rows], *logws[1:]]))
    return (float(_logsumexp(chunk_logs)) + const) / (a - 1)


def _chunk_rows(tail: int) -> int:
    """Leading-axis rows per grid chunk, for ``tail`` cells per row: one _BLOCK of cells, at least a row."""
    return max(1, _BLOCK // tail)


def _chunk_log_sum(mixtures, axes, logws) -> float:
    """log of the trapezoid sum of prod m^e over the grid of ``axes``.

    ``mixtures`` holds the (mixture m, exponent e) sides with two or more
    centers; the one-center sides are already folded into ``logws``.  One
    buffer holds the scaled mixture log densities plus the per-axis
    log-weights and is reduced in place as top + log(sum(exp(vals - top))).
    Every chunk-size array dies on return, before the next chunk is built,
    so the peak is about one (centers, chunk) buffer of at most a _BLOCK of
    cells per center (a row's tail where that is larger).
    """
    (first, e_first), *rest = mixtures
    vals = _grid_logpdf(first, axes)
    vals *= e_first
    for mixture, e in rest:
        other = _grid_logpdf(mixture, axes)
        other *= e
        vals += other
        del other
    for j, logw in enumerate(logws):
        vals += _on_axis(logw, j, len(axes))
    top = float(vals.max())
    shift = top if math.isfinite(top) else 0.0
    vals -= shift
    np.exp(vals, out=vals)
    with np.errstate(divide="ignore"):
        return float(np.log(vals.sum())) + shift


def mc_renyi(m_num: GenericMixture, m_den: GenericMixture, alpha, spec: McSpec | None = None) -> McEstimate:
    """Importance-sampling Monte-Carlo divergence estimate with stderr.

    Log-mean-exp of the integrand over draws from the proposal side: the
    side with fewer centers, whose likelihood-ratio tails are lighter (the
    Gaussian against a mixture), and the denominator on a tie.  The
    standard error comes from the delta method.  Estimates whose stderr
    exceeds 10% of the estimate (above a 1e-4 absolute floor) carry
    low_confidence=True rather than failing silently.
    """
    (estimate,) = _mc_estimates(m_num, m_den, validate_order(alpha), spec or McSpec())
    return estimate


class _LogMeanExp:
    """Running sums of u = exp(w - shift) and u^2, rescaled when max(w) rises."""

    def __init__(self):
        self.shift = -np.inf
        self.s1 = 0.0
        self.s2 = 0.0

    def add(self, w: np.ndarray) -> None:
        m = float(w.max())
        if m > self.shift:
            scale = math.exp(self.shift - m) if self.shift > -np.inf else 0.0
            self.s1 *= scale
            self.s2 *= scale * scale
            self.shift = m
        u = np.exp(w - self.shift)
        self.s1 += float(u.sum())
        self.s2 += float((u * u).sum())

    def estimate(self, n: int, a: int, proposal: str) -> McEstimate:
        mean_u = self.s1 / n
        var_u = max(0.0, (self.s2 - self.s1 * self.s1 / n) / (n - 1))
        estimate = (self.shift + math.log(mean_u)) / (a - 1)
        stderr = math.sqrt(var_u / n) / mean_u / (a - 1)
        low_confidence = stderr > max(0.1 * abs(estimate), 1e-4)
        return McEstimate(estimate, stderr, n, proposal, low_confidence)


def _mc_estimates(m_num: GenericMixture, m_den: GenericMixture, a: int, spec: McSpec, both: bool = False):
    """``mc_renyi``'s loop: (num vs den,), or (num vs den, den vs num) when ``both``.

    Both directions draw from the side with fewer centers, so one draw and
    one pair of log densities serve both, and each estimate is bit for bit
    what its own ``mc_renyi`` call gives.  On a tie each direction draws
    from its own denominator, so the two take separate draws.

    Each _MC_CHUNK of draws takes its component indices (or skips their
    raw draws) first, which fixes the stream; ``_draw_blocks`` then yields
    its rows a _BLOCK at a time, bit for bit the chunk's one draw, and each
    block's log densities go straight into the ``_LogMeanExp`` sums.  The
    block sums group the chunk's sums differently, within 2e-15
    (1 + |value|) of whole chunks (``tests/reference_formulas.py``).
    """
    if m_num.dim != m_den.dim:
        raise ValueError("mixtures must share a dimension")
    if m_num.dim > 6:
        raise ValueError(f"dimension {m_num.dim} too high for Monte Carlo variance control (max 6)")
    if both and len(m_num.weights) == len(m_den.weights):
        return _mc_estimates(m_num, m_den, a, spec) + _mc_estimates(m_den, m_num, a, spec)
    numerator = len(m_num.weights) < len(m_den.weights)
    prop = m_num if numerator else m_den

    rng = np.random.Generator(np.random.Philox(spec.seed))
    forward = _LogMeanExp()
    reverse = _LogMeanExp() if both else None
    n = spec.n_samples
    for start in range(0, n, _MC_CHUNK):
        for x in _draw_blocks(prop, min(_MC_CHUNK, n - start), rng, _BLOCK):
            log_num = mixture_logpdf(m_num, x)
            log_den = mixture_logpdf(m_den, x)
            log_prop = log_num if numerator else log_den
            forward.add(a * log_num + (1 - a) * log_den - log_prop)
            if reverse is not None:
                reverse.add(a * log_den + (1 - a) * log_num - log_prop)
    sides = ("numerator", "denominator") if numerator else ("denominator", "numerator")
    if reverse is None:
        return (forward.estimate(n, a, sides[0]),)
    return forward.estimate(n, a, sides[0]), reverse.estimate(n, a, sides[1])


def forward_exact_value(family: MixtureFamily, alpha) -> float:
    """``rdp_math.forward_exact`` at one order; CostLimitError where it is only a bound."""
    (value,), (rule,) = forward_exact(family, [alpha])
    if rule == "bound":
        raise CostLimitError(f"no exact forward path for {family} at order {alpha} fits the n^alpha tuple guard")
    return float(value)


def _oracle_divergence(m_num, m_den, alpha, quad_spec, mc_spec, both=False) -> list:
    """[(num vs den, stderr)], then (den vs num, stderr) when ``both``.

    Quadrature when the grid allows it, Monte Carlo otherwise, where one
    draw serves both directions (``_mc_estimates``).
    """
    if m_num.dim <= quad_spec.max_dim_grid:
        pairs = [(m_num, m_den), (m_den, m_num)][: 1 + both]
        return [(quad_renyi(p, q, alpha, quad_spec), 0.0) for p, q in pairs]
    return [(e.estimate, e.stderr) for e in _mc_estimates(m_num, m_den, alpha, mc_spec, both)]


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

    Small instances only (d <= ``CHECK_MAX_D["sandwich"]`` and an order with
    an exact forward path; else an error before any oracle runs).  Failures are
    recorded in the report, never raised.  The grid defaults to
    ``grid_spec(family.d)``, as in ``verify``; above it, one Monte Carlo
    draw serves both directions.
    """
    a = validate_order(alpha)
    quad_spec = quad_spec or grid_spec(family.d)
    mc_spec = mc_spec or McSpec()
    if family.d > CHECK_MAX_D["sandwich"]:
        raise ValueError(f"sandwich verification is limited to d <= {CHECK_MAX_D['sandwich']}")

    fwd_exact = forward_exact_value(family, a)
    mixture = family_mixture(family)
    origin = point_mixture(np.zeros(family.d), family.sigma)
    (fwd_oracle, fwd_se), (rev_oracle, rev_se) = _oracle_divergence(mixture, origin, a, quad_spec, mc_spec, both=True)

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
    """Check the reverse-divergence decomposition of ``OffsetIdentityReport``.

    Small instances only (d <= ``CHECK_MAX_D["offset"]``).  The grid
    defaults to ``grid_spec(family.d)``, as in ``verify``.
    """
    a = validate_order(alpha)
    quad_spec = quad_spec or grid_spec(family.d)
    mc_spec = mc_spec or McSpec()
    if family.d > CHECK_MAX_D["offset"]:
        raise ValueError(f"offset identity verification is limited to d <= {CHECK_MAX_D['offset']}")
    d, k, c, sigma = family.d, family.k, family.c, family.sigma

    mixture = family_mixture(family)
    origin = point_mixture(np.zeros(d), sigma)
    avg = point_mixture(np.full(d, c * k / d), sigma)

    ((lhs, lhs_se),) = _oracle_divergence(origin, mixture, a, quad_spec, mc_spec)
    shift_term = gaussian_rdp(c * k / math.sqrt(d), sigma, a)
    ((tail_term, tail_se),) = _oracle_divergence(avg, mixture, a, quad_spec, mc_spec)

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


_DIM_REDUCTION_TOL = 2e-4


def verify_dim_reduction(centers_lowdim, sigma: float, alpha) -> DimReductionReport:
    """Reverse divergence to the centers' mixture, unpadded vs padded, on ``grid_spec`` grids."""
    a = validate_order(alpha)
    centers = np.atleast_2d(np.asarray(centers_lowdim, dtype=float))
    low_dim = centers.shape[1]
    if low_dim > CHECK_MAX_D["dimred"]:
        raise ValueError(f"dimension reduction check is limited to embedded dimension <= {CHECK_MAX_D['dimred'] + 1}")
    quad_spec = grid_spec(low_dim + 1)

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
        tol=_DIM_REDUCTION_TOL,
        ok=abs(value_emb - value_low) <= _DIM_REDUCTION_TOL,
    )
