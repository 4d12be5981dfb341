"""Reference formulas that only the tests use.

* ``reverse_bound_paper``    -- the paper's closed-form reverse formula.  It
                                is below the true divergence (counterexample
                                in its docstring), so the accountant uses
                                ``rdp_math.reverse_bound``; the tests pin the
                                counterexample against it.
* ``gaussian_rdp_same_mean`` -- equal-mean Gaussians with different
                                isotropic variances, a closed form the
                                quadrature oracle is checked against.
* ``mixture_logpdf_direct``  -- the mixture log-density from the
                                (rows, centers, dim) difference tensor;
                                ``oracles.mixture_logpdf`` expands the square
                                instead and is checked against it.
* ``quad_renyi_points``      -- trapezoid-rule divergence from an explicit
                                (cells, dim) grid point array per chunk;
                                ``oracles.quad_renyi`` folds one-center sides
                                into per-axis sums and broadcasts per-axis
                                terms for the rest instead, and is checked
                                against it.
* ``logsumexp_centers_logaddexp`` -- log(sum(exp)) over the leading
                                (centers) axis by a ``np.logaddexp`` chain,
                                one pass per extra center;
                                ``oracles._logsumexp_centers`` shifts by the
                                max and sums in place instead, and is
                                checked against it.
* ``logsumexp_masked_copy``  -- log(sum(exp)) from fresh arrays at every
                                step: a - top with the tops masked to -inf
                                by ``np.where``, then exp over all of it.
                                ``rdp_math._logsumexp`` works in one buffer
                                and skips the exps that round to 0; the
                                tests pin the two bit for bit.
* ``log_poly_mul_per_product`` -- truncated log-coefficient product with
                                its gather index and mask rebuilt per call;
                                ``rdp_math._log_poly_mul`` reads them from a
                                per-shape table.  Pinned bit for bit.
* ``forward_exact_k1_curve_per_call`` -- the k=1 series with every
                                order-only array rebuilt per call, over the
                                two functions above;
                                ``rdp_math.forward_exact_k1_curve`` keeps
                                them per order tuple.  Pinned bit for bit.
* ``overlap_log_weights_comb`` -- the overlap log-weights from fresh
                                ``math.comb`` calls per term;
                                ``rdp_math._overlap_log_weights`` builds the
                                same integers by recurrence.  Pinned bit for
                                bit.
* ``sample_mixture_choice``  -- mixture draws that take the component
                                indices by ``rng.choice`` even for one
                                center; ``oracles.sample_mixture`` skips the
                                same raw draws there instead.  Pinned bit for
                                bit, stream state included.
* ``mc_estimates_per_chunk`` -- ``oracles._mc_estimates`` with each
                                2^20-draw chunk drawn, evaluated and summed
                                as one block; ``_mc_estimates`` works
                                through each chunk one cache-sized block of
                                rows at a time instead.  Same draws; the
                                tests hold the estimates within 2e-15
                                (1 + |value|).

The exact forward enumeration has no copy here: ``rdp_math.forward_exact_enum``
is itself the independent check of the overlap-count path, and
``tests/test_rdp_math.py`` checks it against a per-tuple loop
(``naive_enum_forward``).
"""

import math

import numpy as np

from amplify_acct.oracles import (
    _MC_CHUNK,
    QuadratureSpec,
    _axis_log_weights,
    _chunk_rows,
    _grid_axes,
    _LogMeanExp,
    mixture_logpdf,
    sample_mixture,
)
from amplify_acct.rdp_math import (
    GenericMixture,
    MixtureFamily,
    _lgamma,
    _logsumexp,
    check_fields,
    log_comb,
    validate_order,
)


class DivergenceUndefinedError(ValueError):
    """The Renyi integral diverges for the requested order."""


def reverse_bound_paper(family: MixtureFamily, alpha) -> float:
    """The paper's closed-form reverse bound.  REFUTED: kept as a labelled reference.

    alpha c^2 k^2 / (2 sigma^2 d)
      + (1 / (2(alpha-1))) * log[ exp(alpha c^2 k (d-k) / (sigma^2 d))
                                  / (alpha e^x + 1 - alpha)^d ]
    with x = c^2 k (d-k) / (sigma^2 d^2).  The base alpha*e^x + 1 - alpha is
    evaluated as 1 + alpha*expm1(x): x is often below 1e-6 for large d and
    the naive form would lose all precision.

    This is *not* an upper bound on the Gaussian-vs-mixture divergence.
    Counterexample: d=2, k=1, c=sigma=1, alpha=2 gives 0.5501667, while the
    true divergence is 0.5690426 (grid quadrature, an independent 2-D
    ``scipy.integrate.dblquad`` and the exact k=1 integral of
    ``reverse_bound`` agree).  It sits below the truth on 35 of the 54
    cells of the oracle sweep.  Use ``reverse_bound``.
    """
    a = float(validate_order(alpha))
    d, k, c, sigma = family.d, family.k, family.c, family.sigma
    if c == 0:
        return 0.0
    mean_shift = a * c * c * k * k / (2.0 * sigma * sigma * d)
    x = c * c * k * (d - k) / (sigma * sigma * d * d)
    if x < 600.0:
        log_base = math.log1p(a * math.expm1(x))
    else:
        # alpha*e^x dominates; the +1-alpha correction is below float eps.
        log_base = x + math.log(a)
    return max(0.0, mean_shift + (a * d * x - d * log_base) / (2.0 * (a - 1.0)))


def gaussian_rdp_same_mean(sigma_num: float, sigma_den: float, dim: int, alpha) -> float:
    """Divergence of two equal-mean isotropic Gaussians.

    (1/(2(alpha-1))) * log( sigma_num^(2 dim (1-alpha)) sigma_den^(2 dim alpha)
                            / (alpha sigma_den^2 + (1-alpha) sigma_num^2)^dim ).

    Raises DivergenceUndefinedError when the per-coordinate mixture variance
    alpha sigma_den^2 + (1-alpha) sigma_num^2 is not positive, i.e. the order
    is too large for the variance ratio.
    """
    a = validate_order(alpha)
    if sigma_num <= 0 or sigma_den <= 0:
        raise ValueError("sigmas must be positive")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    star = a * sigma_den**2 + (1 - a) * sigma_num**2
    if star <= 0:
        raise DivergenceUndefinedError(
            f"alpha={a} too large for variance ratio: alpha*sigma_den^2 + (1-alpha)*sigma_num^2 = {star}"
        )
    val = dim * (2.0 * a * math.log(sigma_den) + 2.0 * (1 - a) * math.log(sigma_num) - math.log(star)) / (
        2.0 * (a - 1)
    )
    return max(0.0, val)


def mixture_logpdf_direct(mixture: GenericMixture, x) -> np.ndarray:
    """Log density of the mixture at each row of x, from |x - mu|^2 directly."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    diff = x[:, None, :] - mixture.centers[None, :, :]
    sq = np.einsum("bnd,bnd->bn", diff, diff)
    with np.errstate(divide="ignore"):  # a zero weight is a -inf component
        comp = np.log(mixture.weights)[None, :] - sq / (2.0 * mixture.sigma**2)
    norm = 0.5 * mixture.dim * math.log(2.0 * math.pi * mixture.sigma**2)
    return _logsumexp(comp, axis=1) - norm


def logsumexp_centers_logaddexp(comp: np.ndarray) -> np.ndarray:
    """log(sum(exp(comp))) over the leading (centers) axis, by ``np.logaddexp``.

    One pass per extra center; a single center is just its row.  A
    zero-weight center is a -inf row, which logaddexp adds exactly as if
    the center were not there.
    """
    out = comp[0]
    for j in range(1, comp.shape[0]):
        out = np.logaddexp(out, comp[j])
    return out


def quad_renyi_points(m_num: GenericMixture, m_den: GenericMixture, alpha, spec: QuadratureSpec | None = None) -> float:
    """Trapezoid-rule divergence num-vs-den, evaluated point by point.

    The same grid and chunks as ``oracles.quad_renyi``, but every side is
    evaluated at every cell: each chunk's meshgrid is stacked into a
    (cells, dim) point array and both log densities come from
    ``mixture_logpdf`` at those points.  ``quad_renyi`` folds a one-center
    side into per-axis sums instead, so the two differ by rounding only.
    """
    a = validate_order(alpha)
    spec = spec or QuadratureSpec()
    axes = _grid_axes(m_num, m_den, a, spec)
    logws = [_axis_log_weights(ax) for ax in axes]
    chunk_rows = _chunk_rows(math.prod(len(ax) for ax in axes[1:]))

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


def logsumexp_masked_copy(a, axis=None):
    """log(sum(exp(a))) over ``axis``: top + log(count) + log1p(rest / count).

    The form of ``rdp_math._logsumexp``, with a fresh array at each step:
    the tops are masked to -inf by ``np.where`` on a - top, and exp runs
    over every entry.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    is_top = a == top
    count = np.sum(is_top, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    rest = np.sum(np.exp(np.where(is_top, -np.inf, a - shift)), axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):  # count is 0 on an all-NaN row, whose result is NaN either way
        log_count = np.log(count)
    out = np.log1p(rest / count) + log_count + top
    return out.reshape(())[()] if axis is None else np.squeeze(out, axis=axis)


def log_poly_mul_per_product(la, lb, trunc: int) -> np.ndarray:
    """Truncated product of log-coefficient polynomials, its index and mask built per call."""
    la = la[: trunc + 1]
    j = np.arange(trunc + 1)[:, None] - np.arange(len(la))[None, :]
    inside = (j >= 0) & (j < len(lb))
    terms = np.where(inside, la[None, :] + lb[np.clip(j, 0, len(lb) - 1)], -np.inf)
    return logsumexp_masked_copy(terms, axis=1)


def forward_exact_k1_curve_per_call(d: int, c: float, sigma: float, gamma: float, orders) -> np.ndarray:
    """The k=1 series of ``rdp_math.forward_exact_k1_curve``, every order-only array built per call."""
    check_fields(d=d, c=c, sigma=sigma, gamma=gamma)
    a_int = np.array([validate_order(a) for a in orders])
    if d == 1 and gamma == 1.0:
        return a_int.astype(float) * c**2 / (2.0 * sigma**2)
    theta = c * c / (2.0 * sigma * sigma)
    if theta == 0.0:
        return np.zeros(len(a_int))
    amax = int(a_int.max())
    m = np.arange(amax + 1, dtype=float)
    log_fact = _lgamma(m + 1.0)
    powered, base, power = None, theta * m * (m - 1.0) - log_fact, d
    while True:  # binary exponentiation from the base, as ``rdp_math._log_poly_pow``
        if power & 1:
            powered = base if powered is None else log_poly_mul_per_product(powered, base, amax)
        power >>= 1
        if not power:
            break
        base = log_poly_mul_per_product(base, base, amax)
    a = a_int.astype(float)
    if gamma == 1.0:
        log_moment = log_fact[a_int] + powered[a_int] - a * math.log(d)
    else:
        j = m[2:]
        rest = np.maximum(a[:, None] - j, 0.0)
        terms = log_fact[a_int][:, None] - log_fact[rest.astype(int)] + powered[2:]
        terms += j * (math.log(gamma) - math.log(d)) + rest * math.log1p(-gamma)
        lead = (a - 1.0) * math.log1p(-gamma) + np.log1p(gamma * (a - 1.0))
        log_moment = logsumexp_masked_copy(np.column_stack([np.where(j <= a[:, None], terms, -np.inf), lead]), axis=1)
    return np.maximum(log_moment / (a - 1.0), 0.0)


def overlap_log_weights_comb(d: int, k: int) -> np.ndarray:
    """log of C(k,l) C(d-k,k-l) / C(d,k) for l = 0..k, each binomial a fresh ``math.comb``."""
    if min(k, d - k) <= 700:
        log_cdk = math.log(math.comb(d, k))
        weights = np.full(k + 1, -math.inf)
        for l in range(max(0, 2 * k - d), k + 1):
            weights[l] = math.log(math.comb(k, l) * math.comb(d - k, k - l)) - log_cdk
        return weights
    l = np.arange(k + 1)
    return log_comb(k, l) + log_comb(d - k, k - l) - log_comb(d, k)


def sample_mixture_choice(mixture: GenericMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws centers[idx] + sigma z, the indices drawn by ``rng.choice`` for any number of centers."""
    idx = rng.choice(len(mixture.weights), size=n, p=mixture.weights)
    x = rng.standard_normal((n, mixture.dim))
    x *= mixture.sigma
    x += mixture.centers[0] if len(mixture.weights) == 1 else mixture.centers[idx]
    return x


def mc_estimates_per_chunk(m_num: GenericMixture, m_den: GenericMixture, a: int, spec, both: bool = False):
    """``oracles._mc_estimates`` with every chunk drawn by ``sample_mixture`` and evaluated whole."""
    if both and len(m_num.weights) == len(m_den.weights):
        return mc_estimates_per_chunk(m_num, m_den, a, spec) + mc_estimates_per_chunk(m_den, m_num, a, spec)
    numerator = len(m_num.weights) < len(m_den.weights)
    prop = m_num if numerator else m_den
    rng = np.random.Generator(np.random.Philox(spec.seed))
    forward = _LogMeanExp()
    reverse = _LogMeanExp() if both else None
    n = spec.n_samples
    for start in range(0, n, _MC_CHUNK):
        x = sample_mixture(prop, min(_MC_CHUNK, n - start), rng)
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
