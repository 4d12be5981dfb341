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
                                ``oracles.quad_renyi`` broadcasts per-axis
                                terms instead and is checked against it.
* ``logsumexp_centers_logaddexp`` -- log(sum(exp)) over the leading
                                (centers) axis by a ``np.logaddexp`` chain,
                                one pass per extra center;
                                ``oracles._logsumexp_centers`` shifts by the
                                max and sums in place instead, and is
                                checked against it.

The exact forward enumeration has no copy here: ``rdp_math.forward_exact_enum``
is itself the independent check of the overlap-count path, and
``tests/test_rdp_math.py`` checks it against a per-tuple loop
(``naive_enum_forward``).
"""

import math

import numpy as np

from amplify_acct.oracles import _GRID_CHUNK_CELLS, QuadratureSpec, _axis_log_weights, _grid_axes, mixture_logpdf
from amplify_acct.rdp_math import GenericMixture, MixtureFamily, _logsumexp, validate_order


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

    The same grid, chunks and accumulation order as ``oracles.quad_renyi``,
    but each chunk's meshgrid is stacked into a (cells, dim) point array and
    both log densities come from ``mixture_logpdf`` at those points.
    """
    a = validate_order(alpha)
    spec = spec or QuadratureSpec()
    dim = m_num.dim
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
