"""Numerically stable Renyi-divergence bounds for symmetric Gaussian mixtures.

The central pair of distributions is a uniform mixture of Gaussians whose
centers are the binary vectors of length ``d`` with exactly ``k`` ones,
scaled by ``c`` (``MixtureFamily``), against the isotropic Gaussian of the
same per-coordinate noise ``sigma`` centered at the origin.  For integer
orders ``alpha >= 2`` this module evaluates:

* ``gaussian_rdp``           -- two equal-covariance Gaussians at shift c.
* ``forward_bound``          -- overlap-count upper bound on the
                                mixture-vs-Gaussian divergence, O(k) terms.
* ``forward_exact_enum``     -- exact divergence of an arbitrary small
                                mixture, summed over index multisets from
                                itertools, a chunk at a time, with
                                multinomial weights; guarded by n^alpha
                                tuples.  The tests' independent reference.
* ``_forward_exact_overlap`` -- exact divergence of the k-hot family from
                                integer counts of the tuples by pairwise
                                overlap (a DP over level histograms of the
                                column sums, ``_overlap_counts``).
* ``forward_exact_k1_curve`` -- the one forward series kernel: exact
                                divergence of the one-hot family at sample
                                rate gamma, O(alpha^2 log d); gamma = 1 is
                                the k=1 family, d = 1 the Poisson-subsampled
                                Gaussian.
* ``reverse_bound``          -- upper bound on the Gaussian-vs-mixture
                                divergence: exact to quadrature accuracy and
                                rounded up for k=1 (a Laplace-transform
                                integral) and for small two-hot families, a
                                sum of one-hot blocks otherwise.
* ``forward_exact``          -- the one forward-path selector: per order the
                                k=1 series, the overlap counts within the
                                n^alpha guard, or the bound capped for k >= 2
                                by the d-fold Poisson curve at rate k/d, and
                                which ran.
* ``epsilon_tight_curve``    -- max(``forward_exact``, reverse bound) per
                                order (``epsilon_tight`` at one order).
* ``epsilon_loose``          -- max(forward bound, reverse bound); for k>=2
                                the forward bound is capped by the Poisson
                                curve.

The paper's closed-form reverse formula is not an upper bound; it lives
with its counterexample in the tests (``tests/reference_formulas.py``).

Every sum of exponentials runs in log space (log-gamma binomials from
``math.lgamma`` plus a numpy log-sum-exp that takes the largest term out
of the sum, ``_logsumexp``), so results stay finite for d up to 1e6 and
alpha up to 1000.  Fractional orders raise ``ValueError`` instead of being
interpolated.  All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

__all__ = [
    "CostLimitError",
    "GenericMixture",
    "MixtureFamily",
    "check_fields",
    "epsilon_loose",
    "epsilon_loose_curve",
    "epsilon_tight",
    "epsilon_tight_curve",
    "family_mixture",
    "forward_bound",
    "forward_bound_curve",
    "forward_exact",
    "forward_exact_enum",
    "forward_exact_k1_curve",
    "gaussian_rdp",
    "reverse_bound",
    "reverse_bound_curve",
    "validate_order",
]

# Hard cap on n**alpha for the tuple enumeration path.
ENUM_TUPLE_LIMIT = 10**7

_ENUM_CHUNK = 1 << 17


class CostLimitError(ValueError):
    """Exact enumeration would exceed the tuple budget."""


class CostGuardWarning(UserWarning):
    """A cost guard replaced a computation by a looser bound; the message names the guard."""


def validate_order(alpha) -> int:
    """Return alpha as an int, rejecting fractional or sub-2 orders."""
    a = int(alpha)
    if a != alpha or a < 2:
        raise ValueError(f"Renyi order must be an integer >= 2, got {alpha!r}")
    return a


# The rule for each field name: what a valid value must do, and the test that
# finds an invalid one.  k has its own rule in ``check_fields``.
_FIELD_RULES = {
    **dict.fromkeys(("c", "c_split", "c_nonsplit"), ("be nonnegative", lambda v: v < 0)),
    "sigma": ("be positive", lambda v: v <= 0),
    **dict.fromkeys(
        ("d", "T", "count", "n_epochs", "n_samples", "param_dim", "in_dim", "hidden_dim"), ("be >= 1", lambda v: v < 1)
    ),
    "gamma": ("be in (0, 1]", lambda v: not 0 < v <= 1),
    "delta": ("be in (0, 1)", lambda v: not 0 < v < 1),
    "seed": ("be >= 0", lambda v: v < 0),
}


def check_fields(spec=None, /, **values) -> None:
    """Raise ValueError "{name} must ..., got {value}" for the first value that breaks its name's rule.

    The values are the fields of the dataclass ``spec``, or the keywords.
    c, c_split and c_nonsplit are >= 0; sigma > 0; d, T, count, n_epochs and
    the task sizes >= 1; gamma in (0, 1]; delta in (0, 1); seed >= 0;
    1 <= k <= T, or <= d where there is no T.  Names without a rule pass
    unchecked.
    """
    if spec is not None:
        values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    for name, value in values.items():
        if name == "k":
            top = "T" if "T" in values else "d"
            if not 1 <= value <= values[top]:
                raise ValueError(f"k must satisfy 1 <= k <= {top}, got k={value}, {top}={values[top]}")
        elif name in _FIELD_RULES and _FIELD_RULES[name][1](value):
            raise ValueError(f"{name} must {_FIELD_RULES[name][0]}, got {value}")


# exp(x) for x <= _EXP_ZERO is below 0.21 of the smallest subnormal (4.9e-324): it rounds to 0.
_EXP_ZERO = -746.0


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all entries when None), in numpy.

    The largest entry is taken out of the sum: top + log(count) +
    log1p(sum of exp(a - top) over the other entries / count), where count
    is how many entries equal top.  Summing the rest through log1p keeps
    full relative precision when they are tiny next to the top, which a
    plain top + log(sum) loses.  Rows whose entries are all -inf give -inf.

    One buffer takes a - top, then exp in place except where the entry is a
    top or its exp rounds to 0 (a - top <= ``_EXP_ZERO``, -inf included);
    those are set to 0.  The sum sees the same values, in the same layout,
    as exp over a copy with the tops masked to -inf, without the slow
    underflowing exp calls.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    is_top = a == top
    count = np.count_nonzero(is_top, axis=axis, keepdims=True)
    buf = np.subtract(a, np.where(np.isfinite(top), top, 0.0), out=np.empty_like(a))
    zero = buf <= _EXP_ZERO
    zero |= is_top
    np.exp(buf, out=buf, where=~zero)
    buf[zero] = 0.0
    rest = np.sum(buf, axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):  # count is 0 on an all-NaN row, whose result is NaN either way
        log_count = np.log(count)
    out = np.log1p(rest / count) + log_count + top
    return out.reshape(())[()] if axis is None else np.squeeze(out, axis=axis)


def _lgamma_one(v: float) -> float:
    # math.lgamma raises at the poles 0, -1, -2, ...; log|Gamma| is +inf there.
    return math.inf if v <= 0.0 and v.is_integer() else math.lgamma(v)


def _lgamma(x) -> np.ndarray:
    """log|Gamma(x)| elementwise, by ``math.lgamma``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(_lgamma_one(float(x)))
    return np.array([_lgamma_one(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def log_comb(n, k):
    """log of the binomial coefficient, vectorized, via log-gamma (``math.lgamma``)."""
    n, k = np.asarray(n), np.asarray(k)
    return _lgamma(n + 1) - _lgamma(k + 1) - _lgamma(n - k + 1)


@dataclass(frozen=True)
class MixtureFamily:
    """Mixture of all k-hot binary vectors in R^d scaled by c, noise sigma.

    ``c`` is the center scale (the gradient clipping norm in the accounting
    use case) and ``sigma`` the per-coordinate noise standard deviation, in
    the same units as ``c``.
    """

    d: int
    k: int
    c: float
    sigma: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class GenericMixture:
    """Isotropic Gaussian mixture: explicit centers, weights, shared sigma."""

    centers: np.ndarray  # (n, dim)
    weights: np.ndarray  # (n,)
    sigma: float

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)
        if centers.ndim != 2:
            raise ValueError("centers must be a 2-D array (n, dim)")
        if len(weights) != len(centers):
            raise ValueError(f"{len(weights)} weights for {len(centers)} centers")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {weights.sum()!r}")
        check_fields(sigma=self.sigma)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def family_mixture(family: MixtureFamily) -> GenericMixture:
    """Materialize a MixtureFamily as an explicit uniform GenericMixture.

    Only sensible for small families; refuses more than 1e5 centers.
    """
    n = math.comb(family.d, family.k)
    if n > 10**5:
        raise CostLimitError(f"family has C({family.d},{family.k}) = {n} centers; too many to materialize")
    centers = np.zeros((n, family.d))
    for i, ones in enumerate(itertools.combinations(range(family.d), family.k)):
        centers[i, list(ones)] = family.c
    return GenericMixture(centers, np.full(n, 1.0 / n), family.sigma)


def gaussian_rdp(c: float, sigma: float, alpha) -> float:
    """Order-alpha divergence between N(c*e, sigma^2 I) and N(0, sigma^2 I).

    Equals alpha * c^2 / (2 sigma^2) exactly, for any shift direction e of
    unit norm: the d = 1, gamma = 1 case of ``forward_exact_k1_curve``, so
    it is bit for bit ``accountant.Gaussian``'s curve.
    """
    return float(forward_exact_k1_curve(1, c, sigma, 1.0, [alpha])[0])


@lru_cache(maxsize=64)
def _order_ints(orders: tuple) -> np.ndarray:
    """The orders as a read-only int array, each checked by ``validate_order``; built once per order tuple."""
    a_int = np.array([validate_order(a) for a in orders])
    a_int.flags.writeable = False
    return a_int


def _orders_array(orders) -> np.ndarray:
    """The orders as a fresh float array, checked through ``_order_ints``."""
    return _order_ints(tuple(orders)).astype(float)


@lru_cache(maxsize=256)
def _overlap_log_weights(d: int, k: int) -> np.ndarray:
    """log of C(k,l) C(d-k,k-l) / C(d,k) for l = 0..k (-inf off the support l >= 2k - d).

    Exact integer binomials keep the weights accurate to a few ulp.  With
    j = k - l the term is t_j = C(k,j) C(d-k,j), built by the exact integer
    recurrence t_(j+1) = t_j (k-j)(d-k-j) / (j+1)^2 over the support's
    min(k, d-k) + 1 terms, and by Vandermonde's identity the terms sum to
    C(d,k).  These are the integers that separate ``math.comb`` calls give,
    so the logs are the same floats, at a small part of the cost (1 ms at
    (2000, 655)).  Log-gamma (absolute error around 1e-8 on these
    magnitudes) still takes over beyond min(k, d-k) = 700 only so that no
    output computed there moves.
    """
    if min(k, d - k) <= 700:
        terms = [1]
        for j in range(min(k, d - k)):
            terms.append(terms[-1] * (k - j) * (d - k - j) // (j + 1) ** 2)
        log_cdk = math.log(sum(terms))
        weights = np.full(k + 1, -math.inf)
        weights[k + 1 - len(terms) :] = [math.log(t) - log_cdk for t in reversed(terms)]
        return weights
    l = np.arange(k + 1)
    return log_comb(k, l) + log_comb(d - k, k - l) - log_comb(d, k)


def forward_bound_curve(family: MixtureFamily, orders) -> np.ndarray:
    """Overlap-count forward bound, evaluated for a vector of orders.

    log( (1/C(d,k)) * sum_{l=0..k} C(k,l) C(d-k,k-l) exp(alpha c^2 l / (2 sigma^2)) ),
    grouping center pairs by their overlap l.  Tight at alpha = 2.
    """
    a = _orders_array(orders)
    d, k, c, sigma = family.d, family.k, family.c, family.sigma
    if c == 0:
        return np.zeros(len(a))
    base = _overlap_log_weights(d, k)
    rate = c * c / (2.0 * sigma * sigma) * np.arange(k + 1)
    vals = _logsumexp(base[None, :] + np.outer(a, rate), axis=1)
    return np.maximum(vals, 0.0)


def forward_bound(family: MixtureFamily, alpha) -> float:
    return float(forward_bound_curve(family, [alpha])[0])


def forward_poisson_cap_curve(family: MixtureFamily, orders) -> np.ndarray:
    """d-fold Poisson-subsampled Gaussian at rate k/d: a forward upper bound.

    The forward moment of the k-hot family is E exp(theta sum_v m_v(m_v-1)),
    theta = c^2/(2 sigma^2), where m_v counts how many of alpha independent
    uniform k-subsets of [d] contain v.  The indicators of one uniform
    k-subset are negatively associated (Joag-Dev & Proschan 1983);
    independent NA families are jointly NA and sums over disjoint index sets
    stay NA, so (m_v) is NA.  exp(theta m(m-1)) is nondecreasing on the
    naturals, so the moment is at most prod_v E exp(theta m_v(m_v-1)) with
    m_v ~ Bin(alpha, k/d): the d-th power of the per-iteration Poisson
    moment.  Hence the Bis(T=d, k) forward divergence is at most d times the
    Poisson-subsampled Gaussian curve at gamma = k/d (the series kernel at
    d = 1), at every order.
    """
    return family.d * forward_exact_k1_curve(1, family.c, family.sigma, family.k / family.d, orders)


def _forward_fallback_curve(family: MixtureFamily, orders) -> np.ndarray:
    """The forward side when no exact path runs: the overlap-count bound,
    capped for k >= 2 by ``forward_poisson_cap_curve``."""
    fwd = forward_bound_curve(family, orders)
    if family.k >= 2:
        fwd = np.minimum(fwd, forward_poisson_cap_curve(family, orders))
    return fwd


# ------------------------------------------------------------ reverse side
#
# One-hot block (k = 1, d = b, s = c/sigma).  Under the Gaussian the density
# ratio mixture/Gaussian is S = (1/b) sum_v Y_v with Y_v = exp(s Z_v - s^2/2),
# Z ~ N(0, I), so D_alpha = log E[S^-m] / m with m = alpha - 1.  From
# x^-m = Gamma(m)^-1 int_0^inf t^(m-1) e^(-tx) dt and independence of the Z_v,
#
#     E[S^-m] = Gamma(m)^-1 int_0^inf t^(m-1) phi(t/b)^b dt,
#     phi(u)  = E exp(-u Y).
#
# Subtracting the Gamma(m) density, E[S^-m] = 1 + J_m with
#
#     J_m = Gamma(m)^-1 int t^(m-1) e^(-t) expm1(psi(t)) dt,
#     psi(t) = b log(e^u phi(u)) = b log1p(H(u)) >= 0,  u = t/b,
#     H(u)   = E e2(-u (Y - 1)),  e2(y) = e^y - 1 - y >= 0,
#
# every term of which is a sum of nonnegative numbers, so D = log1p(J_m) / m
# keeps full relative precision when D is tiny (large b, small s).
#
# Both integrals are trapezoid rules, spectrally accurate on these analytic
# integrands.  The outer one runs in x = log t (the mass can sit at t ~ e^4000
# for large s and alpha), on dyadic lattices whose step is at most 0.35 of the
# peak width and whose window ends 50 below the peak in log space; each
# order's integrand has a single peak in x (checked against direct 2-D and
# 3-D quadrature of E[S^-m] to 1e-12 for s up to 8 and alpha up to 100).  The
# inner one is H(u) on a fixed z-grid while u <= max(1, 1/s); past that the
# integrand of phi(u) concentrates at the saddle z* = -w/s, w = W(u s^2
# e^(-s^2/2)) (Lambert W), and phi is integrated around it:
#
#     log phi(u) = -w^2/(2 s^2) - w/s^2
#                  + log E_y exp(-(w/s^2) e2(s y)),  y ~ N(0, 1).

_REV_DROP = 50.0  # window ends this far below the peak (log units, e^-50 relative)
_REV_STEP = 0.35  # outer lattice step, as a fraction of the peak width
_REV_Y_RADIUS = 10.5  # |y| beyond which the standard normal density is below e^-55
_REV_MAX_POINTS = 8192  # an outer window for several orders beyond this splits the group
_REV_ROUNDS = 60  # widening / refining rounds before the outer quadrature gives up
_REV_S_MAX = 16.0  # beyond this c/sigma the quadrature gives way to the AM-GM bound
_REV_S_MIN = 1e-150  # below this c/sigma too (theta = s^2/2 nears the subnormals), rounded up
_REV_GUARD_POINTS = 1 << 16  # a window for one order beyond this gives way to the cap: a cost guard
_REV_SLACK = 1e-10  # relative round-up of the quadrature value, past its measured error
_REV_INNER = 0.35  # inner steps are at most this over c/sigma (the scale of e^(s z))
_REV_CHUNK = 1 << 16  # inner-grid cells evaluated per batch (bounds temporary memory)


def _e2(y: np.ndarray) -> np.ndarray:
    """e^y - 1 - y elementwise, to full relative precision (Taylor near 0)."""
    out = np.expm1(y)
    out -= y
    small = np.abs(y) < 0.01
    if np.any(small):
        ys = y[small]
        acc = 1.0 + ys / 7.0
        for n in (6.0, 5.0, 4.0, 3.0):
            acc = 1.0 + acc * (ys / n)
        out[small] = 0.5 * ys * ys * acc
    return out


def _log_expm1(psi: np.ndarray) -> np.ndarray:
    """log(e^psi - 1) for psi >= 0 (-inf at 0, psi + log1p(-e^-psi) when large)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.log(np.expm1(np.minimum(psi, 30.0)))
        return np.where(psi > 30.0, psi + np.log1p(-np.exp(-psi)), small)


class _ReverseQuadrature:
    """The outer integral shared by the exact reverse paths.

    A subclass supplies ``_log_integrand(x)``, the log of e^-t expm1(psi(t))
    at t = e^x for its psi >= 0, ``_cap(m)``, an upper bound on D_(m+1)
    from AM-GM, and the attributes s, b and log_b that ``_peaks`` reads.
    Then
    D_{m+1} = log1p(J_m) / m with J_m = Gamma(m)^-1 int e^(m x) e^-t
    expm1(psi(t)) dx, a trapezoid rule on dyadic lattices in x.
    """

    def __init__(self):
        self._memo_x = np.empty(0)  # lattice points evaluated so far, sorted
        self._memo_v = np.empty(0)

    def _integrand(self, x: np.ndarray) -> np.ndarray:
        """``_log_integrand`` at lattice points, each evaluated once per instance."""
        pos = np.minimum(np.searchsorted(self._memo_x, x), max(len(self._memo_x) - 1, 0))
        known = self._memo_x[pos] == x if len(self._memo_x) else np.zeros(len(x), dtype=bool)
        if not np.all(known):
            new = x[~known]
            xs = np.concatenate([self._memo_x, new])
            order = np.argsort(xs, kind="stable")
            self._memo_x = xs[order]
            self._memo_v = np.concatenate([self._memo_v, self._log_integrand(new)])[order]
        return self._memo_v[np.searchsorted(self._memo_x, x)]

    def _peaks(self, m: np.ndarray):
        """Rough peak and width of each order's outer integrand, in x = log t.

        From the one-hot block of size ``self.b`` at ``self.s``; they only seed
        the window, which ``_window`` widens and refines until it settles.
        """
        x0 = np.log(m + 2.0)
        width = 1.0 / np.sqrt(m + 2.0)
        ws = m * self.s * self.s / self.b  # saddle w at the log-normal peak
        with np.errstate(divide="ignore"):
            x1 = np.where(
                ws > 1.0,
                ws + np.log(np.maximum(ws, 1.0)) + self.log_b - 2.0 * math.log(self.s) + 0.5 * self.s * self.s,
                -np.inf,
            )
        far = x1 > x0
        return np.where(far, x1, x0), np.where(far, np.maximum(width, self.s / math.sqrt(self.b)), width)

    @staticmethod
    def _finish(step, ell, m):
        top = np.max(ell, axis=-1)
        finite = np.isfinite(top)  # all -inf: c/sigma so small that D underflows
        safe = np.where(finite, top, 0.0)
        with np.errstate(divide="ignore"):
            log_j = math.log(step) + safe + np.log(np.exp(ell - np.expand_dims(safe, -1)).sum(axis=-1))
        return np.where(finite, np.logaddexp(0.0, log_j) / m, 0.0)

    def _window(self, m: np.ndarray) -> np.ndarray:
        """D for a group of orders (sorted) on one lattice window.

        The window widens until every order's integrand is _REV_DROP below
        its peak at both ends, and the step halves until the peaks are
        resolved.  A window that would exceed _REV_MAX_POINTS splits the
        group in halves; a single order keeps growing up to
        _REV_GUARD_POINTS, the refinement guard, past which it returns
        ``_cap`` with a CostGuardWarning.  The widest window the accounting
        tests settle on has 12,599 points (b = 1e6, s = 15, alpha = 1000);
        one whose integrand underflows never settles.
        """
        lgam = np.array([math.lgamma(mi) for mi in m])
        x0, width = self._peaks(m)
        lo = float(np.min(x0 - np.maximum(8.0 * width, (_REV_DROP + 10.0) / (m + 2.0))))
        hi = float(np.max(x0 + 8.0 * width))
        step = 2.0 ** math.floor(math.log2(_REV_STEP * float(np.min(width))))
        for _ in range(_REV_ROUNDS):
            i_lo, i_hi = math.floor(lo / step), math.ceil(hi / step)
            if i_hi - i_lo > _REV_MAX_POINTS and len(m) > 1:
                half = len(m) // 2
                return np.concatenate([self._window(m[:half]), self._window(m[half:])])
            if i_hi - i_lo > _REV_GUARD_POINTS:
                warnings.warn(
                    f"reverse quadrature refinement guard: {self!r} at alpha={m[0] + 1:g} asks for "
                    f"{i_hi - i_lo} outer points (> {_REV_GUARD_POINTS}); the AM-GM cap stands in",
                    CostGuardWarning,
                    stacklevel=2,
                )
                return self._cap(m)
            x = np.arange(i_lo, i_hi + 1) * step
            ell = m[:, None] * x - lgam[:, None] + self._integrand(x)
            rows = np.arange(len(m))
            peak = np.argmax(ell, axis=1)
            top = ell[rows, peak]
            inner = (peak > 0) & (peak < len(x) - 1)
            with np.errstate(invalid="ignore"):
                curv = ell[rows, np.maximum(peak - 1, 0)] + ell[rows, np.minimum(peak + 1, len(x) - 1)] - 2.0 * top
                coarse = np.any(inner & (curv < -_REV_STEP**2))
                grow_lo = np.any(ell[:, 0] > top - _REV_DROP)
                grow_hi = np.any(ell[:, -1] > top - _REV_DROP)
            if not (coarse or grow_lo or grow_hi):
                return self._finish(step, ell, m)
            span = hi - lo
            step = step / 2.0 if coarse else step
            lo = lo - span / 2.0 if grow_lo else lo
            hi = hi + span / 2.0 if grow_hi else hi
        raise RuntimeError(f"reverse quadrature did not settle: {self!r}, alpha={m[0] + 1:g}..{m[-1] + 1:g}")

    def divergences(self, m: np.ndarray) -> np.ndarray:
        """D_{m+1} for integer orders m + 1 >= 2, grouped by lattice step.

        The levels are sorted as plain floats: ``np.unique`` would do the
        same, but in numpy 2.4 it imports ``numpy.ma``, about 10 ms of every
        cold command that reaches a reverse path.
        """
        order = np.argsort(m, kind="stable")
        m_sorted = m[order]
        out = np.empty(len(m))
        _, width = self._peaks(m_sorted)
        level = np.floor(np.log2(_REV_STEP * width))
        for lv in sorted(set(level.tolist())):
            group = level == lv
            out[order[group]] = self._window(m_sorted[group])
        return out


class _OneHotReverse(_ReverseQuadrature):
    """Exact D_alpha(N(0, I) || one-hot mixture) for one block size b and s."""

    def __init__(self, b: int, s: float):
        super().__init__()
        self.b, self.s = b, s
        self.log_b = math.log(b)
        # u <= max(1, 1/s): the saddle stays within 1 of z = 0, the z-grid form.
        self.x_saddle = self.log_b + max(0.0, -math.log(s))
        # H's integrand peaks between z = s (u Y >> 1) and z = 2s (u Y << 1).
        hz = min(0.5, _REV_INNER / s)
        z_lo, z_hi = -_REV_Y_RADIUS, 2.0 * s + _REV_Y_RADIUS - 1.0
        z = z_lo + hz * np.arange(math.ceil((z_hi - z_lo) / hz) + 1)
        self.z_ym1 = np.expm1(s * z - 0.5 * s * s)
        self.z_w = hz * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        # Points per saddle row: enough for the widest window at every w.
        w = np.logspace(-8.0, 12.0, 401)
        lo, hi, step = self._saddle_window(w)
        self.y_points = int(math.ceil(1.1 * np.max((lo + hi) / step))) + 1

    def __repr__(self):
        return f"one-hot reverse (b={self.b}, s={self.s!r})"

    def _cap(self, m):
        return _am_gm(self.b, 0.5 * self.s * self.s, m + 1.0)

    def _saddle_window(self, w):
        """Per-w extent [-lo, hi] of the saddle-centred y-integral, and the step it needs."""
        s = self.s
        with np.errstate(divide="ignore"):
            lo = np.minimum(_REV_Y_RADIUS, 55.0 * s / w + 1.0 / s)  # e2(y) >= |y| - 1 for y < 0
            quad = np.sqrt(55.0 / (w / 3.0 + 0.5))  # e2(y) >= y^2/3 for -1 <= y <= 0
            lo = np.minimum(lo, np.where(quad <= 1.0 / s, quad, np.inf))
        hi = np.sqrt(110.0 / (w + 1.0))  # e2(y) >= y^2/2 for y >= 0
        step = np.minimum(min(0.25, _REV_INNER / s), 0.35 / np.sqrt(w + 1.0))
        return lo, hi, step

    def _log_integrand(self, x: np.ndarray) -> np.ndarray:
        """log(e^-t expm1(psi(t))) at t = e^x (m-independent part of the outer integrand)."""
        rows = max(1, _REV_CHUNK // max(len(self.z_w), self.y_points))
        if len(x) <= rows:
            return self._log_integrand_rows(x)
        return np.concatenate([self._log_integrand_rows(x[i : i + rows]) for i in range(0, len(x), rows)])

    def _log_integrand_rows(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(len(x))
        near = x <= self.x_saddle
        if np.any(near):
            u = np.exp(x[near] - self.log_b)
            psi = self.b * np.log1p(_e2(np.outer(u, -self.z_ym1)) @ self.z_w)
            out[near] = _log_expm1(psi) - np.exp(x[near])
        if not np.all(near):
            out[~near] = self._log_integrand_saddle(x[~near])
        return np.where(np.isnan(out), -np.inf, out)

    def _log_integrand_saddle(self, x: np.ndarray) -> np.ndarray:
        s, b = self.s, self.b
        # w + log w = target, solved for v = log w by Newton (convex, monotone).
        target = x - self.log_b + 2.0 * math.log(s) - 0.5 * s * s
        v = np.where(target > 1.0, np.log(np.maximum(target - np.log(np.maximum(target, 1.0)), 1e-300)), target)
        for _ in range(60):
            ev = np.exp(v)
            step = (ev + v - target) / (ev + 1.0)
            v -= step
            if np.all(np.abs(step) <= 4e-16 * np.maximum(1.0, np.abs(v))):
                break
        w = np.exp(v)
        lo, hi, _ = self._saddle_window(w)
        dy = (lo + hi) / (self.y_points - 1)
        y = dy[:, None] * np.arange(self.y_points) - lo[:, None]
        expo = -(w / (s * s))[:, None] * _e2(s * y) - 0.5 * y * y
        log_k = np.log(dy * np.exp(expo).sum(axis=1) / math.sqrt(2.0 * math.pi))
        log_phi = -w * w / (2.0 * s * s) - w / (s * s) + log_k
        log_u = x - self.log_b
        psi = np.where(log_u < 700.0, b * (log_phi + np.exp(np.minimum(log_u, 700.0))), np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            return b * log_phi + np.log(-np.expm1(-psi))

# Two-hot family (k = 2, d = n, s = c/sigma).  The density ratio is
# L = e2(Y) / C(n, 2), the second elementary symmetric polynomial of the Y_v,
# and E[L^-m] = 1 + J_m as above with psi(t) = log E exp(-t L) + t >= 0.  The
# expectation runs one coordinate at a time.  With tau = t / C(n, 2), the
# prefix sums A_j = Y_1 + .. + Y_j and e2_j = e2(Y_1..Y_j), let
#
#     G_j(u) = log E exp(-u A_j - tau e2_j);
#
# e2_j = e2_(j-1) + Y_j A_(j-1) gives
#
#     G_j(u) = log E_Y exp(-u Y + G_(j-1)(u + tau Y)),
#
# G_0 = 0 and psi(t) = G_n(0) + t.  Up to t = 1000 the recursion runs on the
# excess R_j = G_j + j u + tau C(j, 2) >= 0 instead, whose small values keep
# psi's relative precision (see ``_recursion``).  For each batch of t, every
# G_j (or R_j) lives on one grid in log(u + 0.01) and is read back through
# the not-a-knot cubic spline of ``_not_a_knot_spline``.  The grid reaches
# every point the recursion from G_n(0) needs (tau times sums of up to n - 1
# values of Y); beyond it, at points no needed value depends on, G_j at the
# grid's top stands in, which bounds G_j there because G_j decreases in u.
# The expectation over Y is a z-grid trapezoid reaching 4 below the saddle
# z* = -W(u s^2 e^(-s^2/2)) / s of exp(-u Y) at the largest u, with a step
# that resolves that saddle's width 1/sqrt(1 + s |z*|).  The spline error at
# the step _REV_TWO_HOT_H is below 1e-6 relative on D (checked against halved
# steps, against the complement identity at n = 3 and against Gauss-Hermite
# cubature at n = 5); _REV_TWO_HOT_SLACK rounds the result up past it.

_REV_TWO_HOT_H = 0.05  # grid step in log(u + _REV_TWO_HOT_U0)
_REV_TWO_HOT_U0 = 0.01
_REV_TWO_HOT_U1 = 20.0  # beyond this u the grid step grows
_REV_TWO_HOT_COARSE = 4  # by this factor
_REV_TWO_HOT_T_EXCESS = 1000.0  # batches of t up to this run the excess form R_j
_REV_TWO_HOT_PAD = 20  # grid steps past the largest needed u
_REV_TWO_HOT_SLACK = 1e-5  # relative round-up of the two-hot value
_REV_TWO_HOT_MAX_D = 15  # the recursion runs d times over the grids: a cost guard
_REV_TWO_HOT_S_MIN = 0.01  # below this the spline error outgrows psi ~ (s t)^2 / n
_REV_TWO_HOT_S_MAX = 0.3  # the grids and the outer window grow with c/sigma: a cost guard
_REV_TWO_HOT_CELLS = 1 << 20  # (grid x z x t) cells evaluated per batch


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the not-a-knot cubic spline through (x, y[:, col]), per column.

    Shape (4, n - 1, cols): on [x_i, x_(i+1)] the spline is
    ((c[0] dx + c[1]) dx + c[2]) dx + c[3] at dx = x - x_i.  The slopes m_i
    at the knots solve the usual tridiagonal system for C2 continuity; its
    end rows (not-a-knot) make the third derivative continuous at x_1 and
    x_(n-2).  The Thomas algorithm solves it without pivoting (n >= 4).
    """
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    # Row i: sub[i] m_(i-1) + diag[i] m_i + sup[i] m_(i+1) = rhs[i].
    sub, diag, sup = np.empty(len(x)), np.empty(len(x)), np.empty(len(x))
    sub[1:-1], diag[1:-1], sup[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs = np.empty_like(y)
    rhs[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    lo, hi = x[2] - x[0], x[-1] - x[-3]
    diag[0], sup[0] = dx[1], lo
    rhs[0] = ((dx[0] + 2.0 * lo) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / lo
    sub[-1], diag[-1] = hi, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * hi + dx[-1]) * dx[-2] * slope[-1]) / hi
    for i in range(1, len(x)):
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    m = rhs  # back substitution in place
    m[-1] /= diag[-1]
    for i in range(len(x) - 2, -1, -1):
        m[i] = (m[i] - sup[i] * m[i + 1]) / diag[i]
    t = (m[:-1] + m[1:] - 2.0 * slope) / dx[:, None]
    return np.stack((t / dx[:, None], (slope - m[:-1]) / dx[:, None] - t, m[:-1], y[:-1]))


class _TwoHotReverse(_ReverseQuadrature):
    """Exact D_alpha(N(0, I) || two-hot mixture) for one d and s, to spline accuracy."""

    def __init__(self, d: int, s: float):
        super().__init__()
        self.d, self.s = d, s
        self.z_hi = 2.0 * s + _REV_Y_RADIUS - 1.0
        self.mu_hi = (d - 1) * math.exp(s * self.z_hi - 0.5 * s * s)  # largest needed u, over tau
        # The outer window is seeded by a one-hot block of half the size.
        self.b = (d + 1) / 2.0
        self.log_b = math.log(self.b)

    def __repr__(self):
        return f"two-hot reverse (d={self.d}, s={self.s!r})"

    def _cap(self, m):
        # The block sum of ``reverse_bound_curve`` over blocks of d // 2 and
        # d - d // 2, each at its AM-GM cap.
        theta, q = 0.5 * self.s * self.s, self.d // 2
        return _am_gm(q, theta, m + 1.0) + _am_gm(self.d - q, theta, m + 1.0)

    def _log_integrand(self, x: np.ndarray) -> np.ndarray:
        # Batches of neighbouring t share their grids (x arrives sorted).
        rows = max(1, _REV_TWO_HOT_CELLS // self._cells(math.exp(float(x[-1]))))
        return np.concatenate([self._log_integrand_rows(np.exp(x[i : i + rows])) for i in range(0, len(x), rows)])

    def _log_integrand_rows(self, t: np.ndarray) -> np.ndarray:
        if t[-1] <= _REV_TWO_HOT_T_EXCESS:
            return _log_expm1(np.maximum(self._recursion(t, excess=True), 0.0)) - t
        g = self._recursion(t, excess=False)
        psi = np.maximum(g + t, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # log(e^-t expm1(psi)) = g + log(1 - e^-psi), without forming g + t - t.
            return np.where(psi > 30.0, g + np.log1p(-np.exp(-psi)), _log_expm1(psi) - t)

    def _grids(self, t_max: float):
        s, h, u0 = self.s, _REV_TWO_HOT_H, _REV_TWO_HOT_U0
        u_hi = t_max / math.comb(self.d, 2) * self.mu_hi
        # Step h up to u = _REV_TWO_HOT_U1, where G_j bends from linear in u to
        # near-quadratic in log u; _REV_TWO_HOT_COARSE h beyond.  The excess
        # form R_j keeps the quadratic part of G_j, and step h throughout.
        # The grid runs _REV_TWO_HOT_PAD steps past u_hi, so that the values
        # at the clamped top (bounds, not values) reach the spline's needed
        # range only through the decay of its end effects (0.27 per step).
        coarse = t_max > _REV_TWO_HOT_T_EXCESS
        xi_mid = math.log(_REV_TWO_HOT_U1 + u0) if coarse else math.log(u_hi + u0) + _REV_TWO_HOT_PAD * h
        xi = math.log(u0) + h * np.arange(math.ceil((xi_mid - math.log(u0)) / h) + 1)
        h_far = _REV_TWO_HOT_COARSE * h
        n_far = math.ceil((math.log(u_hi + u0) - xi[-1]) / h_far) + _REV_TWO_HOT_PAD if coarse else 0
        xi = np.concatenate([xi, xi[-1] + h_far * np.arange(1, max(n_far, 0) + 1)])
        log_arg = math.log(u_hi) + 2.0 * math.log(s) - 0.5 * s * s  # log of W's argument
        w_star = log_arg - math.log(max(log_arg, 1.0)) if log_arg > 1.0 else math.exp(log_arg)
        z_star = -w_star / s
        hz = min(0.5, _REV_INNER / s, 0.6 / math.sqrt(1.0 - s * z_star))
        z_lo = min(-_REV_Y_RADIUS, z_star - 4.0)
        z = z_lo + hz * np.arange(math.ceil((self.z_hi - z_lo) / hz) + 1)
        return xi, z, hz

    def _cells(self, t_max: float) -> int:
        xi, z, _ = self._grids(t_max)
        return len(xi) * len(z)

    def _recursion(self, t: np.ndarray, excess: bool) -> np.ndarray:
        """G_n(0) = log E exp(-t L) for a batch of t, or with ``excess`` R_n(0) = G_n(0) + t.

        R_j(u) = G_j(u) + j u + tau C(j, 2) >= 0 obeys
        R_j(u) = log E_Y exp(-(u + tau (j-1)) (Y - 1) + R_(j-1)(u + tau Y));
        it keeps full relative precision when psi is small (small t or c/sigma),
        G_j when t is large and psi - t is what matters.
        """
        s = self.s
        xi, z, hz = self._grids(float(t.max()))
        y = np.exp(s * z - 0.5 * s * s)
        log_wt = math.log(hz / math.sqrt(2.0 * math.pi)) - 0.5 * z * z
        u = np.exp(xi) - _REV_TWO_HOT_U0
        u[0] = 0.0
        tau = t / math.comb(self.d, 2)
        # Spline coordinates of the points u + tau Y, clamped at the grid's top
        # (G_j decreases in u, so its value there bounds the rest).
        target = u[:, None, None] + y[None, :, None] * tau
        beyond = np.maximum(target - u[-1], 0.0)
        q = np.log(np.minimum(target, u[-1]) + _REV_TWO_HOT_U0)
        cell = np.clip(np.searchsorted(xi, q) - 1, 0, len(xi) - 2)
        dq = q - xi[cell]
        flat = cell * len(t) + np.arange(len(t))  # index of (cell, t) in a spline's flattened (cell, t) axes
        ym1 = np.expm1(s * z - 0.5 * s * s) if excess else y
        decay = log_wt - u[:, None] * ym1  # (grid, z)
        g = np.zeros((len(xi), len(t)))
        for j in range(1, self.d + 1):
            rows = slice(0, 1) if j == self.d else slice(None)  # the last level needs u = 0 only
            expo = np.broadcast_to(decay[rows, :, None], dq[rows].shape)
            if excess and j > 1:
                expo = expo - (j - 1) * ym1[:, None] * tau
            if j > 1:
                c0, c1, c2, c3 = np.take(_not_a_knot_spline(xi, g).reshape(4, -1), flat[rows], axis=1)
                dx = dq[rows]
                expo = expo + (((c0 * dx + c1) * dx + c2) * dx + c3)
                if excess:
                    expo += (j - 1) * beyond[rows]  # R_j = G_j + j u + const past the top
            top = expo.max(axis=1)
            g = top + np.log(np.exp(expo - top[:, None, :]).sum(axis=1))
        return g[0]


@lru_cache(maxsize=128)
def _one_hot_reverse_exact(b: int, s: float, orders: tuple) -> tuple:
    return tuple(_OneHotReverse(b, s).divergences(np.array(orders, dtype=float) - 1.0).tolist())


@lru_cache(maxsize=32)
def _two_hot_reverse_exact(d: int, s: float, orders: tuple) -> tuple:
    return tuple(_TwoHotReverse(d, s).divergences(np.array(orders, dtype=float) - 1.0).tolist())


def _am_gm(b, theta: float, a):
    """AM-GM bound (alpha + b - 1) theta / b on the one-hot reverse divergence of a block of size b.

    AM-GM on S gives E[S^-m] <= prod_v E[Y_v^(-m/b)].  The bound is above
    the exact value, and equal to it to leading order once alpha s^2 / b is
    large; for small s the exact value is alpha theta / b to leading order.
    """
    return (a + b - 1.0) * theta / b


def _one_hot_reverse(b: int, s: float, theta: float, a: np.ndarray) -> np.ndarray:
    """Reverse divergence of a one-hot block of size b >= 2, per order in a.

    The quadrature value (cached on (b, s, orders)) rounded up by
    _REV_SLACK, capped by the AM-GM bound; the AM-GM bound alone above
    c/sigma = _REV_S_MAX, and rounded up by an ulp below c/sigma =
    _REV_S_MIN.  There every divergence is below about alpha 1e-300, the
    quadrature's log-space sums reach the subnormals, and they stop
    settling (at s = 2.8e-162 the window grew past 5e7 points).  The cap is
    above the truth there by a factor of 1 + (b - 1)/alpha to leading order.
    """
    am_gm = _am_gm(b, theta, a)
    if s > _REV_S_MAX:
        return am_gm
    if s < _REV_S_MIN:
        return np.nextafter(am_gm, np.inf)
    exact = np.array(_one_hot_reverse_exact(b, s, tuple(int(x) for x in a)))
    return np.minimum(exact * (1.0 + _REV_SLACK), am_gm)


def reverse_bound_curve(family: MixtureFamily, orders) -> np.ndarray:
    """Upper bound on the Gaussian-vs-mixture divergence, per order.

    Partition [d] uniformly at random into k blocks of sizes floor(d/k) and
    ceil(d/k), and pick one uniform index per block: by symmetry this draws
    a uniform k-subset, so the k-hot mixture is an average of products of
    independent one-hot mixtures over the blocks.  Renyi divergence is
    convex in its second argument (van Erven & Harremoes 2014, Thm 12) and
    additive over independent product blocks, hence

        D_alpha(N(0, I) || k-hot mixture) <= sum over blocks of the exact
                                            one-hot divergence of that block.

    For k > d/2 the bound is taken for the complementary (d-k)-hot family
    and shifted by alpha c^2 (2k - d) / (2 sigma^2), which is exact (see the
    code).  The one-hot divergence is a Laplace-transform integral (see the
    comment above ``_OneHotReverse``), exact to about 1e-12 and rounded up
    by a relative _REV_SLACK, so the bound is exact to that accuracy at
    k = 1, k = d - 1 and k = d (a single Gaussian).  It is evaluated once
    per distinct block size, vectorised over the orders, and cached on
    (block size, c/sigma, orders).  Beyond c/sigma = 16 the one-hot value
    is the AM-GM bound (alpha + b - 1) c^2 / (2 sigma^2 b), which is above
    it and asymptotically equal.

    When k does not divide d the block sum is above the truth at leading
    order in c/sigma (its leading term has sum_i 1/b_i > k^2/d).  For the
    two-hot case (min(k, d - k) = 2, d odd) within the cost guards of
    ``_TwoHotReverse`` (d <= 15, 0.01 <= c/sigma <= 0.3) the divergence is
    instead computed exactly by a one-variable recursion and rounded up by
    a relative _REV_TWO_HOT_SLACK; the smaller of the two bounds is used.
    """
    a = _orders_array(orders)
    d, k, c, sigma = family.d, family.k, family.c, family.sigma
    theta = c * c / (2.0 * sigma * sigma)
    if theta == 0.0:  # c = 0, or so small that every divergence underflows
        return np.zeros(len(a))
    s = c / sigma
    # Complement identity: the k-hot and (d-k)-hot mixtures are reflections
    # of each other orthogonal to the all-ones direction, and differ along it
    # only by their means, so D_k = D_(d-k) + alpha theta (2k - d) exactly.
    blocks = min(k, d - k)
    vals = np.zeros(len(a))
    if 2 * k > d:  # the shift in the Gaussian's closed form: k = d = 1 is that Gaussian, bit for bit
        vals = (2 * k - d) * forward_exact_k1_curve(1, c, sigma, 1.0, orders)
    if blocks:
        q, r = divmod(d, blocks)  # r blocks of size q + 1, the rest of size q
        block_sum = (blocks - r) * _one_hot_reverse(q, s, theta, a)
        if r:
            block_sum = block_sum + r * _one_hot_reverse(q + 1, s, theta, a)
        if blocks == 2 and r and d <= _REV_TWO_HOT_MAX_D and _REV_TWO_HOT_S_MIN <= s <= _REV_TWO_HOT_S_MAX:
            # c/sigma rounded up to 12 digits (the divergence grows with it), so
            # that a family and its rescaling share one evaluation.
            unit = 10.0 ** (math.floor(math.log10(s)) - 11)
            exact = np.array(_two_hot_reverse_exact(d, math.ceil(s / unit) * unit, tuple(int(x) for x in a)))
            block_sum = np.minimum(block_sum, exact * (1.0 + _REV_TWO_HOT_SLACK))
        vals = vals + block_sum
    return np.maximum(vals, 0.0)


def reverse_bound(family: MixtureFamily, alpha) -> float:
    return float(reverse_bound_curve(family, [alpha])[0])


def forward_exact_enum(mixture: GenericMixture, alpha) -> float:
    """Exact mixture-vs-centered-Gaussian divergence by multiset enumeration.

    (1/(alpha-1)) * log sum over index tuples I in [n]^alpha of
    (prod_i w_{I_i}) * exp( (1/(2 sigma^2)) sum_{i != j} mu_{I_i} . mu_{I_j} ).

    A term depends only on the multiset of I, so the sum runs over sorted
    tuples from ``itertools.combinations_with_replacement``, _ENUM_CHUNK at a
    time, each weighted by alpha!/prod_v m_v!: log m_v! adds log(j+1) for the
    entry j places into its run of equal entries.  Each chunk's terms are
    log-sum-exp'ed, then the chunk results are.
    Raises CostLimitError when n^alpha exceeds ENUM_TUPLE_LIMIT, the guard
    ``forward_exact`` applies to C(d,k)^alpha before its "enum" rule; it
    counts tuples, not multisets (ROADMAP item 2 weighs widening it).
    ``forward_exact`` computes that rule from overlap counts
    (``_forward_exact_overlap``); this sum is the independent check.
    """
    a = validate_order(alpha)
    keep = mixture.weights > 0
    centers = mixture.centers[keep]
    weights = mixture.weights[keep]
    n = len(centers)
    total_tuples = n**a  # exact integer arithmetic
    if total_tuples > ENUM_TUPLE_LIMIT:
        raise CostLimitError(
            f"n^alpha = {n}^{a} = {total_tuples} tuples exceeds the {ENUM_TUPLE_LIMIT} enumeration budget"
        )
    gram = centers @ centers.T
    log_w = np.log(weights)
    log_j = np.log(np.arange(1.0, a + 1.0))  # log(j + 1) for run position j
    inv_two_var = 1.0 / (2.0 * mixture.sigma**2)

    multisets = itertools.combinations_with_replacement(range(n), a)
    chunk_logs = []
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(multisets, _ENUM_CHUNK))
        cols = np.fromiter(flat, dtype=np.int64).reshape(-1, a).T
        if not cols.size:
            break
        run_pos = np.zeros_like(cols[0])
        log_weight = log_w[cols[0]] + math.lgamma(a + 1)
        pair_sum = np.zeros(cols.shape[1])
        for p in range(1, a):
            run_pos = np.where(cols[p] == cols[p - 1], run_pos + 1, 0)
            log_weight += log_w[cols[p]] - log_j[run_pos]
            for q in range(p):
                pair_sum += gram[cols[q], cols[p]]
        pair_sum *= 2.0  # the exponent sums over ordered pairs
        chunk_logs.append(_logsumexp(inv_two_var * pair_sum + log_weight))
    return max(0.0, float(_logsumexp(chunk_logs)) / (a - 1))


def _subset_moves(h: tuple, k: int):
    """Every way one k-subset can meet the columns of the level histogram h.

    h[j] columns have sum j.  Yields (next histogram, ways): the subset takes
    t_j of the h[j] columns at level j to level j + 1, sum_j t_j = k, in
    prod_j C(h[j], t_j) ways.  Only the nonempty levels are visited, and each
    t_j only in the range that leaves the later levels enough columns.
    """
    levels = [j for j, hj in enumerate(h) if hj]
    room = list(itertools.accumulate(h[j] for j in reversed(levels)))[::-1] + [0]

    def take(p, left):  # (t over levels[p:], ways)
        hj = h[levels[p]]
        for t in range(max(0, left - room[p + 1]), min(hj, left) + 1):
            ways = math.comb(hj, t)
            if p + 1 == len(levels):
                yield (t,), ways
            else:
                for rest, more in take(p + 1, left - t):
                    yield (t,) + rest, ways * more

    for ts, ways in take(0, k):
        nxt = list(h) + [0]
        for j, t in zip(levels, ts):
            nxt[j] -= t
            nxt[j + 1] += t
        yield tuple(nxt), ways


def _overlap_counts(d: int, k: int, alpha: int) -> list:
    """Exact counts of the tuples of k-subsets of [d] by their pairwise overlap.

    Entry a (a = 0..alpha) maps u to the number N_u of a-tuples (S_1..S_a)
    of k-subsets of [d] with sum_{i<j} |S_i & S_j| = u; the counts of entry
    a sum to C(d,k)^a.  u = sum_v C(s_v, 2) over the column sums s_v of the
    a x d incidence matrix, so it depends only on their level histogram h
    (h[j] columns have sum j).  The DP adds the subsets one at a time
    (``_subset_moves``) and keeps an exact Python-int tuple count per
    histogram; no count depends on c or sigma.
    """
    states = {(d,): 1}
    counts = [{0: 1}]
    for _ in range(alpha):
        nxt = {}
        for h, count in states.items():
            for h_next, ways in _subset_moves(h, k):
                nxt[h_next] = nxt.get(h_next, 0) + count * ways
        states = nxt
        by_u = {}
        for h, count in states.items():
            u = sum(hj * (j * (j - 1) // 2) for j, hj in enumerate(h))
            by_u[u] = by_u.get(u, 0) + count
        counts.append(by_u)
    return counts


def _forward_exact_overlap(family: MixtureFamily, orders) -> np.ndarray:
    """Exact forward divergence of the k-hot family from overlap counts, per order.

    Every center is c times a k-subset indicator, so a tuple's term in the
    sum of ``forward_exact_enum`` is n^-alpha exp((c^2/sigma^2) u), with u
    its pairwise overlap and n = C(d,k).  With the exact counts N_u of
    ``_overlap_counts`` (one DP up to the largest order), which sum to
    n^alpha, the moment is 1 + E with
    E = n^-alpha sum_u N_u expm1((c^2/sigma^2) u) >= 0, and
    D_alpha = log1p(E) / (alpha - 1).  log E is a log-sum-exp
    (``_logsumexp`` over ``_log_expm1``) of nonnegative terms, so D keeps
    full relative precision when it is tiny, and is exactly 0 at c = 0.
    """
    counts = _overlap_counts(family.d, family.k, max(orders))
    rate = family.c * family.c / (family.sigma * family.sigma)
    log_n = math.log(math.comb(family.d, family.k))
    out = []
    for a in orders:
        overlap = np.array(list(counts[a]), dtype=float)
        log_ways = np.array([math.log(ways) for ways in counts[a].values()])
        log_excess = float(_logsumexp(log_ways + _log_expm1(rate * overlap))) - a * log_n
        out.append(float(np.logaddexp(0.0, log_excess)) / (a - 1))
    return np.array(out)


@lru_cache(maxsize=32)
def _poly_mul_table(trunc: int, n_a: int, n_b: int) -> tuple:
    """(index, outside) of a truncated product, built once per shape.

    Over (degree t = 0..trunc) x (index i < n_a): index is t - i clipped
    into [0, n_b), outside marks t - i < 0 or >= n_b.  Both read-only.
    """
    j = np.arange(trunc + 1)[:, None] - np.arange(n_a)[None, :]
    index, outside = np.clip(j, 0, n_b - 1), (j < 0) | (j >= n_b)
    index.flags.writeable = outside.flags.writeable = False
    return index, outside


def _log_poly_mul(la: np.ndarray, lb: np.ndarray, trunc: int) -> np.ndarray:
    """Multiply two polynomials given by log-coefficients, truncated.

    One (degree t x index i) array of la[i] + lb[t - i], -inf where t - i
    is not an index of lb, and one row-wise log-sum-exp.  The gather index
    and the outside mask come from ``_poly_mul_table``, built once per
    shape; the gather, the sum and the mask share one buffer.
    """
    la = la[: trunc + 1]
    index, outside = _poly_mul_table(trunc, len(la), len(lb))
    terms = lb[index]
    np.add(la, terms, out=terms)
    terms[outside] = -np.inf
    return _logsumexp(terms, axis=1)


def _log_poly_pow(la: np.ndarray, power: int, trunc: int) -> np.ndarray:
    """Raise a log-coefficient polynomial to an integer power >= 1, truncated.

    Binary exponentiation that starts from the base, not from the constant
    polynomial 1: power 1 is the truncated base, with no product.
    """
    result, base = None, la[: trunc + 1]
    while True:
        if power & 1:
            result = base if result is None else _log_poly_mul(result, base, trunc)
        power >>= 1
        if not power:
            return result
        base = _log_poly_mul(base, base, trunc)


@lru_cache(maxsize=64)
def _log_factorials(n: int) -> np.ndarray:
    """log m! for m = 0..n, read-only; built once per n."""
    log_fact = _lgamma(np.arange(n + 1, dtype=float) + 1.0)
    log_fact.flags.writeable = False
    return log_fact


@lru_cache(maxsize=16)
def _k1_sum_tables(orders: tuple) -> tuple:
    """The gamma < 1 sum's arrays in ``forward_exact_k1_curve``, which depend on the orders alone.

    (ways, rest, beyond) over (order alpha) x (j = 2..max order): log
    alpha!/(alpha-j)!, alpha - j (0 where j > alpha) and the mask j > alpha.
    Built once per order tuple, all read-only.
    """
    a_int = _order_ints(orders)
    log_fact = _log_factorials(int(a_int.max()))
    j = np.arange(2.0, len(log_fact))
    rest = np.maximum(a_int[:, None] - j, 0.0)  # alpha - j wherever j <= alpha; the rest is masked
    ways = log_fact[a_int][:, None] - log_fact[rest.astype(int)]
    beyond = j > a_int[:, None]
    tables = (ways, rest, beyond)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def forward_exact_k1_curve(d: int, c: float, sigma: float, gamma: float, orders) -> np.ndarray:
    """Exact forward divergence of the one-hot family at rate gamma, per order.

    The mixture puts weight 1 - gamma on the origin and gamma/d on each c e_v.
    Grouped by multiplicities, the tuple sum of ``forward_exact_enum`` is
    alpha! [z^alpha] e^((1-gamma) z) f(gamma z / d)^d with f(z) = sum_m z^m
    exp(theta m (m-1)) / m!, theta = c^2/(2 sigma^2).  gamma = 1 is the k=1
    family; d = 1 is the Poisson-subsampled Gaussian (Mironov, Talwar & Zhang
    2019, "Renyi differential privacy of the sampled Gaussian mechanism"),
    and d = 1, gamma = 1 the Gaussian itself, whose closed form
    alpha c^2 / (2 sigma^2) it returns (``accountant.Gaussian``'s curve).
    f^d comes from log-domain truncated convolutions (exact: higher terms of
    f cannot reach degree alpha) with binary exponentiation in d, so the
    cost is O(alpha^2 log d).  For gamma < 1 the moment sums alpha!/(alpha-j)!
    [z^j] f^d (gamma/d)^j (1-gamma)^(alpha-j) over j; its j = 0, 1 terms fold
    into one log1p-form lead, (1-gamma)^(alpha-1) (1 + (alpha-1) gamma), which
    keeps epsilons near 1e-6 to full relative precision.  What depends on
    the orders alone is built once per order tuple and kept: the checked
    orders (``_order_ints``), log m! (``_log_factorials``) and the gamma < 1
    sum's arrays (``_k1_sum_tables``).
    """
    check_fields(d=d, c=c, sigma=sigma, gamma=gamma)
    key = tuple(orders)
    a_int = _order_ints(key)
    a = a_int.astype(float)
    if d == 1 and gamma == 1.0:  # one Gaussian: its closed form alpha c^2 / (2 sigma^2)
        return a * c**2 / (2.0 * sigma**2)
    theta = c * c / (2.0 * sigma * sigma)
    if theta == 0.0:  # every tuple has weight 1: the divergence is exactly 0
        return np.zeros(len(a_int))
    amax = int(a_int.max())
    log_fact = _log_factorials(amax)
    m = np.arange(amax + 1, dtype=float)
    powered = _log_poly_pow(theta * m * (m - 1.0) - log_fact, d, amax)
    if gamma == 1.0:
        log_moment = log_fact[a_int] + powered[a_int] - a * math.log(d)
    else:
        j = m[2:]
        ways, rest, beyond = _k1_sum_tables(key)
        terms = ways + powered[2:]
        terms += j * (math.log(gamma) - math.log(d)) + rest * math.log1p(-gamma)
        terms[beyond] = -np.inf
        lead = (a - 1.0) * math.log1p(-gamma) + np.log1p(gamma * (a - 1.0))
        log_moment = _logsumexp(np.column_stack([terms, lead]), axis=1)
    return np.maximum(log_moment / (a - 1.0), 0.0)


def epsilon_loose_curve(family: MixtureFamily, orders) -> np.ndarray:
    """max(forward bound, reverse bound) per order.

    The forward bound is the overlap-count bound, for k >= 2 capped by the
    Poisson curve (``forward_poisson_cap_curve``); O(dk) per order.
    """
    return np.maximum(_forward_fallback_curve(family, orders), reverse_bound_curve(family, orders))


def epsilon_loose(family: MixtureFamily, alpha) -> float:
    return float(epsilon_loose_curve(family, [alpha])[0])


def forward_exact(family: MixtureFamily, orders):
    """The forward-path selector: (forward divergences, rules) per order.

    Rule "k1-series" when k == 1 (exact, ``forward_exact_k1_curve``), "enum"
    when C(d,k)^alpha fits ENUM_TUPLE_LIMIT (exact, from the overlap counts
    of ``_forward_exact_overlap``, whose tuple sum is that of
    ``forward_exact_enum``; the rule keeps its name and its tuple guard),
    else "bound" (``_forward_fallback_curve``, an upper bound only).
    """
    a_list = [validate_order(a) for a in orders]
    if family.k == 1:
        return forward_exact_k1_curve(family.d, family.c, family.sigma, 1.0, a_list), ("k1-series",) * len(a_list)
    # Log-space estimate first: avoids huge exact binomials for large d.
    log_n = float(log_comb(family.d, family.k))
    fits = [a * log_n <= math.log(ENUM_TUPLE_LIMIT) + 1e-9 for a in a_list]
    n = math.comb(family.d, family.k) if any(fits) else 0
    rules = tuple("enum" if ok and n**a <= ENUM_TUPLE_LIMIT else "bound" for a, ok in zip(a_list, fits))
    fwd = np.empty(len(a_list))
    bound = [i for i, rule in enumerate(rules) if rule == "bound"]
    enum = [i for i, rule in enumerate(rules) if rule == "enum"]
    if bound:
        fwd[bound] = _forward_fallback_curve(family, [a_list[i] for i in bound])
    if enum:
        fwd[enum] = _forward_exact_overlap(family, [a_list[i] for i in enum])
    return fwd, rules


def epsilon_tight_curve(family: MixtureFamily, orders):
    """(max(``forward_exact``, reverse bound), forward rules) per order.

    The reverse side runs first.  Rule "bound" uses the forward bound of
    ``epsilon_loose_curve``, so the result never exceeds epsilon_loose beyond
    float rounding and is always a valid upper bound.
    """
    rev = reverse_bound_curve(family, orders)
    fwd, rules = forward_exact(family, orders)
    return np.maximum(fwd, rev), rules


def epsilon_tight(family: MixtureFamily, alpha) -> tuple[float, str]:
    """``epsilon_tight_curve`` at one order: (epsilon, forward rule)."""
    eps, rules = epsilon_tight_curve(family, [alpha])
    return float(eps[0]), rules[0]
