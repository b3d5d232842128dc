"""Orthogonal polynomials, hypergeometric series, Gamma helpers, and the
seven orthonormal bases (one ``BASES`` entry per kind) with the reproducing
kernels K(z, w) = sum_j psi_j(z) conj(psi_j(w)) of the spaces they span.

All polynomial evaluation goes through three-term recurrences (never
explicit coefficient sums), and every factorial / Gamma ratio is formed in
log space with explicit sign tracking, so that the routines stay usable at
the degrees (several hundred) needed by the truncated-series kernel
evaluators built on top of them.

Evaluation points may be scalars or numpy arrays; parameters are scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quadrature import _check_integer, disk_rule, gauss_halfline, gauss_line, gaussian_plane_rule

__all__ = [
    "hermite_sequence",
    "laguerre_sequence",
    "jacobi_sequence",
    "log_gamma",
    "pochhammer",
    "HypResult",
    "HypSeriesError",
    "hyp_series",
    "hyp1f1",
    "hyp2f1_table",
    "BasisFamily",
    "BasisSpec",
    "BASES",
    "hermite_l2",
    "laguerre_l2",
    "bargmann_fock",
    "bergman",
    "disk_eigen",
    "dirichlet",
    "gen_dirichlet",
    "basis_matrix",
    "monomial_normalizer",
    "reproducing_kernel",
    "papadakis_sum",
]


# ---------------------------------------------------------------------------
# Gamma helpers
# ---------------------------------------------------------------------------

def log_gamma(x):
    """log Gamma(x) for finite x > 0 (scalar or array), by ``math.lgamma``:
    a scalar and the same value inside an array give the same float."""
    if isinstance(x, (float, np.floating)):
        # the basis recurrences call this once per degree with a float
        if not 0.0 < x < math.inf:  # NaN fails this too
            raise ValueError("log_gamma requires finite, strictly positive arguments")
        return math.lgamma(x)
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < np.inf)):
        raise ValueError("log_gamma requires finite, strictly positive arguments")
    if x.ndim == 0:
        return math.lgamma(float(x))
    return np.fromiter(map(math.lgamma, x.flat), float, x.size).reshape(x.shape)


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1, for finite a."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    if not np.isfinite(a):
        raise ValueError("pochhammer argument must be finite")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


# ---------------------------------------------------------------------------
# Classical orthogonal polynomials via three-term recurrences
# ---------------------------------------------------------------------------

def hermite_sequence(jmax: int, x):
    """H_0(x) .. H_jmax(x) stacked along the last axis.

    Recurrence: H_{k+1} = 2 x H_k - 2 k H_{k-1}.
    """
    if jmax < 0:
        raise ValueError("degree must be nonnegative")
    x = _check_source_point(x)
    out = np.empty(x.shape + (jmax + 1,))
    out[..., 0] = 1.0
    if jmax >= 1:
        out[..., 1] = 2.0 * x
    for k in range(1, jmax):
        out[..., k + 1] = 2.0 * x * out[..., k] - 2.0 * k * out[..., k - 1]
    return out


def _laguerre(j: int, alpha: float, x):
    """Generalized Laguerre polynomial L_j^(alpha)(x), alpha > -1, with x
    unchecked, for the kernels, whose points are checked on entry: the last
    column of ``laguerre_sequence``, bit for bit.  Only two degrees are held
    at a time, so wide arguments (the kernels' t-integrands) need no
    (j+1)-fold scratch array."""
    for value in _laguerre_degrees(j, alpha, x):
        pass
    return value


def laguerre_sequence(jmax: int, alpha: float, x):
    """L_0^(alpha)(x) .. L_jmax^(alpha)(x) stacked along the last axis."""
    if not np.all(np.isfinite(x)):
        raise ValueError("Laguerre points must be finite")
    return np.stack(list(_laguerre_degrees(jmax, alpha, x)), axis=-1)


def _laguerre_degrees(jmax: int, alpha: float, x):
    """Yield L_0^(alpha)(x) .. L_jmax^(alpha)(x) in turn.

    Recurrence: (k+1) L_{k+1} = (2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1}.
    """
    if not -1.0 < alpha < np.inf:  # NaN fails this too
        raise ValueError("Laguerre parameter must satisfy finite alpha > -1")
    if jmax < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float), copy=False)
    yield np.ones_like(x)
    if jmax == 0:
        return
    prev = 1.0          # L_0 as a scalar: (1 + alpha) L_0 without an array product
    cur = 1.0 + alpha - x
    yield cur
    for k in range(1, jmax):
        # in place: two new arrays per degree, not five, same arithmetic
        nxt = 2.0 * k + alpha + 1.0 - x
        nxt *= cur
        nxt -= (k + alpha) * prev
        nxt /= k + 1.0
        prev, cur = cur, nxt
        yield cur


def jacobi_sequence(jmax: int, a: float, b: float, x):
    """P_0^(a,b)(x) .. P_jmax^(a,b)(x) stacked along the last axis, a, b > -1.

    Negative-integer first parameters (which occur in the disk eigenfunction
    family) are handled inside ``_disk_eigen_matrix`` through Jacobi's
    transformation to P_ell^(beta, j - ell); this entry point insists on the
    classical parameter range where the recurrence is valid.
    """
    if not (-1.0 < a < np.inf and -1.0 < b < np.inf):  # NaN fails this too
        raise ValueError("Jacobi parameters must satisfy finite a, b > -1")
    if jmax < 0:
        raise ValueError("degree must be nonnegative")
    x = _check_source_point(x)
    out = np.empty(x.shape + (jmax + 1,))
    out[..., 0] = 1.0
    if jmax >= 1:
        out[..., 1] = 0.5 * (a - b + (a + b + 2.0) * x)
    for k in range(1, jmax):
        n = k + 1.0
        c = 2.0 * n + a + b
        a1 = 2.0 * n * (n + a + b) * (c - 2.0)
        a2 = (c - 1.0) * (a * a - b * b)
        a3 = (c - 1.0) * c * (c - 2.0)
        a4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * c
        out[..., k + 1] = ((a2 + a3 * x) * out[..., k] - a4 * out[..., k - 1]) / a1
    return out


# ---------------------------------------------------------------------------
# Hypergeometric partial sums
# ---------------------------------------------------------------------------

class HypResult(NamedTuple):
    value: complex
    first_omitted: float
    terms_used: int
    rounding_bound: float


class HypSeriesError(ValueError):
    """Raised when a hypergeometric partial sum shows no sign of converging."""


def hyp_series(upper: Sequence[float], lower: Sequence[float],
               x, truncation: int = 200) -> HypResult:
    """Partial sum of the hypergeometric series pFq(upper; lower; x), with
    p = len(upper) and q = len(lower), and an error indicator.

    Returns the partial sum over ``truncation`` terms, the magnitude of the
    first omitted term (zero when the series terminated exactly), the
    number of terms actually summed, and a bound on the rounding error of
    the summation, gamma_K sum_k |t_k| for K terms (gamma_K = K u / (1 - K u),
    u = 2^-53; Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., section 4.2): where the terms cancel, that bound, not
    ``first_omitted``, says how far off the sum may be.  Raises
    :class:`HypSeriesError` when the terms are still growing at the
    truncation point, or when a Gauss-type series (p = q + 1) is evaluated
    outside its disk of convergence without terminating.
    """
    label = f"{len(upper)}F{len(lower)}"
    if not all(np.isfinite(c) for c in (*upper, *lower)):
        raise ValueError("hypergeometric parameters must be finite")
    for c in lower:
        if float(c) <= 0.0 and float(c) == int(c):
            raise ValueError("lower parameters must not be nonpositive integers")
    if not np.isfinite(x):
        raise ValueError("hypergeometric argument must be finite")
    terminating = any(float(a) == int(a) and float(a) <= 0.0 for a in upper)
    if len(upper) == len(lower) + 1 and not terminating and abs(x) >= 1.0:
        raise HypSeriesError(
            f"{label} series does not converge at |x| = {abs(x):.3g} >= 1"
        )

    x = complex(x)
    term: complex = 1.0 + 0.0j
    total: complex = term
    magnitude = 1.0     # sum of |t_k| over the terms summed
    used = 1
    for k in range(truncation - 1):
        num = 1.0
        for a in upper:
            num *= a + k
        den = 1.0
        for c in lower:
            den *= c + k
        term = term * (num / den) * x / (k + 1.0)
        if term == 0.0:
            # exact termination: a nonpositive-integer upper parameter ran out
            return HypResult(_realify(total), 0.0, used, _rounding_bound(used, magnitude))
        total += term
        magnitude += abs(term)
        used += 1
    # first omitted term
    num = 1.0
    for a in upper:
        num *= a + (truncation - 1)
    den = 1.0
    for c in lower:
        den *= c + (truncation - 1)
    omitted = term * (num / den) * x / float(truncation)
    bound = _rounding_bound(used, magnitude)
    if omitted == 0.0:
        return HypResult(_realify(total), 0.0, used, bound)
    if abs(omitted) >= abs(term):
        raise HypSeriesError(
            f"{label} terms are not decreasing after {truncation} terms "
            f"(|t_K| = {abs(omitted):.3g} >= |t_K-1| = {abs(term):.3g})"
        )
    return HypResult(_realify(total), abs(omitted), used, bound)


def _rounding_bound(terms: int, magnitude: float) -> float:
    """gamma_K sum_k |t_k|, the bound on the rounding error of a K-term sum."""
    unit = 2.0 ** -53
    return terms * unit / (1.0 - terms * unit) * magnitude


def _realify(value: complex):
    return value.real if value.imag == 0.0 else value


# ``hyp1f1`` refuses a sum whose rounding bound exceeds this share of its
# magnitude: the terms cancelled too far for the value to mean anything
_HYP_RTOL = 1e-8


def _certified(result: HypResult, label: str):
    """result.value, or ValueError where cancellation ate the sum."""
    if not result.rounding_bound <= _HYP_RTOL * abs(result.value):
        raise ValueError(
            f"{label}: the terms cancel, the rounding bound {result.rounding_bound:.3g} "
            f"exceeds {_HYP_RTOL:g} of the value {abs(result.value):.3g}")
    return result.value


def hyp1f1(a: float, c: float, x, truncation: int = 200):
    """Kummer's confluent function 1F1(a; c; x).

    For real negative arguments the Kummer transformation
    1F1(a; c; x) = e^x 1F1(c-a; c; -x) is applied first, turning an
    alternating (cancellation-prone) sum into an all-positive one.
    Raises ValueError where the summed series' rounding bound exceeds 1e-8
    of its magnitude (``hyp_series``).
    """
    if np.isrealobj(x) and np.real(x) < 0.0:
        kummer = hyp_series([c - a], [c], -x, truncation)
        return float(np.exp(x) * _certified(kummer, "1F1"))
    return _certified(hyp_series([a], [c], x, truncation), "1F1")


def hyp2f1_table(nmax: int, b: float, c: float, y: float) -> np.ndarray:
    """2F1(-n, b; c; y) for n = 0..nmax, in one pass over n.

    Where c - b is not a nonpositive integer, F_n is the dominant solution
    of the three-term recurrence in n

        (c + n) F_{n+1} = (2n + c - (b + n) y) F_n + n (y - 1) F_{n-1},

    and runs forward from F_0 = 1, F_1 = 1 - b y / c (Gautschi,
    *Computational aspects of three-term recurrence relations*, SIAM Review
    9, 1967).  Where c - b = -k for an integer k >= 0, F_n is the minimal
    solution, which forward recurrence loses, and Euler's transformation
    leaves a (k+1)-term sum:

        F_n = (1 - y)^(n-k) sum_{i<=k} (c+n)_i (-k)_i / ((c)_i i!) y^i.

    That route takes only k <= 1, F_n = (1 - y)^(n-k) (1 - k (c+n) y / c),
    whose sum cancels only at its one root: at larger k and y near 1 it
    loses digits (2e-11 at k = 4, y = 0.95).

    Domain: finite b, finite c > 0, 0 < y < 1, nmax >= 0, and c - b not an
    integer below -1; elsewhere ValueError.  Tested against exact
    terminating sums (mpmath, 250 digits) for n <= 120 within 1e-12
    relative, or 1e-15 of max |F_n| at an exact zero, at
    (b, c) = (2, 1.5), (3.5, 2.5) and (2.5, 2.5), y = 0.2 and 0.7.  Near a
    sign change in n the forward route is accurate relative to max |F_n|,
    not to F_n, and it degrades as c - b nears a nonpositive integer
    (5e-9 at a distance of 1e-6).
    """
    b, c, y = float(b), float(c), float(y)
    if not (math.isfinite(b) and 0.0 < c < math.inf and 0.0 < y < 1.0):
        raise ValueError("hyp2f1_table requires finite b, finite c > 0 and 0 < y < 1")
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    k = b - c
    if k >= 0.0 and k.is_integer():
        if k > 1.0:
            raise ValueError("hyp2f1_table takes c - b = -k only for k <= 1")
        n = np.arange(nmax + 1, dtype=float)
        return (1.0 - y) ** (n - k) * (1.0 - k * (c + n) / c * y)
    out = np.empty(nmax + 1)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 1.0 - b * y / c
    for n in range(1, nmax):
        out[n + 1] = ((2.0 * n + c - (b + n) * y) * out[n]
                      + n * (y - 1.0) * out[n - 1]) / (c + n)
    return out


# ---------------------------------------------------------------------------
# Orthonormal basis families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisFamily:
    """An orthonormal family: a kind, a key of ``BASES`` whose entry
    (``spec``) says what the kind is, and the shape parameters that the
    kind's constructor below takes."""

    kind: str
    params: tuple = ()

    def __str__(self):
        if not self.params:
            return self.kind
        return f"{self.kind}({', '.join(f'{p:g}' for p in self.params)})"

    @property
    def spec(self) -> BasisSpec:
        """The kind's ``BASES`` entry; an unknown kind raises ValueError."""
        spec = BASES.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown basis family {self.kind!r}")
        return spec

    @property
    def shift(self) -> int:
        """ell of psi_j(r e^(i theta)) = psi_j(r) e^(i (j - ell) theta), a
        target basis' polar form (``BasisSpec.shift``)."""
        return self.spec.shift(*self.params)


def hermite_l2() -> BasisFamily:
    """Hermite functions h_j(x) = H_j(x) e^0 / (pi^(1/4) sqrt(2^j j!)) on the
    Gaussian-weighted line (the weight lives in the measure, not the basis)."""
    return BasisFamily("hermite_l2")


def laguerre_l2(alpha: float) -> BasisFamily:
    """sqrt(j! / Gamma(alpha+j+1)) L_j^(alpha), orthonormal against
    x^alpha e^{-x} dx on the half-line."""
    if not -1.0 < alpha < np.inf:  # NaN fails this too
        raise ValueError("laguerre_l2 requires finite alpha > -1")
    return BasisFamily("laguerre_l2", (float(alpha),))


def bargmann_fock() -> BasisFamily:
    """z^j / sqrt(pi j!), orthonormal for the Gaussian plane measure."""
    return BasisFamily("bargmann_fock")


def bergman(delta: float) -> BasisFamily:
    """sqrt(Gamma(1+delta+j) / (j! Gamma(delta+1))) z^j, orthonormal for the
    probability measure (delta/pi)(1-|z|^2)^(delta-1) dA on the disk."""
    if not 0.0 < delta < np.inf:  # NaN fails this too
        raise ValueError("bergman requires finite delta > 0")
    return BasisFamily("bergman", (float(delta),))


def disk_eigen(nu: float, ell: int) -> BasisFamily:
    """Eigenfunction family of the hyperbolic Landau level ell at weight nu.

    Orthonormal in L^2 of the disk with weight (1-|z|^2)^(2 nu - 2) dA.
    Requires 0 <= ell < nu - 1/2: only those levels lie in that space, and
    at ell = nu - 1/2 their norm constant 2(nu - ell) - 1 is 0.
    """
    if not 0.5 < nu < np.inf:  # NaN fails this too
        raise ValueError("disk_eigen requires finite nu > 1/2")
    ell = _check_integer(ell, "disk_eigen level ell")
    if not 0 <= ell < nu - 0.5:
        raise ValueError("disk_eigen requires 0 <= ell < nu - 1/2")
    return BasisFamily("disk_eigen", (float(nu), ell))


def dirichlet() -> BasisFamily:
    """1/sqrt(pi), z^j / sqrt(pi j) (j >= 1): orthonormal for the Dirichlet
    pairing pi a_0 conj(b_0) + pi sum_j j a_j conj(b_j)."""
    return BasisFamily("dirichlet")


def gen_dirichlet(alpha: float, m: int) -> BasisFamily:
    """Orthonormal family of the order-m Bergman-Dirichlet space at weight alpha.

    Low indices j < m are weighted-Bergman monomials; from j = m onward the
    normalization switches to the derivative pairing of order m.
    """
    if not -1.0 < alpha < np.inf:  # NaN fails this too
        raise ValueError("gen_dirichlet requires finite alpha > -1")
    m = _check_integer(m, "gen_dirichlet order m")
    if m < 1:
        raise ValueError("gen_dirichlet requires m >= 1")
    return BasisFamily("gen_dirichlet", (float(alpha), m))


_LOG_PI = float(np.log(np.pi))


def _cumulative_log1p(x):
    """0, log1p(x_1), log1p(x_1) + log1p(x_2), ...: a log of a product of
    per-degree ratios, summed term by term rather than as a difference of
    log-Gamma values, which near degree 1100 are ~6,600 and cancel to
    ~1e-12 relative."""
    return np.concatenate(([0.0], np.cumsum(np.log1p(x))))


def _gen_dirichlet_log_norms(j, alpha, m):
    """Weighted-Bergman monomial norms below j = m, those of the order-m
    derivative pairing from j = m on:

        pi n_j^2 = Gamma(j+alpha+2) / (j! Gamma(alpha+1))           (j < m),
                 = Gamma(j-m+alpha+2) (j-m)! / ((j!)^2 Gamma(alpha+1))  (j >= m),

    With a = alpha + 1, the ratio from degree j-1 to j is 1 + a/j below m
    and (1 - m/j)(1 + (a-m)/j) = 1 + ((a-2m) j - m (a-m)) / j^2 above it."""
    a = alpha + 1.0
    head = np.log1p(alpha) + _cumulative_log1p(a / j[1:m])
    d = j[m + 1:]
    tail = (np.log1p(alpha) - 2.0 * log_gamma(m + 1.0)
            + _cumulative_log1p(((a - 2.0 * m) * d - m * (a - m)) / d**2))
    return 0.5 * np.concatenate((head, tail))[: j.shape[0]] - 0.5 * _LOG_PI


def monomial_normalizer(family: BasisFamily, J: int) -> np.ndarray:
    """n_j with psi_j(z) = n_j z^j, j = 0..J, for the kinds diagonal in the
    monomials, whose ``BASES`` entry has norms.

    The disk norms are formed in log space, so they neither under- nor
    overflow on the way; the Bergman-type ratios are summed per degree,
    which keeps them within ~1e-14 relative at J = 1100.  The Fock norms
    are a running product of the ratios 1/sqrt(j), within ~1e-15 relative
    at J = 300, where exp(log n_j) would carry log n_j's ulp, 1.1e-13.
    Where a norm itself leaves the normal float64 range (Fock from J = 301)
    a ValueError is raised rather than a subnormal or zero returned.
    """
    norms = family.spec.norms
    if norms is None:
        raise ValueError(f"{family.kind} basis is not diagonal in the monomials")
    if J < 0:
        raise ValueError("J must be nonnegative")
    n = norms(np.arange(J + 1, dtype=float), *family.params)
    if not np.all((n >= np.finfo(float).tiny) & (n < np.inf)):
        raise ValueError(f"{family} monomial norms leave the float64 range by degree {J}")
    return n


def _check_disk_point(z):
    """z as a complex array, after checking every point is finite and in the unit disk."""
    z = np.asarray(z, dtype=complex)
    # written as a negated "< 1" so that NaN, which compares false, fails too
    if not np.all(np.abs(z) < 1.0):
        raise ValueError("disk points must be finite with |z| < 1")
    return z


def _abs2(z):
    """|z|^2 as (z conj(z)).real.  The disk eigenfunctions' factor
    (1-|z|^2)^(-ell) and the eigenspace target's weight factor
    (1-|z|^2)^(2 ell) both take |z|^2 from here: near the boundary,
    np.abs(z)**2 differs from it by ~1e-11 relative in 1-|z|^2, enough to
    stop the two factors cancelling on the rule nodes."""
    return (z * np.conj(z)).real


def _check_source_point(x):
    """x as a float array, after checking every point is finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("source points must be finite")
    return x


def _check_plane_point(z):
    """z as a complex array, after checking every point is finite."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("plane points must be finite")
    return z


def basis_matrix(family: BasisFamily, jmax: int, points):
    """Members 0..jmax of a family evaluated at `points`, stacked on the last axis.

    This is the workhorse behind the truncated-series kernel evaluators, so
    each family uses a stable normalized recurrence (or log-space prefactors)
    rather than naive factorial quotients.  The kind's ``BASES`` entry checks
    the points, whose dtype (float on the line, complex in the plane or
    disk) the result takes, and its evaluator fills the result.
    """
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    spec = family.spec
    x = spec.check(points)
    out = np.empty(x.shape + (jmax + 1,), dtype=x.dtype)
    spec.evaluate(family, jmax, x, out)
    return out


def _contour_matrix(family: BasisFamily, jmax: int, points):
    """``basis_matrix`` of a source basis at finite complex points: the
    points of a forward integral's steepest-descent contour
    (``kernels.contour_rule``), the one route that takes source points off
    the real axis.  The Hermite and Laguerre functions are polynomials, and
    their recurrences run unchanged in complex arithmetic."""
    x = _check_plane_point(points)
    out = np.empty(x.shape + (jmax + 1,), dtype=complex)
    family.spec.evaluate(family, jmax, x, out)
    return out


def reproducing_kernel(basis: BasisFamily, z, w):
    """Closed-form K(z, w) = sum_j psi_j(z) conj(psi_j(w)) from the basis'
    ``BASES`` entry, at finite z, w for ``bargmann_fock()`` and |z|, |w| < 1
    for the disk bases; the L2 source bases have none and raise ValueError.
    (1-|z|^2)^alpha dA has (alpha+1)/pi times ``bergman(alpha + 1)``'s kernel."""
    spec = basis.spec
    if spec.kernel is None:
        raise ValueError(f"{basis} spans no reproducing-kernel space")
    return spec.kernel(basis, spec.check(z), spec.check(w))


def papadakis_sum(basis: BasisFamily, z, w, J: int):
    """Truncated orthonormal-basis sum sum_{j<=J} psi_j(z) conj(psi_j(w))."""
    pz = basis_matrix(basis, J, np.atleast_1d(z))
    pw = basis_matrix(basis, J, np.atleast_1d(w))
    out = np.sum(pz * np.conj(pw), axis=-1)
    return out[0] if out.shape == (1,) else out


def _hermite_matrix(family, jmax, x, out):
    out[..., 0] = np.pi ** -0.25
    if jmax >= 1:
        out[..., 1] = np.sqrt(2.0) * x * out[..., 0]
    for k in range(1, jmax):
        out[..., k + 1] = (
            x * np.sqrt(2.0 / (k + 1.0)) * out[..., k]
            - np.sqrt(k / (k + 1.0)) * out[..., k - 1]
        )


def _laguerre_matrix(family, jmax, x, out):
    (alpha,) = family.params
    out[..., 0] = np.exp(-0.5 * log_gamma(alpha + 1.0))
    if jmax >= 1:
        out[..., 1] = (1.0 + alpha - x) * out[..., 0] / np.sqrt(alpha + 1.0)
    for k in range(1, jmax):
        out[..., k + 1] = (
            (2.0 * k + alpha + 1.0 - x) * out[..., k]
            - np.sqrt(k * (k + alpha)) * out[..., k - 1]
        ) / np.sqrt((k + 1.0) * (k + 1.0 + alpha))


def _fock_matrix(family, jmax, z, out):
    # the ratio recurrence: z^j alone overflows on the plane rule's outer nodes
    out[..., 0] = np.pi ** -0.5
    for k in range(jmax):
        out[..., k + 1] = out[..., k] * z / np.sqrt(k + 1.0)


def _bergman_matrix(family, jmax, z, out):
    (delta,) = family.params
    out[..., 0] = 1.0
    for k in range(jmax):
        out[..., k + 1] = out[..., k] * z * np.sqrt((delta + 1.0 + k) / (k + 1.0))


def _scaled_powers(family, jmax, z, out):
    """The powers z^j times the log-space norms n_j (the Dirichlet-type kinds)."""
    out[..., 0] = 1.0
    for k in range(jmax):
        out[..., k + 1] = out[..., k] * z
    out *= monomial_normalizer(family, jmax)


def _disk_eigen_matrix(family, jmax, z, out):
    """Disk eigenfunctions psi_j^{nu,ell} for j = 0..jmax.

    For j >= ell an Euler-transformed terminating hypergeometric form is
    used: a Jacobi polynomial of degree ell in 2|z|^2 - 1, which stays finite
    at z = 0, where the raw formula pairs a negative power of conj(z) with a
    vanishing Jacobi factor.  Those degrees are filled together: the
    normalizers come from one ``log_gamma`` call per Gamma argument over
    every degree, the Jacobi recurrence runs as ell steps over every degree
    at once, and z^(j - ell) is a running product (``np.cumprod``).  Only
    the degrees j < ell, where the defining Jacobi form (first parameter
    ell - j > 0) is evaluated directly, run one at a time.
    """
    nu, ell = family.params
    beta_p = 2.0 * (nu - ell) - 1.0
    u = _abs2(z)
    one_minus_u = 1.0 - u

    lg_bl = log_gamma(beta_p + 1.0 + ell)
    lg_l = log_gamma(ell + 1.0)
    fold = one_minus_u ** (-ell)
    degrees = np.arange(jmax + 1, dtype=float)
    lg_j = log_gamma(degrees + 1.0)
    lg_bj = log_gamma(beta_p + 1.0 + degrees)
    lognorm = 0.5 * (np.log(beta_p / np.pi) + lg_j + lg_bl - lg_l - lg_bj)
    for j in range(min(ell, jmax + 1)):
        pj = jacobi_sequence(j, ell - j, beta_p, 1.0 - 2.0 * u)[..., j]
        out[..., j] = (-1.0) ** j * np.exp(lognorm[j]) * np.conj(z) ** (ell - j) * fold * pj
    if jmax < ell:
        return
    high = degrees[ell:]
    # binom(j + beta, j) ell! / (beta + 1)_ell in log space
    logbin = lg_bj[ell:] - lg_j[ell:] + lg_l - lg_bl
    # the terminating 2F1(-ell, 1 + beta + j; 1 + beta; 1 - u) is (beta + 1)_ell / ell!
    # times P_ell^(beta, j - ell)(2u - 1), degrees j on the last axis, by
    # ``jacobi_sequence``'s recurrence in ell with b = j - ell per degree: summed
    # as ell alternating terms it lost ~1e-8 relative at (12.5, 10)
    a, b = beta_p, high - ell
    x = 2.0 * u[..., None] - 1.0
    prev = np.ones(u.shape + high.shape)
    f = 0.5 * (a - b + (a + b + 2.0) * x) if ell else prev
    for k in range(1, ell):
        n = k + 1.0
        c = 2.0 * n + a + b
        a1 = 2.0 * n * (n + a + b) * (c - 2.0)
        a2 = (c - 1.0) * (a * a - b * b)
        a3 = (c - 1.0) * c * (c - 2.0)
        a4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * c
        # in place: the arithmetic of jacobi_sequence, two new arrays per step
        nxt = a3 * x
        nxt += a2
        nxt *= f
        nxt -= a4 * prev
        nxt /= a1
        prev, f = f, nxt
    zp = np.ones(z.shape + high.shape, dtype=complex)
    zp[..., 1:] = z[..., None]
    zp = np.cumprod(zp, axis=-1)      # z^(j - ell)
    out[..., ell:] = np.exp(lognorm[ell:] + logbin) * zp * fold[..., None] * f


def _disk_eigen_kernel(basis, z, w):
    nu, ell = basis.params
    u = z * np.conj(w)
    beta_p = 2.0 * (nu - ell) - 1.0
    a = (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(w) ** 2)
    b = np.abs(1.0 - u) ** 2
    return (
        (beta_p / np.pi)
        * (1.0 - u) ** (-2.0 * nu)
        * (b / a) ** ell
        * jacobi_sequence(ell, 0.0, beta_p, 2.0 * a / b - 1.0)[..., ell]
    )


# the closed generalized Dirichlet kernel sums this many terms of its 3F2
# series, and refuses points where their tail may exceed this share of it
_GEN_DIRICHLET_TERMS, _GEN_DIRICHLET_RTOL = 600, 1e-12


def _gen_dirichlet_kernel(basis, z, w):
    """(alpha+1)/pi (head + u^m 3F2(1, 1, alpha+2; m+1, m+1; u) / m!^2), u =
    z conj(w).  The 3F2's tail past K terms is at most |t_K| / (1 - rho),
    rho = max(|u|, the term ratio at K), since the ratio tends monotonically
    to u; where that exceeds 1e-12 of the value (|u| >~ 0.96 at (0, 1)),
    ValueError, not a quietly wrong sum."""
    alpha, m = basis.params
    u = z * np.conj(w)
    scalar = np.ndim(u) == 0
    uu = np.atleast_1d(u).ravel()
    head = np.zeros_like(uu)
    for j in range(m):
        head += pochhammer(alpha + 2.0, j) / np.exp(log_gamma(j + 1.0)) * uu**j
    k = _GEN_DIRICHLET_TERMS
    sums = [hyp_series([1.0, 1.0, alpha + 2.0], [m + 1.0, m + 1.0], val, k) for val in uu]
    norm = np.exp(2.0 * log_gamma(m + 1.0))
    series = np.array([r.value for r in sums], dtype=complex)
    out = (alpha + 1.0) / np.pi * (head + uu**m * series / norm)
    rho = np.abs(uu) * max(1.0, (k + 1.0) * (alpha + 2.0 + k) / (m + 1.0 + k) ** 2)
    first_omitted = (alpha + 1.0) / np.pi * np.abs(uu) ** m / norm * np.array(
        [r.first_omitted for r in sums])
    # |t_K| / (1 - rho) > rtol |value|, without dividing by a gap that may vanish
    uncertain = (first_omitted
                 > _GEN_DIRICHLET_RTOL * np.abs(out) * np.maximum(1.0 - rho, 0.0))
    if uncertain.any():
        raise ValueError(f"{basis}: the closed kernel's 3F2 series is uncertain beyond "
                         f"{_GEN_DIRICHLET_RTOL:g} at |z conj(w)| = "
                         f"{np.abs(uu[uncertain]).max():.4g}")
    return out[0] if scalar else out.reshape(np.shape(u))


@dataclass(frozen=True)
class BasisSpec:
    """What one kind of orthonormal basis is; None or () marks what a kind lacks.

    A target basis factors on every circle as psi_j(r e^(i theta)) =
    psi_j(r) e^(i (j - shift) theta), shift = ``shift(*params)`` (the level
    ell of the disk eigenspaces, 0 for the monomial kinds).  ``circles``
    lists the radii on which ``transforms`` reads <B f, psi_j> off the
    forward image, first choice first: the next radius serves where psi_j
    is too small on the one before (a zero of an eigenfunction, or the
    decay of a high degree).
    ``measure`` gives the measure mu_2 in whose L^2 a target basis is
    orthonormal as a polar rule (``quadrature._polar_rule``) and a factor of
    the radius that turns the rule's measure into mu_2, which
    ``transforms._target_rule`` multiplies into the rule's weights (none for
    the Dirichlet-type bases, whose norms are sums over Taylor coefficients).
    """

    check: Callable                  # points -> array, once all lie in the domain
    evaluate: Callable               # (family, jmax, checked x, out): members into out
    norms: Callable | None = None    # (j, *params) -> n_j of psi_j = n_j z^j
    kernel: Callable | None = None   # (family, checked z, w) -> closed kernel
    rule: Callable | None = None     # (n, *params) -> Gauss rule of the source measure
    circles: tuple = ()              # extraction radii of a target basis, in order
    shift: Callable = lambda *params: 0   # (*params) -> angular shift of psi_j
    measure: Callable | None = None  # (n_r, n_theta, *params) -> polar rule, factor(r)


# The extraction circles.  On |z| = r a bin's rounding, ~1e-16 of the norm of
# (psi_0(r)..psi_J(r)), is divided by psi_j(r), and ``transforms`` takes the
# first radius on which no |psi_j(r)| is below 1e-7 of that norm.  For the
# Fock basis that is r = 3 through J = 40 (the Gram matrix through degree 24
# to 1.5e-14) and r = 5 through J = 72 (2e-11 at 64, where psi_64(3) ~ 5e-15).
# On the disk the 120-node source rules resolve the kernels at r = 0.75.
# Past it the monomial kinds take 0.85, where psi_j decays slower (the plain
# Dirichlet Gram matrix through degree 64: 7.9e-9 at 0.75, 5.5e-12 at 0.85);
# the eigenfunctions take 0.6, whose zeros in (nu, ell) for nu <= 4 avoid
# those at 0.75 (psi_6 of disk_eigen(10/3, 1) vanishes at 0.75).
_FOCK_CIRCLES = (3.0, 5.0)
_MONOMIAL_DISK_CIRCLES = (0.75, 0.85)
_EIGEN_DISK_CIRCLES = (0.75, 0.6)


def _disk_eigen_measure(n_r: int, n_theta: int, nu: float, ell: int):
    """(1-|z|^2)^(2 nu - 2) dA, folded: the basis carries (1-|z|^2)^(-ell), so
    the rule is built for the exponent 2 nu - 2 - 2 ell and the weights take
    (1-|z|^2)^(2 ell) on the radii.  Pointwise an identity, on polynomials
    this restores exactness: folded, |psi_j|^2 is of degree J + ell in u at
    most (the shift is the fold).  Factor and basis take 1-|z|^2 from the
    radius (``_abs2``), so the two cancel on the rule as they do pointwise."""
    return (disk_rule(n_r, n_theta, 2.0 * nu - 2.0 - 2 * ell),
            lambda r: (1.0 - _abs2(r)) ** (2 * ell))


# a rule or measure looks its builder up by name at call time, so code that
# rebinds ``gauss_line``, ``disk_rule`` etc. here (a tracer, a test double)
# sees each build.  The Fock and Bergman measures are exp(-|z|^2) dA and
# (delta/pi)(1-|z|^2)^(delta-1) dA
BASES = {
    "hermite_l2": BasisSpec(_check_source_point, _hermite_matrix,
                            rule=lambda n: gauss_line(n)),
    "laguerre_l2": BasisSpec(_check_source_point, _laguerre_matrix,
                             rule=lambda n, alpha: gauss_halfline(n, alpha)),
    "bargmann_fock": BasisSpec(
        _check_plane_point, _fock_matrix,
        lambda j: np.cumprod(np.concatenate(([np.pi ** -0.5], np.sqrt(1.0 / j[1:])))),
        lambda basis, z, w: np.exp(z * np.conj(w)) / np.pi, circles=_FOCK_CIRCLES,
        measure=lambda n_r, n_theta: (gaussian_plane_rule(n_r, n_theta), lambda r: 1.0)),
    "bergman": BasisSpec(
        _check_disk_point, _bergman_matrix,
        lambda j, delta: np.exp(0.5 * _cumulative_log1p(delta / j[1:])),
        lambda basis, z, w: (1.0 - z * np.conj(w)) ** (-basis.params[0] - 1.0),
        circles=_MONOMIAL_DISK_CIRCLES,
        measure=lambda n_r, n_theta, delta: (disk_rule(n_r, n_theta, delta - 1.0),
                                             lambda r: delta / np.pi)),
    "disk_eigen": BasisSpec(_check_disk_point, _disk_eigen_matrix,
                            kernel=_disk_eigen_kernel, circles=_EIGEN_DISK_CIRCLES,
                            shift=lambda nu, ell: ell,
                            measure=_disk_eigen_measure),
    "dirichlet": BasisSpec(
        _check_disk_point, _scaled_powers,
        lambda j: np.exp(-0.5 * (_LOG_PI + np.log(np.maximum(j, 1.0)))),
        lambda basis, z, w: (1.0 + np.log(1.0 / (1.0 - z * np.conj(w)))) / np.pi,
        circles=_MONOMIAL_DISK_CIRCLES),
    "gen_dirichlet": BasisSpec(
        _check_disk_point, _scaled_powers,
        lambda j, alpha, m: np.exp(_gen_dirichlet_log_norms(j, alpha, m)),
        _gen_dirichlet_kernel, circles=_MONOMIAL_DISK_CIRCLES),
}
