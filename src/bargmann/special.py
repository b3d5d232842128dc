"""Orthogonal polynomials, hypergeometric series, and Gamma helpers.

All polynomial evaluation goes through three-term recurrences (never
explicit coefficient sums), and every factorial / Gamma ratio is formed in
log space with explicit sign tracking, so that the routines stay usable at
the degrees (several hundred) needed by the truncated-series kernel
evaluators built on top of them.

Evaluation points may be scalars or numpy arrays; parameters are scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln

__all__ = [
    "hermite_sequence",
    "laguerre",
    "laguerre_sequence",
    "jacobi_sequence",
    "log_gamma",
    "pochhammer",
    "HypResult",
    "HypSeriesError",
    "hyp_series",
    "hyp1f1",
    "hyp2f1",
    "hyp3f2",
    "BasisFamily",
    "hermite_l2",
    "laguerre_l2",
    "bargmann_fock",
    "bergman",
    "disk_eigen",
    "dirichlet",
    "gen_dirichlet",
    "basis_matrix",
    "monomial_normalizer",
]


# ---------------------------------------------------------------------------
# Gamma helpers
# ---------------------------------------------------------------------------

def log_gamma(x):
    """log Gamma(x) for finite x > 0 (scalar or array)."""
    if isinstance(x, (float, np.floating)):
        # the basis recurrences call this once per degree with a float;
        # the same ufunc without the array round trip
        if not 0.0 < x < np.inf:  # NaN fails this too
            raise ValueError("log_gamma requires finite, strictly positive arguments")
        return float(gammaln(x))
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < np.inf)):
        raise ValueError("log_gamma requires finite, strictly positive arguments")
    out = gammaln(x)
    return float(out) if out.ndim == 0 else out


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
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


def laguerre(j: int, alpha: float, x):
    """Generalized Laguerre polynomial L_j^(alpha)(x), alpha > -1, for real
    or complex x.  Only two degrees are held at a time, so wide arguments
    (the kernels' t-integrands) need no (j+1)-fold scratch array."""
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
    prev = np.ones_like(x)
    yield prev
    if jmax == 0:
        return
    cur = 1.0 + alpha - x
    yield cur
    for k in range(1, jmax):
        prev, cur = cur, ((2.0 * k + alpha + 1.0 - x) * cur - (k + alpha) * prev) / (k + 1.0)
        yield cur


def jacobi_sequence(jmax: int, a: float, b: float, x):
    """P_0^(a,b)(x) .. P_jmax^(a,b)(x) stacked along the last axis, a, b > -1.

    Negative-integer first parameters (which occur in the disk eigenfunction
    family) are handled inside ``_disk_eigen_matrix`` through a terminating
    hypergeometric form; this entry point insists on the classical parameter
    range where the recurrence is valid.
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


class HypSeriesError(ValueError):
    """Raised when a hypergeometric partial sum shows no sign of converging."""


def hyp_series(upper: Sequence[float], lower: Sequence[float],
               x, truncation: int = 200) -> HypResult:
    """Partial sum of the hypergeometric series pFq(upper; lower; x), with
    p = len(upper) and q = len(lower), and an error indicator.

    Returns the partial sum over ``truncation`` terms, the magnitude of the
    first omitted term (zero when the series terminated exactly), and the
    number of terms actually summed.  Raises :class:`HypSeriesError` when
    the terms are still growing at the truncation point, or when a
    Gauss-type series (p = q + 1) is evaluated outside its disk of
    convergence without terminating.
    """
    label = f"{len(upper)}F{len(lower)}"
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
            return HypResult(_realify(total), 0.0, used)
        total += term
        used += 1
    # first omitted term
    num = 1.0
    for a in upper:
        num *= a + (truncation - 1)
    den = 1.0
    for c in lower:
        den *= c + (truncation - 1)
    omitted = term * (num / den) * x / float(truncation)
    if omitted == 0.0:
        return HypResult(_realify(total), 0.0, used)
    if abs(omitted) >= abs(term):
        raise HypSeriesError(
            f"{label} terms are not decreasing after {truncation} terms "
            f"(|t_K| = {abs(omitted):.3g} >= |t_K-1| = {abs(term):.3g})"
        )
    return HypResult(_realify(total), abs(omitted), used)


def _realify(value: complex):
    return value.real if value.imag == 0.0 else value


def hyp1f1(a: float, c: float, x, truncation: int = 200):
    """Kummer's confluent function 1F1(a; c; x).

    For real negative arguments the Kummer transformation
    1F1(a; c; x) = e^x 1F1(c-a; c; -x) is applied first, turning an
    alternating (cancellation-prone) sum into an all-positive one.
    """
    if np.isrealobj(x) and np.real(x) < 0.0:
        return float(np.exp(x) * hyp_series([c - a], [c], -x, truncation).value)
    return hyp_series([a], [c], x, truncation).value


def hyp2f1(a: float, b: float, c: float, x, truncation: int = 200):
    return hyp_series([a, b], [c], x, truncation).value


def hyp3f2(uppers: Sequence[float], lowers: Sequence[float], x,
           truncation: int = 200):
    return hyp_series(list(uppers), list(lowers), x, truncation).value


# ---------------------------------------------------------------------------
# Orthonormal basis families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisFamily:
    """An orthonormal family, identified by kind plus shape parameters.

    kinds: 'hermite_l2', 'laguerre_l2' (alpha,), 'bargmann_fock',
    'bergman' (delta,), 'disk_eigen' (nu, ell), 'dirichlet',
    'gen_dirichlet' (alpha, m).
    """

    kind: str
    params: tuple = ()

    def __str__(self):
        if not self.params:
            return self.kind
        inner = ", ".join(f"{p:g}" for p in self.params)
        return f"{self.kind}({inner})"


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

    Requires 2 nu > 1 and 0 <= ell <= floor(nu - 1/2); orthonormal in
    L^2 of the disk with weight (1-|z|^2)^(2 nu - 2) dA.
    """
    if not 0.5 < nu < np.inf:  # NaN fails this too
        raise ValueError("disk_eigen requires finite nu > 1/2")
    ell = _check_integer(ell, "disk_eigen level ell")
    if ell < 0 or ell > int(np.floor(nu - 0.5)):
        raise ValueError("disk_eigen requires 0 <= ell <= floor(nu - 1/2)")
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


# n_j with psi_j(z) = n_j z^j for the families diagonal in the monomials,
# as functions of the degrees j = 0, 1, ..., J (a float array) and the
# family's parameters.  The Fock norms are the ratio product
# n_j = n_(j-1) / sqrt(j): as exp(log n_j) they would carry the ulp of
# log n_j ~ -700 at J = 300, 1.1e-13, as relative error.
_MONOMIAL_NORMS = {
    "bargmann_fock": lambda j: np.cumprod(
        np.concatenate(([np.pi ** -0.5], np.sqrt(1.0 / j[1:])))),
    "bergman": lambda j, delta: np.exp(0.5 * _cumulative_log1p(delta / j[1:])),
    "dirichlet": lambda j: np.exp(-0.5 * (_LOG_PI + np.log(np.maximum(j, 1.0)))),
    "gen_dirichlet": lambda j, alpha, m: np.exp(_gen_dirichlet_log_norms(j, alpha, m)),
}


def monomial_normalizer(family: BasisFamily, J: int) -> np.ndarray:
    """n_j with psi_j(z) = n_j z^j, j = 0..J, for the families diagonal in
    the monomials: bargmann_fock, bergman, dirichlet and gen_dirichlet.

    The disk norms are formed in log space, so they neither under- nor
    overflow on the way; the Bergman-type ratios are summed per degree,
    which keeps them within ~1e-14 relative at J = 1100.  The Fock norms
    are a running product of the ratios 1/sqrt(j), within ~1e-15 relative
    at J = 300.  Where a norm itself leaves the normal float64 range (Fock
    from J = 301) a ValueError is raised rather than a subnormal or zero
    returned.
    """
    norms = _MONOMIAL_NORMS.get(family.kind)
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


def _check_integer(value, name: str) -> int:
    """value as an int; 2.0 passes, 2.7, NaN and inf raise (no truncation)."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def basis_matrix(family: BasisFamily, jmax: int, points):
    """Members 0..jmax of a family evaluated at `points`, stacked on the last axis.

    This is the workhorse behind the truncated-series kernel evaluators, so
    each family uses a stable normalized recurrence (or log-space prefactors)
    rather than naive factorial quotients.
    """
    kind = family.kind
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")

    if kind == "hermite_l2":
        x = _check_source_point(points)
        out = np.empty(x.shape + (jmax + 1,))
        out[..., 0] = np.pi ** -0.25
        if jmax >= 1:
            out[..., 1] = np.sqrt(2.0) * x * out[..., 0]
        for k in range(1, jmax):
            out[..., k + 1] = (
                x * np.sqrt(2.0 / (k + 1.0)) * out[..., k]
                - np.sqrt(k / (k + 1.0)) * out[..., k - 1]
            )
        return out

    if kind == "laguerre_l2":
        (alpha,) = family.params
        x = _check_source_point(points)
        out = np.empty(x.shape + (jmax + 1,))
        out[..., 0] = np.exp(-0.5 * log_gamma(alpha + 1.0))
        if jmax >= 1:
            out[..., 1] = (1.0 + alpha - x) * out[..., 0] / np.sqrt(alpha + 1.0)
        for k in range(1, jmax):
            out[..., k + 1] = (
                (2.0 * k + alpha + 1.0 - x) * out[..., k]
                - np.sqrt(k * (k + alpha)) * out[..., k - 1]
            ) / np.sqrt((k + 1.0) * (k + 1.0 + alpha))
        return out

    if kind == "bargmann_fock":
        z = _check_plane_point(points)
        out = np.empty(z.shape + (jmax + 1,), dtype=complex)
        out[..., 0] = np.pi ** -0.5
        for k in range(jmax):
            out[..., k + 1] = out[..., k] * z / np.sqrt(k + 1.0)
        return out

    if kind == "bergman":
        (delta,) = family.params
        z = _check_disk_point(points)
        out = np.empty(z.shape + (jmax + 1,), dtype=complex)
        out[..., 0] = 1.0
        for k in range(jmax):
            out[..., k + 1] = out[..., k] * z * np.sqrt((delta + 1.0 + k) / (k + 1.0))
        return out

    if kind == "disk_eigen":
        return _disk_eigen_matrix(family.params, jmax, points)

    if kind in ("dirichlet", "gen_dirichlet"):
        # the powers z^j times the log-space norms n_j
        z = _check_disk_point(points)
        out = np.empty(z.shape + (jmax + 1,), dtype=complex)
        out[..., 0] = 1.0
        for k in range(jmax):
            out[..., k + 1] = out[..., k] * z
        out *= monomial_normalizer(family, jmax)
        return out

    raise ValueError(f"unknown basis family {kind!r}")


def _disk_eigen_matrix(params, jmax, points):
    """Disk eigenfunctions psi_j^{nu,ell} for j = 0..jmax.

    For j >= ell an Euler-transformed terminating hypergeometric form is
    used: it has only ell+1 terms and stays finite at z = 0, where the raw
    formula pairs a negative power of conj(z) with a vanishing Jacobi factor.
    For j < ell the defining Jacobi form (first parameter ell - j > 0) is
    evaluated directly.
    """
    nu, ell = params
    beta_p = 2.0 * (nu - ell) - 1.0
    z = _check_disk_point(points)
    u = _abs2(z)
    one_minus_u = 1.0 - u
    out = np.empty(z.shape + (jmax + 1,), dtype=complex)

    lg_bl = log_gamma(beta_p + 1.0 + ell)
    lg_l = log_gamma(ell + 1.0)
    fold = one_minus_u ** (-ell)
    zp = np.ones_like(z)      # z^(j - ell), advanced once per degree j > ell
    for j in range(jmax + 1):
        lognorm = 0.5 * (
            np.log(beta_p / np.pi)
            + log_gamma(j + 1.0) + lg_bl - lg_l - log_gamma(beta_p + 1.0 + j)
        )
        if j >= ell:
            # binom(j + beta, j) in log space
            logbin = log_gamma(j + beta_p + 1.0) - log_gamma(j + 1.0) - log_gamma(beta_p + 1.0)
            # terminating 2F1(-ell, 1 + beta + j; 1 + beta; 1 - u)
            f = np.ones_like(u)
            term = np.ones_like(u)
            for k in range(ell):
                term = term * ((-ell + k) * (1.0 + beta_p + j + k)
                               / ((1.0 + beta_p + k) * (k + 1.0))) * one_minus_u
                f = f + term
            if j > ell:
                zp = zp * z
            out[..., j] = np.exp(lognorm + logbin) * zp * fold * f
        else:
            pj = jacobi_sequence(j, ell - j, beta_p, 1.0 - 2.0 * u)[..., j]
            out[..., j] = (
                (-1.0) ** j
                * np.exp(lognorm)
                * np.conj(z) ** (ell - j)
                * fold
                * pj
            )
    return out
