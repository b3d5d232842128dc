"""Gaussian quadrature rules for the measures used by the transforms.

Every rule packs the weight function into its weights, so
``rule.weights @ f(rule.nodes)`` approximates the integral of plain ``f``
against the rule's measure:

- ``gauss_line``:       exp(-x^2) dx on the real line,
- ``gauss_halfline``:   x^alpha exp(-x) dx on (0, inf),
- ``disk_rule``:        (1-|z|^2)^gamma dA(z) on the unit disk,
- ``gaussian_plane_rule``: exp(-|z|^2) dA(z) on the complex plane,

the last two polar: a Gauss rule in u = |z|^2 times the angular trapezoid
(``_polar_rule``).

Every rule comes from the Jacobi matrix J of its measure's orthogonal
polynomials, without an eigensolver:

- nodes are the squared singular values of a bidiagonal factor B of J
  (J = B B^T), which are relatively accurate down to the smallest node
  (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 1990): a closed-form
  factor for the Laguerre rules and the radial Jacobi rule, and Cholesky
  factors for the discrete measures of ``kernels``; on (0, 1) the factor of
  I - J gives 1 - u near u = 1;
- every weight is a Christoffel sum after one Newton step on the
  recurrence, both in long double (``_newton_christoffel``): the Laguerre,
  Jacobi and discrete-measure rules alike (``_laguerre_rule``,
  ``_gauss_jacobi01``, ``_tridiagonal_gauss``); the Hermite rule is
  assembled from two Laguerre halves (``gauss_line``).

Only numpy and ``math`` are needed.

The one-dimensional builders (``gauss_line``, ``gauss_halfline`` and the
radial Gauss-Jacobi rule of ``disk_rule``) keep their last results, a few KB
each, and return them as read-only arrays shared by every caller.  The
polar rules are built afresh from those radial rules: ~0.2 MB of nodes and
weights for a default target rule (at most 57 x 128 nodes), ~0.7 MB at
120 x 256.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_line",
    "gauss_halfline",
    "disk_rule",
    "gaussian_plane_rule",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, positive weights, and a label describing measure and orders."""

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights must have equal length")

    def __str__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.meta.items())
        return f"{self.kind}({inner})"


_RULE_CACHE = 64


def _read_only(*arrays):
    """Mark a cached builder's arrays read-only: every caller shares them."""
    for a in arrays:
        a.setflags(write=False)


def _squared_singular_values(diag, off):
    """sigma_k^2, ascending, of the bidiagonal B with ``diag`` on its diagonal
    and ``off`` beside it: the eigenvalues of the Jacobi matrix J = B B^T.

    The singular values of a bidiagonal are determined to a few ulps relative
    by its entries, and LAPACK's bidiagonal solver delivers them (Demmel &
    Kahan, SIAM J. Sci. Stat. Comput. 11, 1990), so every node, the smallest
    included, is relatively accurate with no polish.  B goes in upper
    bidiagonal, which the Householder reduction ahead of that solver leaves
    unchanged (a lower one put the smallest node of a 120-node half-line rule
    2.8e-14 off, against 2.0e-15).  Only the values are asked for: with
    vectors (and in numpy's ``eigh``/``eigvalsh``) the threaded BLAS was seen
    to stall 8-215 ms per call in about one process in seven on a 2-core
    machine, while the values alone took at most 1.1 ms at n = 120.  Past
    n = 128 LAPACK reduces in blocks, at O(n^3) cost (~3 ms at n = 200,
    ~10-40 ms at n = 300).  Stacked bidiagonals (``diag`` (..., n), ``off``
    (..., n-1)) go in one call.
    """
    n = diag.shape[-1]
    i = np.arange(n)
    upper = np.zeros(diag.shape + (n,))
    upper[..., i, i] = diag
    upper[..., i[:-1], i[1:]] = off
    return np.linalg.svd(upper, compute_uv=False)[..., ::-1] ** 2


def _two_sided_nodes(factor, reflected):
    """Nodes in (0, 1) of a Jacobi matrix J, ascending and in long double, from
    the bidiagonal factors (diagonal, off-diagonal) of J and of I - J: u
    below u = 1/2 and 1 - u above it, each relatively accurate there."""
    u, v = _squared_singular_values(*(np.stack(pair) for pair in zip(factor, reflected)))
    ld = np.longdouble
    return np.where(u < 0.5, u.astype(ld), 1.0 - v[::-1].astype(ld))


def _newton_christoffel(x, diag, b, p0, orders=None):
    """One Newton step from x towards the roots of the orthonormal p_n, and the
    Gauss weights 1 / sum_(k<n) p_k^2 at the moved nodes, in x's dtype.

    p_k and p_k' run as one stacked recurrence from p_0 = ``p0`` (a scalar, or
    one value per node when the caller scales every p_k at a node by the same
    factor).  The weight S^-1 takes the step to first order, from the sums
    of p_k^2 and p_k p_k' at x; the second-order term, (step * d log S/dx)^2,
    is ~1e-24 for nodes a few ulps off.  So the weights are those of the
    moved nodes, not of x: summed at the float64 singular-value nodes, a
    half-line weight, which varies like e^-x, was up to 2e-12 off at n = 200.
    The first-order term is taken as exp(-2 step S'/S) / S, which stays
    positive where 1 / (S + 2 step S') does not: at a node that an
    unreorthogonalized Stieltjes recurrence of a discrete measure had
    repeated, 1.8e-6 from its twin, that form reached -2.5e-33.  ``orders``
    gives each node its own n <= len(diag), the order of a leading block:
    its step reads p_n, and its sums stop at k < n, so its step and weight
    are bit for bit those of a call on that block alone.
    """
    n = diag.shape[0]
    shifted = x - diag[:, None]              # row k: x - a_k
    inv_b = 1.0 / b
    vals = np.zeros((n + 1, 2, x.shape[0]), dtype=x.dtype)   # rows: p_k, p_k'
    vals[0, 0] = p0
    scratch = np.empty_like(vals[0])
    for k in range(n):
        cur, nxt = vals[k], vals[k + 1]
        np.multiply(shifted[k], cur, out=nxt)
        nxt[1] += cur[0]
        if k:
            nxt -= np.multiply(vals[k - 1], b[k - 1], out=scratch)
        nxt *= inv_b[k]
    if orders is None:
        last, p, dp = vals[n], vals[:n, 0], vals[:n, 1]
    else:
        last = vals[orders, :, np.arange(x.shape[0])].T
        p, dp = np.where(np.arange(n)[:, None, None] < orders, vals[:n], 0.0).transpose(1, 0, 2)
    step = -last[0] / last[1]
    s = (p * p).sum(axis=0)
    return x + step, np.exp(-2.0 * step * (p * dp).sum(axis=0) / s) / s


def _laguerre_rule(n: int, alpha: float):
    """Nodes and weights of the n-point Gauss rule for x^alpha exp(-x) dx.

    The Laguerre Jacobi matrix (diagonal 2k + alpha + 1, off-diagonal
    sqrt(k (k + alpha))) is B B^T with B lower bidiagonal, B_kk =
    sqrt(k + alpha + 1) and B_(k+1,k) = sqrt(k + 1); the nodes are its
    squared singular values, then one long-double ``_newton_christoffel``
    step.  Every p_k at a node x carries the factor e^(-x/2), which keeps
    p_k^2 (~e^x) in range at any order; the weights take back e^-x.  Where
    the platform's long double is plain double, the step runs in float64 and
    the weights keep its error (see ``_gauss_jacobi01``).
    """
    k = np.arange(n, dtype=float)
    nodes = _squared_singular_values(np.sqrt(k + alpha + 1.0), np.sqrt(k[1:]))
    try:
        # the total mass Gamma(alpha + 1) scales every weight; math.gamma is
        # within 7.5e-16 of it, while a float64 log Gamma (up to ~700)
        # carries up to 1.6e-13
        mu0 = math.gamma(alpha + 1.0)
    except OverflowError:
        raise ValueError("gauss_halfline requires Gamma(alpha + 1) within "
                         "float64 range (alpha < 170.6)") from None
    ld = np.longdouble
    x, k, a = nodes.astype(ld), k.astype(ld), ld(alpha)
    p0 = np.exp(-0.5 * x) / np.sqrt(ld(mu0))
    moved, weights = _newton_christoffel(x, 2.0 * k + a + 1.0,
                                         np.sqrt((k + 1.0) * (k + 1.0 + a)), p0)
    return moved.astype(float), (np.exp(-x) * weights).astype(float)


@lru_cache(maxsize=_RULE_CACHE)
def gauss_line(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule for the measure exp(-x^2) dx (cached,
    read-only arrays).

    Built from half the nodes: for even f, x = sqrt(y) turns the measure into
    y^(-1/2) e^-y dy on the half-line.  The 2k-point rule is +-sqrt(y_i) of
    the k-point Laguerre rule at alpha = -1/2, with weights w_i / 2.  The
    (2k+1)-point rule adds the node 0 to +-sqrt(y_i) of the k-point rule at
    alpha = +1/2, with weights w_i / (2 y_i); the weight of 0 is its
    Christoffel number sqrt(pi) / sum_(j<=k) C(2j, j) 4^-j =
    sqrt(pi) / ((2k+1) prod_(j<=k) (2j-1)/(2j)).  The rule is exactly
    symmetric.
    """
    if n < 1:
        raise ValueError("rule order must be positive")
    k = n // 2
    y, w = _laguerre_rule(k, -0.5 if n % 2 == 0 else 0.5)
    half = np.sqrt(y)
    if n % 2 == 0:
        nodes = np.concatenate([-half[::-1], half])
        weights = np.concatenate([w[::-1], w]) / 2.0
    else:
        w = w / (2.0 * y)
        j = np.arange(1.0, k + 1.0)
        center = np.sqrt(np.pi) / ((2 * k + 1) * np.prod((2.0 * j - 1.0) / (2.0 * j)))
        nodes = np.concatenate([-half[::-1], [0.0], half])
        weights = np.concatenate([w[::-1], [center], w])
    _read_only(nodes, weights)
    return QuadratureRule("line", nodes, weights, {"n": n})


@lru_cache(maxsize=_RULE_CACHE)
def gauss_halfline(n: int, alpha: float) -> QuadratureRule:
    """n-point generalized Gauss-Laguerre rule for x^alpha exp(-x) dx
    (cached, read-only arrays), built by ``_laguerre_rule``."""
    if n < 1:
        raise ValueError("rule order must be positive")
    if not -1.0 < alpha < np.inf:  # NaN fails this too
        raise ValueError("gauss_halfline requires finite alpha > -1")
    nodes, weights = _laguerre_rule(n, alpha)
    _read_only(nodes, weights)
    return QuadratureRule("halfline", nodes, weights, {"n": n, "alpha": alpha})


def _jacobi_chain(n: int, a, b):
    """zeta_(2k+1) and zeta_(2k+2), k = 0..n-1, of (1-u)^a u^b du on [0, 1].

    The chain sequence factors the measure's Jacobi matrix as L L^T, with L
    lower bidiagonal: L_kk = sqrt(zeta_(2k+1)) and L_(k+1,k) =
    sqrt(zeta_(2k+2)) (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004, sec. 1.4).  Computed in the dtype of ``a``.
    """
    k = np.arange(n, dtype=np.result_type(a, float))
    s = a + b
    odd = (k + b + 1.0) * (k + s + 1.0) / ((2.0 * k + s + 1.0) * (2.0 * k + s + 2.0))
    k = k + 1.0
    even = k * (k + a) / ((2.0 * k + s) * (2.0 * k + s + 1.0))
    return odd, even


def _chain_bidiagonal(n: int, a: float, b: float):
    """Diagonal and off-diagonal of L^T for (1-u)^a u^b du (``_jacobi_chain``)."""
    odd, even = _jacobi_chain(n, a, b)
    return np.sqrt(odd), np.sqrt(even[:-1])


@lru_cache(maxsize=_RULE_CACHE)
def _gauss_jacobi01(n: int, gamma: float):
    """Gauss rule for (1-u)^gamma du on [0, 1] (one-sided Jacobi weight;
    cached, read-only arrays).

    The nodes below u = 1/2 are the squared singular values of the measure's
    chain-sequence bidiagonal, and 1 - u above it those of the reflected
    measure u^gamma du, whose Jacobi matrix is I - J up to signs: both
    relatively accurate, so u near 1 is right to its last bit.  One
    ``_newton_christoffel`` step in long double then gives the nodes and
    their weights: weights summed at the rounded float64 nodes were 3.4e-12
    off near u = 1 at n = 80, gamma = -1/2.  Where the platform's long double
    is plain double, as in ``kernels._talbot_contour``, the step runs in
    float64 and the weights keep that error.
    """
    g = float(gamma)
    x = _two_sided_nodes(_chain_bidiagonal(n, g, 0.0), _chain_bidiagonal(n, 0.0, g))
    ld = np.longdouble
    odd, even = _jacobi_chain(n, ld(g), ld(0.0))
    diag = odd.copy()
    diag[1:] += even[:-1]
    # p_0 = 1 / sqrt(mu0), mu0 = 1 / (gamma + 1)
    x, weights = _newton_christoffel(x, diag, np.sqrt(odd * even), np.sqrt(ld(g) + 1.0))
    u, wu = x.astype(float), weights.astype(float)
    _read_only(u, wu)
    return u, wu


def _tridiagonal_gauss(diag, off, mu0: float, orders):
    """Gauss rules of a measure on (0, 1) with total mass mu0, one (nodes,
    weights) per n in ``orders`` (ascending), from the leading blocks of its
    recurrence: ``diag`` a_0..a_(N-1) and ``off`` b_1..b_N.

    J and I - J are positive definite; their Cholesky factors are bidiagonal,
    the factor of a leading block is the leading block of the factor, and its
    squared singular values give u below 1/2 and 1 - u above it
    (``_two_sided_nodes``).  One long-double ``_newton_christoffel`` step for
    all the nodes at once then gives the weights, as for ``_gauss_jacobi01``;
    each rule is bit for bit the one its order alone gives.  On the discrete
    measures of ``kernels`` (the plain one, and omega at five (alpha, m)
    pairs up to (1.5, 12)), the rules of 24 to 64 nodes reproduce
    sum masses_k e^(-c s_k), c = 5..50, within 1.8e-15 relative (7.1e-16 for
    omega), and every weight is positive.  The recurrence runs without
    reorthogonalization, so it could repeat a node it has already resolved;
    on those six measures no rung of ``kernels._T_RULE_LADDER`` does, its
    nodes lying at least 1.49e-3 apart (omega(1.5, 12) at 40 nodes).
    """
    ld = np.longdouble
    factors = _cholesky_bidiagonals(diag, off[:-1])
    x = np.concatenate([_two_sided_nodes(*[(d[:n], e[:n - 1]) for d, e in factors])
                        for n in orders])
    x, weights = _newton_christoffel(x, diag.astype(ld), off.astype(ld), 1.0,
                                     np.repeat(orders, orders))
    bounds = np.cumsum(orders)[:-1]
    return list(zip(np.split(x.astype(float), bounds),
                    np.split((mu0 * weights).astype(float), bounds)))


def _cholesky_bidiagonals(diag, off):
    """(diagonal, subdiagonal) of the lower bidiagonal Cholesky factors of
    J and of I - J, for a Jacobi matrix J (``diag``, ``off``) with its
    spectrum in (0, 1)."""
    lo_d, lo_e, hi_d, hi_e = [], [], [], []
    lo, hi = float(diag[0]), 1.0 - float(diag[0])
    for a, b in zip(diag[1:].tolist(), off.tolist()):
        lo_d.append(math.sqrt(lo))
        hi_d.append(math.sqrt(hi))
        lo_e.append(b / lo_d[-1])
        hi_e.append(b / hi_d[-1])
        lo = a - lo_e[-1] * lo_e[-1]
        hi = (1.0 - a) - hi_e[-1] * hi_e[-1]
    lo_d.append(math.sqrt(lo))
    hi_d.append(math.sqrt(hi))
    return (np.array(lo_d), np.array(lo_e)), (np.array(hi_d), np.array(hi_e))


def _polar_rule(kind: str, u, wu, n_theta: int, meta: dict) -> QuadratureRule:
    """The product of a radial Gauss rule in u = r^2 (nodes ``u``, weights
    ``wu``) and the n_theta-point trapezoid in theta, for a radial measure
    rho(|z|^2) dA = (1/2) rho(u) du dtheta: node weights (pi / n_theta) w_u.

    It integrates z^a conj(z)^b rho(|z|^2) exactly whenever a = b <= 2 n_r - 1,
    and annihilates a != b for |a - b| < n_theta, matching the Hermitian
    moment structure of the measure.  Nodes are radius-major: node
    a * n_theta + b is r_a e^(2 pi i b / n_theta), so the values on the rule
    reshape to (n_r, n_theta), node a * n_theta is the radius r_a itself (a
    real number), and every node of a circle has the same weight.  The
    target spaces (``kernels._target_space``, on the measures of
    ``special.BASES``) read the radii and radial weights off that layout.
    """
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = (np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w = np.broadcast_to((np.pi / n_theta) * wu[:, None], (u.shape[0], n_theta)).ravel().copy()
    return QuadratureRule(kind, z, w, meta)


def disk_rule(n_r: int, n_theta: int, gamma: float) -> QuadratureRule:
    """Polar rule (``_polar_rule``) on the unit disk for the measure
    (1-|z|^2)^gamma dA: Gauss-Jacobi in u = r^2 times the trapezoid."""
    if n_r < 1 or n_theta < 1:
        raise ValueError("rule orders must be positive")
    if not -1.0 < gamma < np.inf:  # NaN fails this too
        raise ValueError("disk_rule requires finite gamma > -1")
    u, wu = _gauss_jacobi01(n_r, gamma)
    return _polar_rule("disk", u, wu, n_theta,
                       {"n_r": n_r, "n_theta": n_theta, "gamma": gamma})


def gaussian_plane_rule(n_r: int, n_theta: int) -> QuadratureRule:
    """Polar rule (``_polar_rule``) on the complex plane for the measure
    exp(-|z|^2) dA: Gauss-Laguerre (alpha = 0) in u = r^2 times the
    trapezoid."""
    if n_r < 1 or n_theta < 1:
        raise ValueError("rule orders must be positive")
    radial = gauss_halfline(n_r, 0.0)
    return _polar_rule("plane", radial.nodes, radial.weights, n_theta,
                       {"n_r": n_r, "n_theta": n_theta})
