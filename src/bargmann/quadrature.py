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

- nodes start as the squared singular values of a bidiagonal factor B of
  J (J = B B^T), which are relatively accurate down to the smallest node
  (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 1990): a closed-form
  factor for the Laguerre rules, and the Cholesky factor for every measure
  on (0, 1), the radial Jacobi rule and the discrete measures of
  ``kernels`` alike (``_tridiagonal_gauss``);
- one Newton step on the recurrence, in long double, then polishes every
  node, those near u = 1 included, and every weight is a Christoffel sum
  at the moved node (``_newton_christoffel``): the Laguerre, Jacobi and
  discrete-measure rules alike (``_laguerre_rule``, ``_gauss_jacobi01``,
  ``_tridiagonal_gauss``); the Hermite rule is assembled from two Laguerre
  halves (``gauss_line``).  The step keeps three recurrence rows and
  running sums, O(n) long doubles, so a build's traced peak is the dense
  bidiagonal handed to the SVD: 120 KB at n = 120, 717 KB at n = 300, 38 KB
  for the 60-point Jacobi rule, 50 KB for a t-rule ladder.  A weight that
  is NaN or inf in float64 raises ``ValueError`` (``_finite_weights``); one
  that underflows to 0 is kept.

Only numpy and ``math`` are needed.

The one-dimensional builders (``gauss_line``, ``gauss_halfline`` and the
radial Gauss-Jacobi rule of ``disk_rule``) keep their last results, a few KB
each, and return them as read-only arrays shared by every caller.  The
polar rules are built afresh from those radial rules: ~0.1 MB of nodes and
weights for a default target rule (at most 34 x 128 nodes), ~0.7 MB at
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


def _check_integer(value, name: str) -> int:
    """value as an int; 2.0 passes, 2.7, NaN and inf raise (no truncation)."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _read_only(*arrays):
    """Mark a cached builder's arrays read-only: every caller shares them."""
    for a in arrays:
        a.setflags(write=False)


def _finite_weights(weights, rule: str):
    """The float64 ``weights`` of ``rule``, or ValueError if one is NaN or inf:
    such a weight is lost, not small.  Zero weights pass; the far nodes of
    large half-line rules underflow to them."""
    bad = np.count_nonzero(~np.isfinite(weights))
    if bad:
        raise ValueError(f"{rule}: {bad} of {weights.shape[0]} Gauss weights "
                         "are not finite in float64")
    return weights


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
    ~10-40 ms at n = 300).
    """
    n = diag.shape[0]
    i = np.arange(n)
    upper = np.zeros((n, n))
    upper[i, i] = diag
    upper[i[:-1], i[1:]] = off
    return np.linalg.svd(upper, compute_uv=False)[::-1] ** 2


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
    gives each node its own n <= len(diag): its step reads p_n, and its sums
    stop at k < n, so its step and weight are bit for bit those of a call on
    that node's block alone.

    The recurrence keeps three rows (p, p') of the m nodes and adds each
    (p_k^2, p_k p_k') to a running sum as it passes, so a call holds O(m)
    long doubles, ~100 KB traced at m = 300 (~350 bytes a node), where a
    table of every p_k held O(n m): 5.9 MB for the 300-node half-line rule.
    Every node runs all len(diag) steps; after step n - 1 the nodes of
    order n keep their (p_n, p_n') and their sums, which then hold k < n
    only.  Each element sees the same long-double operations in the same
    order as that table summed along k, so every node and weight is bit for
    bit the table's.  A step is ~9 ufunc calls on short rows, so their
    overhead counts: the calls take ``out`` by position and the
    coefficients as 0-d views (``diag[k, ...]``), the rows' p and p' views
    are made once, and x - a_k fills both rows of a (2, m) block, so the
    step's product does not broadcast.  Without these the 120-point
    half-line rule built ~7 % slower than from the table; with them, within
    1 % (3 % at 40 points, 12 % faster at 300).
    """
    n = diag.shape[0] if orders is None else orders     # each node's order
    # the orders as a set: np.unique would import numpy.ma, ~1 MB resident
    ends = {n} if orders is None else set(orders.tolist())
    inv_b = 1.0 / b
    rows = np.zeros((3, 2, x.shape[0]), dtype=x.dtype)   # p_(k-1), p_k, p_(k+1) in turn
    rows[1, 0] = p0
    views = [(row, *row) for row in rows]       # each row, its p and its p'
    sums = np.zeros_like(rows[0])               # sum_k p_k^2, sum_k p_k p_k'
    last, total = np.empty_like(sums), np.empty_like(sums)   # (p_n, p_n') and sums at n
    xs, shift, scratch = np.stack([x, x]), np.empty_like(sums), np.empty_like(sums)
    squares, cross = scratch
    for k in range(diag.shape[0]):
        prev = views[k % 3][0]
        cur, p, dp = views[(k + 1) % 3]
        nxt, _, dp_next = views[(k + 2) % 3]
        np.multiply(p, p, squares)
        np.multiply(p, dp, cross)
        np.add(sums, scratch, sums)
        np.multiply(np.subtract(xs, diag[k, ...], shift), cur, nxt)
        np.add(dp_next, p, dp_next)
        if k:
            np.subtract(nxt, np.multiply(prev, b[k - 1, ...], scratch), nxt)
        np.multiply(nxt, inv_b[k, ...], nxt)
        if k + 1 in ends:                       # the nodes of order k + 1 are done
            done = n == k + 1
            np.copyto(last, nxt, where=done)
            np.copyto(total, sums, where=done)
    step = -last[0] / last[1]
    s, t = total
    return x + step, np.exp(-2.0 * step * t / s) / s


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
    weights = _finite_weights((np.exp(-x) * weights).astype(float),
                              f"the {n}-point Gauss-Laguerre rule at alpha = {alpha}")
    return moved.astype(float), weights


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
    n = _check_integer(n, "rule order")
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
    n = _check_integer(n, "rule order")
    if n < 1:
        raise ValueError("rule order must be positive")
    if not -1.0 < alpha < np.inf:  # NaN fails this too
        raise ValueError("gauss_halfline requires finite alpha > -1")
    nodes, weights = _laguerre_rule(n, alpha)
    _read_only(nodes, weights)
    return QuadratureRule("halfline", nodes, weights, {"n": n, "alpha": alpha})


def _jacobi_chain(n: int, a):
    """zeta_(2k+1) and zeta_(2k+2), k = 0..n-1, of (1-u)^a du on [0, 1].

    The chain sequence factors the measure's Jacobi matrix as L L^T, with L
    lower bidiagonal: L_kk = sqrt(zeta_(2k+1)) and L_(k+1,k) =
    sqrt(zeta_(2k+2)) (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004, sec. 1.4).  Computed in the dtype of ``a``.
    """
    k = np.arange(n, dtype=np.result_type(a, float))
    odd = (k + 1.0) * (k + a + 1.0) / ((2.0 * k + a + 1.0) * (2.0 * k + a + 2.0))
    k = k + 1.0
    even = k * (k + a) / ((2.0 * k + a) * (2.0 * k + a + 1.0))
    return odd, even


@lru_cache(maxsize=_RULE_CACHE)
def _gauss_jacobi01(n: int, gamma: float):
    """Gauss rule for (1-u)^gamma du on [0, 1] (one-sided Jacobi weight;
    cached, read-only arrays), built by ``_tridiagonal_gauss`` from the
    recurrence of its chain sequence (``_jacobi_chain``), formed in long
    double: a_k = zeta_2k + zeta_(2k+1), b_k = sqrt(zeta_(2k+1) zeta_(2k+2))
    and mass 1 / (gamma + 1).

    The long-double step makes the weights: summed at the rounded float64
    nodes they were 3.4e-12 off near u = 1 at n = 80, gamma = -1/2.  It also
    makes u near 1 right to its last bit with no factor of I - J: the four
    largest nodes at n = 40, 80 and 120 (gamma = -0.9, -0.5, 0, 2) are
    within 0.50 ulp of a 40-digit reference, and the four smallest within
    0.44 ulp at n = 40 and 80.  Near u = 0 the step is accurate in absolute,
    not relative, terms: the smallest node at n = 120, gamma = -0.9 (~1e-4)
    lands within 0.93 ulp from any start within 1000 ulp.  Where the
    platform's long double is plain double, as in
    ``kernels._talbot_contour``, the step runs in float64 and the weights
    keep that error.
    """
    g = np.longdouble(gamma)
    odd, even = _jacobi_chain(n, g)
    diag = odd.copy()
    diag[1:] += even[:-1]
    (u, wu), = _tridiagonal_gauss(diag, np.sqrt(odd * even), 1.0 / (g + 1.0), (n,),
                                  f"the {n}-point Gauss-Jacobi rule at gamma = {float(gamma)}")
    _read_only(u, wu)
    return u, wu


def _tridiagonal_gauss(diag, off, mu0, orders, rule: str):
    """Gauss rules of a measure on (0, 1) with total mass mu0, one (nodes,
    weights) per n in ``orders`` (ascending), from the leading blocks of its
    recurrence: ``diag`` a_0..a_(N-1) and ``off`` b_1..b_N, in float64 or
    long double.  ``rule`` names the rules in the ValueError on a non-finite
    weight.

    J is positive definite; its Cholesky factor is bidiagonal, and the factor
    of a leading block is the leading block of the factor, so each order's
    nodes start as that block's squared singular values
    (``_squared_singular_values``): relative to the factor's entries, which
    carry the rounding of its float64 pivots (the smallest start of the
    120-point Jacobi rule at gamma = -0.9 is 260 ulps off), and near u = 1
    a few ulps of 1, not of 1 - u.  One long-double ``_newton_christoffel``
    step for all the nodes at once then polishes them to ~1 ulp at either
    end (``_gauss_jacobi01``) and gives the weights; each rule is bit for
    bit the one its order alone gives.  On the discrete measures of
    ``kernels`` (the plain one, and omega at five (alpha, m) pairs up to
    (1.5, 12)), the rules of 24 to 64 nodes reproduce sum masses_k
    e^(-c s_k), c = 5..50, within 1.8e-15 relative (7.1e-16 for omega), and
    every weight is positive.  The recurrence runs without
    reorthogonalization, so it could repeat a node it has already resolved;
    on those six measures no rung of ``kernels._T_RULE_LADDER`` does, its
    nodes lying at least 1.54e-3 apart (omega(1.5, 12) at 40 nodes).
    """
    ld = np.longdouble
    d, e = _cholesky_bidiagonal(diag, off[:-1])
    x = np.concatenate([_squared_singular_values(d[:n], e[:n - 1]) for n in orders])
    x, weights = _newton_christoffel(x.astype(ld), diag.astype(ld), off.astype(ld), 1.0,
                                     np.repeat(orders, orders))
    weights = _finite_weights((mu0 * weights).astype(float), rule)
    bounds = np.cumsum(orders)[:-1]
    return list(zip(np.split(x.astype(float), bounds), np.split(weights, bounds)))


def _cholesky_bidiagonal(diag, off):
    """(diagonal, subdiagonal) of the lower bidiagonal Cholesky factor of a
    positive definite Jacobi matrix J (``diag``, ``off``), in float64."""
    d, e = [], []
    pivot = float(diag[0])
    for a, b in zip(diag[1:].astype(float).tolist(), off.astype(float).tolist()):
        d.append(math.sqrt(pivot))
        e.append(b / d[-1])
        pivot = a - e[-1] * e[-1]
    d.append(math.sqrt(pivot))
    return np.array(d), np.array(e)


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
    target rules (``transforms._target_rule``, on the measures of
    ``special.BASES``) keep that layout, and the integral inverse reads the
    radii and each circle's weight off it.
    """
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = (np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w = np.broadcast_to((np.pi / n_theta) * wu[:, None], (u.shape[0], n_theta)).ravel().copy()
    return QuadratureRule(kind, z, w, meta)


def disk_rule(n_r: int, n_theta: int, gamma: float) -> QuadratureRule:
    """Polar rule (``_polar_rule``) on the unit disk for the measure
    (1-|z|^2)^gamma dA: Gauss-Jacobi in u = r^2 times the trapezoid."""
    n_r, n_theta = _check_integer(n_r, "rule order"), _check_integer(n_theta, "rule order")
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
    n_r, n_theta = _check_integer(n_r, "rule order"), _check_integer(n_theta, "rule order")
    if n_r < 1 or n_theta < 1:
        raise ValueError("rule orders must be positive")
    radial = gauss_halfline(n_r, 0.0)
    return _polar_rule("plane", radial.nodes, radial.weights, n_theta,
                       {"n_r": n_r, "n_theta": n_theta})
