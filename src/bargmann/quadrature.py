"""Gaussian quadrature rules for the measures used by the transforms.

Every rule packs the weight function into its weights, so
``rule.weights @ f(rule.nodes)`` approximates the integral of plain ``f``
against the rule's measure:

- ``gauss_line``:       exp(-x^2) dx on the real line,
- ``gauss_halfline``:   x^alpha exp(-x) dx on (0, inf),
- ``disk_rule``:        (1-|z|^2)^gamma dA(z) on the unit disk,
- ``gaussian_plane_rule``: exp(-|z|^2) dA(z) on the complex plane.

Nodes and weights come from the Golub-Welsch eigenvalue method applied to
the Jacobi matrix of the associated orthogonal family.

The one-dimensional builders (``gauss_line``, ``gauss_halfline`` and the
radial Gauss-Jacobi rule of ``disk_rule``) keep their last results, a few KB
each, and return them as read-only arrays shared by every caller.  The
two-dimensional rules are built afresh: a 120 x 256 disk rule alone is
~0.7 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .special import log_gamma

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


def _golub_welsch(diag, offdiag, mu0):
    """Nodes and weights from a Jacobi matrix with total mass mu0."""
    if len(diag) == 1:
        return np.asarray(diag, dtype=float), np.asarray([mu0], dtype=float)
    nodes, vectors = eigh_tridiagonal(np.asarray(diag, float), np.asarray(offdiag, float))
    weights = mu0 * vectors[0, :] ** 2
    return nodes, weights


@lru_cache(maxsize=_RULE_CACHE)
def gauss_line(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule for the measure exp(-x^2) dx (cached,
    read-only arrays)."""
    if n < 1:
        raise ValueError("rule order must be positive")
    diag = np.zeros(n)
    b = np.sqrt(np.arange(1, n + 1) / 2.0)
    log_mu0 = 0.5 * np.log(np.pi)
    if n == 1:
        nodes, weights = diag[:1], np.asarray([np.exp(log_mu0)])
    else:
        nodes = eigh_tridiagonal(diag, b[:-1], eigvals_only=True)
        nodes = _newton_polish(nodes, diag, b)
        nodes = 0.5 * (nodes - nodes[::-1])  # enforce exact symmetry
        weights = _christoffel_log_weights(nodes, diag, b, log_mu0)
        weights = 0.5 * (weights + weights[::-1])
    _read_only(nodes, weights)
    return QuadratureRule("line", nodes, weights, {"n": n})


def _newton_polish(nodes, diag, b):
    """Refine Golub-Welsch nodes to roots of the degree-n recurrence polynomial.

    The eigenvalue solve carries an absolute error of order eps * ||J||, which
    for half-line rules grows linearly with the rule order and leaks into
    high-degree orthogonality sums.  A few Newton steps on the three-term
    recurrence restore the nodes to relative machine accuracy.  The recurrence
    values grow like exp(x/2), so each step renormalizes per node; Newton only
    needs the scale-free ratio p_n / p_n'.
    """
    x = nodes.copy()
    n = len(diag)
    for _ in range(3):
        p_prev = np.zeros_like(x)
        p = np.ones_like(x)
        d_prev = np.zeros_like(x)
        d = np.zeros_like(x)
        for k in range(n):
            p_next = ((x - diag[k]) * p - (b[k - 1] * p_prev if k else 0.0)) / b[k]
            d_next = (p + (x - diag[k]) * d - (b[k - 1] * d_prev if k else 0.0)) / b[k]
            rescale = np.where(np.abs(p_next) > 1e120, 1e-120, 1.0)
            p_prev, p = p * rescale, p_next * rescale
            d_prev, d = d * rescale, d_next * rescale
        x = x - p / d
    return x


def _christoffel_log_weights(x, diag, b, log_mu0):
    """Gauss weights 1 / sum_k p_k(x_i)^2 via a log-scaled recurrence.

    Eigenvector-based weights flush to zero once the first eigenvector
    component drops below machine tiny, yet high-degree integrands put most
    of their mass exactly on those far nodes.  Running the orthonormal
    recurrence with a per-node scale factor keeps every weight relatively
    accurate down to the double-precision underflow threshold.
    """
    n = len(diag)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    S = np.ones_like(x)
    log_scale = np.zeros_like(x)
    for k in range(n - 1):
        p_next = ((x - diag[k]) * p - (b[k - 1] * p_prev if k else 0.0)) / b[k]
        big = np.abs(p_next) > 1e120
        if np.any(big):
            rescale = np.where(big, 1e-120, 1.0)
            log_scale += np.where(big, np.log(1e120), 0.0)
            p_prev, p_next = p_prev * rescale, p_next * rescale
            p = p * rescale
            S = S * rescale**2
        p_prev, p = p, p_next
        S = S + p * p
    return np.exp(log_mu0 - np.log(S) - 2.0 * log_scale)


@lru_cache(maxsize=_RULE_CACHE)
def gauss_halfline(n: int, alpha: float) -> QuadratureRule:
    """n-point generalized Gauss-Laguerre rule for x^alpha exp(-x) dx
    (cached, read-only arrays)."""
    if n < 1:
        raise ValueError("rule order must be positive")
    if not -1.0 < alpha < np.inf:  # NaN fails this too
        raise ValueError("gauss_halfline requires finite alpha > -1")
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    j = np.arange(1, n + 1, dtype=float)
    b = np.sqrt(j * (j + alpha))
    log_mu0 = float(log_gamma(alpha + 1.0))
    if n == 1:
        nodes, weights = diag[:1], np.asarray([np.exp(log_mu0)])
    else:
        nodes = eigh_tridiagonal(diag, b[:-1], eigvals_only=True)
        nodes = _newton_polish(nodes, diag, b)
        weights = _christoffel_log_weights(nodes, diag, b, log_mu0)
    _read_only(nodes, weights)
    return QuadratureRule("halfline", nodes, weights, {"n": n, "alpha": alpha})


@lru_cache(maxsize=_RULE_CACHE)
def _gauss_jacobi01(n: int, gamma: float):
    """Gauss rule for (1-u)^gamma du on [0, 1] (one-sided Jacobi weight;
    cached, read-only arrays)."""
    a = float(gamma)
    k = np.arange(n, dtype=float)
    diag = np.empty(n)
    diag[0] = -a / (a + 2.0)
    if n > 1:
        kk = k[1:]
        diag[1:] = -(a * a) / ((2.0 * kk + a) * (2.0 * kk + a + 2.0))
    j = np.arange(1.0, n)
    off = np.sqrt(
        4.0 * j**2 * (j + a) ** 2
        / ((2.0 * j + a) ** 2 * (2.0 * j + a + 1.0) * (2.0 * j + a - 1.0))
    )
    mu0 = 2.0 ** (a + 1.0) / (a + 1.0)
    x, w = _golub_welsch(diag, off, mu0)
    # map [-1, 1] -> [0, 1]: the factor 2^(gamma+1) absorbs both the jacobian
    # and the rescaling of (1-x)^gamma
    u, wu = (1.0 + x) / 2.0, w / 2.0 ** (a + 1.0)
    _read_only(u, wu)
    return u, wu


def disk_rule(n_r: int, n_theta: int, gamma: float) -> QuadratureRule:
    """Product rule on the unit disk for the measure (1-|z|^2)^gamma dA.

    Radially a Gauss-Jacobi rule in u = r^2, angularly the n_theta-point
    trapezoid (exact for angular frequencies below n_theta).  The rule
    integrates z^a conj(z)^b (1-|z|^2)^gamma exactly whenever a = b with
    (a+b)/2 within the radial budget, and annihilates a != b below the
    angular budget, matching the Hermitian moment structure of the measure.

    Nodes are radius-major: node a * n_theta + b is r_a e^(2 pi i b /
    n_theta), so the values on the rule reshape to (n_r, n_theta), node
    a * n_theta is the radius r_a itself (a real number), and every node of
    a circle has the same weight.  Polar callers (``kernels.TargetSpace``)
    read the radii and radial weights off that layout.
    """
    if n_r < 1 or n_theta < 1:
        raise ValueError("rule orders must be positive")
    if not -1.0 < gamma < np.inf:  # NaN fails this too
        raise ValueError("disk_rule requires finite gamma > -1")
    u, wu = _gauss_jacobi01(n_r, gamma)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    r = np.sqrt(u)
    z = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w = np.broadcast_to((np.pi / n_theta) * wu[:, None], (n_r, n_theta)).ravel().copy()
    return QuadratureRule(
        "disk", z, w, {"n_r": n_r, "n_theta": n_theta, "gamma": gamma}
    )


def gaussian_plane_rule(n: int) -> QuadratureRule:
    """Tensor Gauss-Hermite rule for exp(-|z|^2) dA on the complex plane."""
    base = gauss_line(n)
    x = base.nodes
    w = base.weights
    z = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w[:, None] * w[None, :]).ravel()
    return QuadratureRule("plane", z, weights, {"n": n})

