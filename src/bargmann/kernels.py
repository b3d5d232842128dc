"""Transform kernels, the convolution weight for the generalized family,
and the family table with each family's bases (``special.BASES`` kinds).

Every kernel has at least two independent evaluation routes:

- a primary route (closed form, or a quadrature of an integral
  representation for the two Dirichlet-type families: one integrand,
  ``_dirichlet_type_kernel``, the plain family being (alpha, m) = (0, 1),
  each family on its own discrete measure, a trapezoid in u = sqrt(t) of
  sqrt(t)e^-t dt for the plain family and of the convolution weight omega dt
  for the generalized one, written in s = e^-t.  A call whose largest |z|
  is at most 0.9 integrates on the Gauss rule of that measure sized from
  that |z| (``_T_RULE_LADDER``); past it, on the whole measure), and
- a truncated series over the orthonormal source/target bases.

The two routes are compared in the verification suite; the series route is
also what makes integral inversion against polar target rules accurate, since
a truncated kernel is integrated exactly by a rule whose angular and radial
orders dominate the truncation index.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .special import (
    BasisFamily,
    _LOG_PI,
    _check_disk_point,
    _check_plane_point,
    _check_source_point,
    _laguerre,
    bargmann_fock,
    basis_matrix,
    bergman,
    dirichlet,
    disk_eigen,
    gen_dirichlet,
    hermite_l2,
    laguerre_l2,
    laguerre_sequence,
    log_gamma,
)
from .quadrature import QuadratureRule, _check_integer, _read_only, _tridiagonal_gauss

__all__ = [
    "OmegaWeight",
    "omega",
    "omega_laplace",
    "omega_laplace_closed",
    "classical_kernel",
    "second_kernel",
    "generalized_second_kernel",
    "dirichlet_kernel",
    "gen_dirichlet_kernel",
    "FamilySpec",
    "FAMILIES",
    "KernelFamily",
    "kernel_matrix",
    "kernel_series",
]


# ---------------------------------------------------------------------------
# Convolution weight omega_(alpha, m)
# ---------------------------------------------------------------------------

def _stieltjes(atoms: np.ndarray, masses: np.ndarray, n: int):
    """Recurrence coefficients a_0..a_(n-1) (``diag``) and b_1..b_n (``off``)
    and total mass mu0 of the discrete measure sum_k masses_k delta(s - atoms_k):
    the Jacobi matrix of order n, and b_n, the scale of p_n.

    Discretized Stieltjes procedure (Gautschi, Orthogonal Polynomials:
    Computation and Approximation, 2004, sec. 2.2), run on the vectors
    u_k = sqrt(masses_k) p_j(atoms_k): the three-term recurrence forms each
    new orthogonal polynomial and scales it to unit norm in the measure, so
    its values neither under- nor overflow.  O(n N) for N atoms.  The
    leading block of order k < n is the pass run to order k, bit for bit.
    """
    mu0 = float(masses.sum())
    diag = np.empty(n)
    off = np.empty(n)
    u = np.sqrt(masses / mu0)
    u_prev = np.zeros_like(atoms)
    q = np.empty_like(atoms)
    scratch = np.empty_like(atoms)
    # np.dot, not @: with the other core busy, matmul products were
    # measured to stall ~8 ms each in the threaded BLAS, at this length and
    # at the kernel's (1, 120, 89) x (89,) alike; np.dot took ~10 us
    for j in range(n):
        np.multiply(atoms, u, out=q)
        a = diag[j] = np.dot(q, u)
        q -= np.multiply(u, a, out=scratch)
        if j:
            q -= np.multiply(u_prev, off[j - 1], out=scratch)
        b = off[j] = math.sqrt(np.dot(q, q))
        q /= b
        u_prev, u, q = u, q, u_prev
    return diag, off, mu0


# the ladder of sized t-rules, (rho, n) per rung: a call whose largest |z| is
# at most rho integrates on the n-point Gauss rule of its discrete measure;
# past the last rung, on the whole measure.  Against the whole measure at
# |z| = rho and x <= 30, for the plain measure and
# 16 omega pairs, each rung is within 2.3e-14 of the largest |K| over x (20
# nodes at 0.75 read 4.2e-13).  At 0.9, 48 nodes are no better than 40
# against mpmath (three angles, x <= 30): for omega(0, 2) both read 1.3e-12
# relative at x = 28.8, where every rule of the measure reads ~1e-12, and
# 6.4e-14 (40) and 1.3e-13 (48) elsewhere; for the plain measure and
# omega(0.5, 2) both read within 5.8e-15
_T_RULE_LADDER = ((0.6, 16), (0.75, 24), (0.85, 32), (0.9, 40))
# relative slack on rho: circle_points(0.75, N) reaches |z| = 0.75 + 1.1e-16
_RUNG_SLACK = 1e-12


def _gauss_ladder(measure: QuadratureRule) -> tuple[QuadratureRule, ...]:
    """One rule per rung of ``_T_RULE_LADDER``: the n-point Gauss rule of the
    discrete measure sum_k weights_k delta(s - nodes_k), each the leading
    block of one Stieltjes pass to the largest n.

    The kernels' integrands are analytic in s but for their singularity at
    s = 1/z, so on |z| <= rho the rule converges to the discrete sum
    geometrically, at a rate set by rho (Trefethen, Approximation Theory and
    Approximation Practice, ch. 19): far fewer nodes than the whole measure,
    which serves every |z| < 1.
    """
    orders = [n for _, n in _T_RULE_LADDER]
    rules = _tridiagonal_gauss(*_stieltjes(measure.nodes, measure.weights, orders[-1]),
                               orders, f"the Gauss rules of orders {orders} of a discrete measure")
    rungs = []
    for (rho, n), (nodes, weights) in zip(_T_RULE_LADDER, rules):
        _read_only(nodes, weights)
        rungs.append(QuadratureRule(measure.kind, nodes, weights, {"rho": rho, "gauss": n}))
    return tuple(rungs)


def _rung(z) -> int | None:
    """Index of the first rung of ``_T_RULE_LADDER`` whose rho bounds the
    largest |z| of a kernel call at the points z, or None past the last one
    (so a call past it builds no rung)."""
    radius = np.max(np.abs(z), initial=0.0)
    return next((k for k, (rho, _) in enumerate(_T_RULE_LADDER)
                 if radius <= rho * (1.0 + _RUNG_SLACK)), None)


# the weight's t-integral as a trapezoid in u = sqrt(t): the step, the last
# t sampled, and the nodes u_k = k h_u and atoms t_k = u_k^2, k = 1..316
_OMEGA_U_STEP = 0.02
_OMEGA_T_MAX = 40.0
_OMEGA_U = np.arange(1, int(np.sqrt(_OMEGA_T_MAX) / _OMEGA_U_STEP) + 1) * _OMEGA_U_STEP
_OMEGA_T = _OMEGA_U**2
_OMEGA_S = np.exp(-_OMEGA_T)
_read_only(_OMEGA_U, _OMEGA_T, _OMEGA_S)

# omega by Talbot inversion: the node count N and the constants (sigma, mu,
# nu, beta) of the cotangent contour z(theta) = N (sigma + mu theta
# cot(nu theta) + i beta theta) (Trefethen, Weideman & Schmelzer, BIT 46, 2006).
# 38 nodes: 36 leave up to 2.6e-13 of max omega at (1.5, 12), and 32 let the
# sum go negative there; more nodes add rounding at small m (every third
# atom of (0.5, 2) within 1.4e-15 of max omega on 36, 1.9e-15 on 38,
# 4.1e-15 on 40), which omega(0, 2)'s kernel amplifies near its zeros
_TALBOT_NODES = 38
_TALBOT_CONTOUR = (-0.6122, 0.5017, 0.6407, 0.2645)
# the largest m omega is built for.  Against mpmath at eight atoms t = 0.01
# ... 40, alpha = -0.99 ... 30, the samples are within 4.1e-14 of max omega
# up to m = 13 (2.5, 13), and 1.3e-13 at (3, 14), past the 1e-13 its tests
# hold; at m = 15-16 they reach 9.3e-13, from m = 17 the sum goes negative
# at each alpha = -0.9 ... 3 tried, and at m = 200 every sample is 0
_OMEGA_LAST_M = 13


def _talbot_contour():
    """z(theta_k), z'(theta_k) at the upper half's midpoints theta_k = (2k-1) pi/N,
    formed in long double where the platform has it: near theta = 0 the real
    part cancels ~5-fold, which in float64 moved the nodes by ~4 ulps."""
    n, (sigma, mu, nu, beta) = _TALBOT_NODES, _TALBOT_CONTOUR
    theta = np.arange(1, n, 2) * (4 * np.arctan(np.longdouble(1)) / n)
    cot = 1 / np.tan(nu * theta)
    z = n * (sigma + mu * theta * cot + 1j * beta * theta)
    dz = n * (mu * (cot - nu * theta * (1 + cot * cot)) + 1j * beta)
    return z.astype(complex), dz.astype(complex)


_TALBOT_Z, _TALBOT_DZ = _talbot_contour()
_read_only(_TALBOT_Z, _TALBOT_DZ)


@dataclass(frozen=True)
class OmegaWeight:
    """omega_(alpha,m) at the atoms ``_OMEGA_T``, t_k = (k h_u)^2 <= 40: the
    convolution of 2m - 1 densities t^(a-1) e^(-bt), whose transforms
    Gamma(a) (p + b)^(-a) multiply to ``omega_laplace_closed``.  Its
    ``measure`` is the trapezoid in u = sqrt(t) written in s = e^-t, which
    ``omega_laplace`` integrates against; the kernel's t-integral runs on
    the Gauss rules of that measure in ``rungs`` where |z| <= 0.9, and on
    the whole measure past that.  Each is built once per weight, on first
    use.  ``values`` come from ``omega``'s Talbot sum in real arithmetic, a
    build of ~0.3-1.5 ms and ~0.3 MB of scratch at m = 2..12."""

    alpha: float
    m: int
    values: np.ndarray

    @cached_property
    def measure(self) -> QuadratureRule:
        """The weight's trapezoid in u = sqrt(t), written in s = e^-t: masses
        2 h_u u_k omega(t_k) at the 316 atoms e^(-t_k) (``_OMEGA_S``),
        read-only.

        The exponents a sum to 2m - 1/2, so omega(t) = t^(2m-3/2) G(t) with G
        entire, and omega(t) f(t) dt = 2 u^(4m-2) G(u^2) f(u^2) du is even
        and analytic in u: the trapezoid in u converges exponentially and
        leaves no endpoint term (Trefethen & Weideman, SIAM Review 56, 2014).
        """
        masses = 2.0 * _OMEGA_U_STEP * _OMEGA_U * self.values
        _read_only(masses)
        return QuadratureRule("omega_s", _OMEGA_S, masses, {"h_u": _OMEGA_U_STEP})

    @cached_property
    def rungs(self) -> tuple[QuadratureRule, ...]:
        """The Gauss rules of the weight's measure, one per rung of
        ``_T_RULE_LADDER`` (``_gauss_ladder``)."""
        return _gauss_ladder(self.measure)


def _check_omega_args(alpha, m, j=0.0) -> tuple[float, int]:
    """(alpha, m) of a weight, checked by the space's basis (finite alpha > -1,
    integral m) and for 2 <= m <= ``_OMEGA_LAST_M``, with a finite Laplace
    rate j >= 0 (not NaN)."""
    if not 0.0 <= j < np.inf:
        raise ValueError("omega's Laplace rate j must be finite and >= 0")
    alpha, m = gen_dirichlet(alpha, m).params
    if not 2 <= m <= _OMEGA_LAST_M:
        raise ValueError(f"the omega weight requires 2 <= m <= {_OMEGA_LAST_M}, got m = {m}")
    return alpha, m


def _log_laplace(alpha: float, m: int, re, im):
    """log of omega_(alpha,m)'s Laplace transform at p = re + i im (principal
    branch), as its real and imaginary parts:
    Gamma(3/2)^m Gamma(1/2)^(m-1) / ([(p+1)...(p+m)]^(3/2)
    [(p+alpha+2)...(p+alpha+m)]^(1/2)), that is C + sum_j a_j log(p + s_j).

    Accumulated factor by factor in real arithmetic, in two arrays of p's
    shape: the real part sum_j (a_j/2) log((re + s_j)^2 + im^2) and the
    imaginary part sum_j a_j atan2(im, re + s_j), the argument np.log gives.
    No complex log is taken and no (2m - 1)-deep stack is held, so memory
    does not grow with m.  On omega's contour |p| <= ~2e5 and im != 0, so
    the squared modulus neither overflows nor reaches 0.
    """
    real = np.full(np.broadcast_shapes(np.shape(re), np.shape(im)),
                   m * log_gamma(1.5) + (m - 1) * log_gamma(0.5))
    imag = np.zeros_like(real)
    im2 = np.square(im)
    x, y = np.empty_like(real), np.empty_like(real)
    for a, shifts in ((-1.5, np.arange(1.0, m + 1)), (-0.5, alpha + np.arange(2.0, m + 1))):
        for s in shifts:
            np.add(re, s, out=x)
            np.arctan2(im, x, out=y)
            y *= a
            imag += y
            np.square(x, out=x)
            x += im2
            np.log(x, out=x)
            x *= 0.5 * a
            real += x
    return real, imag


def omega(alpha: float, m: int) -> OmegaWeight:
    """Convolution weight omega_(alpha,m) at the atoms ``_OMEGA_T``, by Talbot
    inversion of e^t omega(t), whose transform F(p - 1), F = exp(``_log_laplace``),
    has all its branch points on (-inf, 0]; on the contour p = z(theta)/t,
    halved by conjugate symmetry,

        omega(t) = e^-t (2 / (N t)) sum_k Im(e^(z_k) F(z_k/t - 1) z'(theta_k)).

    e^t omega(t) neither grows nor decays exponentially, so the sum keeps the
    tail out to t = 40, where inverting F itself loses it (2e2 off at t = 40
    with 32 nodes).  Against mpmath, on every third atom from t = 0.01 to
    40, it is within 1.9e-15 of max omega at (0.5, 2), 1.4e-15 at (3, 4) and
    3.5e-15 at (0, 10), and on eight atoms 1.6e-15 at (1.5, 11) and 2.5e-15
    at (1.5, 12), where a 36-node contour was up to 2.6e-13 of max omega
    off at t ~ 1-2, its own discretization error.  Past m = 13
    (``_OMEGA_LAST_M``) the contour's error passes 1e-13 of max omega, and
    the weight is refused with ValueError.

    The sum runs in real arithmetic: with R + i Theta = z_k + log F(z_k/t - 1)
    from ``_log_laplace``, each term is e^R (sin Theta Re z'_k + cos Theta
    Im z'_k).  No complex log or exp is taken, and the build holds a few
    (316, 19) float64 arrays, ~0.3 MB traced at any m.
    """
    alpha, m = _check_omega_args(alpha, m)
    t = _OMEGA_T[:, None]
    real, imag = _log_laplace(alpha, m, _TALBOT_Z.real / t - 1.0, _TALBOT_Z.imag / t)
    real += _TALBOT_Z.real
    imag += _TALBOT_Z.imag
    np.exp(real, out=real)
    terms = np.sin(imag) * _TALBOT_DZ.real
    np.cos(imag, out=imag)
    imag *= _TALBOT_DZ.imag
    terms += imag
    terms *= real
    values = np.exp(-_OMEGA_T) * (2.0 / _TALBOT_NODES) * terms.sum(axis=1) / _OMEGA_T
    # the weight is a convolution of nonnegative factors, hence nonnegative;
    # rounding dips the sum below zero where omega ~ t^(2m-3/2) vanishes
    if values.min() < -64.0 * np.finfo(float).eps * values.max():
        raise ValueError(f"omega samples went negative beyond round-off: {values.min()}")
    values = np.where(values < 0.0, 0.0, values)
    _read_only(values)   # every kernel call of one (alpha, m) shares a weight
    return OmegaWeight(alpha, m, values)


def omega_laplace(weight: OmegaWeight, j: float) -> float:
    """Laplace transform of the weight at rate j >= 0, as the kernel integrates
    it: the moment sum_k masses_k s_k^j of its measure in s = e^-t."""
    _check_omega_args(weight.alpha, weight.m, j)
    return float(np.dot(weight.measure.nodes**j, weight.measure.weights))


def omega_laplace_closed(alpha: float, m: int, j: float) -> float:
    """Closed-form Laplace transform of omega_(alpha,m) at rate j >= 0,
    Gamma(3/2)^m Gamma(1/2)^(m-1) / ([(j+1)...(j+m)]^(3/2)
    [(j+alpha+2)...(j+alpha+m)]^(1/2)), as a product of factors below 1, so
    it loses no digits to a large logarithm: against mpmath it is within
    2e-15 relative for m <= 20 (j = 0..5, 30, 1000), where the log-sum of
    ``_log_laplace`` (-44 at (1.5, 12), j = 2) read 1.7e-14.  At a large j
    the product underflows to 0.0; (j + b)^(3/2) is formed as
    (j + b) sqrt(j + b), which goes to inf past j ~ 1e205 where ** raises."""
    alpha, m = _check_omega_args(alpha, m, j)
    j = float(j)
    c, h = math.gamma(1.5), math.gamma(0.5)
    out = c / ((j + 1.0) * math.sqrt(j + 1.0))
    for b in range(2, m + 1):
        out *= c / ((j + b) * math.sqrt(j + b)) * (h / math.sqrt(j + alpha + b))
    return out


# ---------------------------------------------------------------------------
# The five transform kernels
# ---------------------------------------------------------------------------

def classical_kernel(z, x):
    """K(z, x) = pi^(-3/4) exp(sqrt(2) x z - z^2/2) on C x R."""
    z = _check_plane_point(z)
    x = _check_source_point(x)
    return np.pi ** -0.75 * np.exp(np.sqrt(2.0) * x * z - 0.5 * z * z)


def second_kernel(delta: float, z, x):
    """K(z, x) = Gamma(delta+1)^(-1/2) (1-z)^(-delta-1) exp(-xz/(1-z))."""
    (delta,) = bergman(delta).params   # the target basis checks the parameter
    z = _check_disk_point(z)
    x = _check_source_point(x)
    return (
        np.exp(-0.5 * log_gamma(delta + 1.0))
        * (1.0 - z) ** (-delta - 1.0)
        * np.exp(-x * z / (1.0 - z))
    )


def generalized_second_kernel(nu: float, ell: int, z, x):
    """Kernel of the transform onto the disk eigenspace of level ell.

    Prefactor (ell! (2(nu-ell)-1) / (pi Gamma(2 nu - ell)))^(1/2), Moebius
    factor ((1-|z|^2)/|1-z|^2)^(-ell), times (1-z)^(-2 nu) exp(xz/(z-1)) and
    a Laguerre factor of degree ell.  The overall sign (-1)^ell keeps the
    closed form equal to the basis series sum_j conj(phi_j(x)) psi_j(z): the
    factor (conj(z)-1)^ell (1-z)^ell = (-1)^ell |1-z|^(2 ell) arises when the
    bilateral generating function collapses the series, and the sign must
    stay with the kernel for the pairing B[phi_j] = psi_j to hold.
    """
    nu, ell = disk_eigen(nu, ell).params   # the target basis checks the parameters
    z = _check_disk_point(z)
    x = _check_source_point(x)
    beta_p = 2.0 * (nu - ell) - 1.0
    s = (1.0 - np.abs(z) ** 2) / np.abs(1.0 - z) ** 2
    pref = (-1.0) ** ell * np.exp(
        0.5 * (log_gamma(ell + 1.0) + np.log(beta_p) - _LOG_PI - log_gamma(2.0 * nu - ell))
    )
    return (
        pref
        * s ** (-float(ell))
        * (1.0 - z) ** (-2.0 * nu)
        * np.exp(x * z / (z - 1.0))
        * _laguerre(ell, beta_p, x * s)
    )


# the plain Dirichlet kernel's measure sqrt(t) e^-t dt as a trapezoid in
# u = sqrt(t): the step, the last node (the measure beyond it is ~1e-16), and
# the atoms t_k = (k h)^2, k = 1..620, with their masses 2 h t_k e^(-t_k)
_DIRICHLET_U_STEP = 0.01
_DIRICHLET_U_MAX = 6.2
_DIRICHLET_T = (np.arange(1, int(round(_DIRICHLET_U_MAX / _DIRICHLET_U_STEP)) + 1)
                * _DIRICHLET_U_STEP) ** 2
_DIRICHLET_MASSES = 2.0 * _DIRICHLET_U_STEP * _DIRICHLET_T * np.exp(-_DIRICHLET_T)
_read_only(_DIRICHLET_T, _DIRICHLET_MASSES)


@lru_cache(maxsize=1)
def _default_t_rule() -> QuadratureRule:
    """The plain Dirichlet kernel's t-integral as a rule in s = e^-t: the
    whole discrete measure, 620 atoms.

    With t = u^2 the measure sqrt(t) e^-t dt becomes 2 u^2 e^(-u^2) du,
    whose integrands are even and analytic in u, so the trapezoid in u
    converges exponentially (Trefethen & Weideman, SIAM Review 56, 2014):
    masses 2 h u_k^2 e^(-u_k^2) at the atoms s_k = e^(-u_k^2), u_k = k h.
    """
    atoms = np.exp(-_DIRICHLET_T)
    _read_only(atoms)
    return QuadratureRule("dirichlet_s", atoms, _DIRICHLET_MASSES,
                          {"h_u": _DIRICHLET_U_STEP})


@lru_cache(maxsize=1)
def _dirichlet_rungs() -> tuple[QuadratureRule, ...]:
    """The Gauss rules of the plain measure's 620 atoms, one per rung of
    ``_T_RULE_LADDER`` (``_gauss_ladder``), all built on first use."""
    return _gauss_ladder(_default_t_rule())


# cap on one block of the integral kernels' (points x nodes) scratch: 6144
# complex values, 96 KB, under glibc's default 128 KB mmap threshold
_BLOCK_ENTRIES = 6144


def _even_width(n: int, cap: int) -> int:
    """Width of the fewest equal blocks of at most ``cap`` that cover n."""
    return max(1, -(-n // max(1, -(-n // cap))))


def _blocked(z, x, nt, factors, block):
    """A (z, x)-broadcast t-integral on an nt-node rule, in the fewest equal
    blocks whose (points x nodes) scratch stays within ``_BLOCK_ENTRIES``.

    ``factors(z)`` forms the x-independent factors at some z, and
    ``block(f, x)`` integrates against them at x.  Evaluated whole, 129 z
    against 120 x on the plain measure's 620 atoms would need ~0.46 GB of
    temporaries (~17 MB on the 24-node rung), and even a forward-map row's
    ~1 MB ones would each be mapped, faulted in and unmapped again by
    glibc; a block costs a fixed overhead instead.  In ``kernel_matrix``'s
    layout (z a column, x a row) the grid is tiled and the factors formed
    once per block of z rows (a forward-map row on a rung of at most 40
    nodes is one block, on omega's 316 atoms seven x blocks of at most 18,
    on the plain measure's 620 fourteen of at most 9); any other shape is
    cut into chunks of its broadcast (z, x) pairs.
    """
    shape = np.broadcast_shapes(np.shape(z), np.shape(x))
    per_block = max(1, _BLOCK_ENTRIES // nt)
    out = np.empty(shape, dtype=complex)
    if np.ndim(z) == np.ndim(x) == 2 and z.shape[1] == x.shape[0] == 1:
        width = _even_width(shape[1], per_block)
        rows = _even_width(shape[0], max(1, per_block // width))
        for lo in range(0, shape[0], rows):
            f = factors(z[lo : lo + rows])
            for left in range(0, shape[1], width):
                out[lo : lo + rows, left : left + width] = block(f, x[:, left : left + width])
        return out
    zs, xs = (np.broadcast_to(a, shape).reshape(-1) for a in (z, x))
    flat = out.reshape(-1)   # a view: ``out`` is a fresh contiguous array
    size = _even_width(flat.shape[0], per_block)
    for lo in range(0, flat.shape[0], size):
        flat[lo : lo + size] = block(factors(zs[lo : lo + size]), xs[lo : lo + size])
    return out


def _dirichlet_type_kernel(alpha: float, m: int, z, x, s, weights):
    """The Dirichlet-type kernel of order m with weight exponent alpha, its
    t-integral on the rule (s, weights) in s = e^-t.

    Head: sum_{j<m} sqrt(j+alpha+1) z^j L_j^(alpha)(x) / sqrt(pi Gamma(1+alpha))
    (each term is conj(phi_j) psi_j for the orthonormal families, which is
    what the pairing and isometry checks require; see the decision notes on
    the head normalization).  Tail: c_m = m! Gamma(3/2)^-m Gamma(1/2)^(1-m) /
    sqrt(pi Gamma(1+alpha)) times z^m times the integral of
    (1-v)^(-alpha-m-1) e^(-xv/(1-v)) L_m^(alpha)(x/(1-v)), v = zs, formed
    from w = 1/(1-v) by products: one division per z point and node, none
    per x.
    """
    lg_a1 = log_gamma(alpha + 1.0)
    lag = laguerre_sequence(m - 1, alpha, x)
    head = np.zeros(np.broadcast(z, x).shape, dtype=complex)
    for j in range(m):
        head = head + np.sqrt(j + alpha + 1.0) * z**j * lag[..., j]
    head = head * np.exp(-0.5 * (_LOG_PI + lg_a1))

    def factors(zz):
        # the x-independent factors once per block of z
        v = zz[..., None] * s
        w = 1.0 / (1.0 - v)
        return w, v * w, w ** (alpha + m + 1.0)

    def block(f, xx):
        w, decay, power = f
        xx = xx[..., None]
        # the products in place, operands in this order: numpy would
        # otherwise reuse a temporary past 256 KB and swap the operands,
        # which moves complex products by an ulp, so a block's values would
        # depend on its size
        lag = _laguerre(m, alpha, xx * w)
        g = np.exp(-xx * decay)
        np.multiply(power, g, out=g)
        g *= lag
        return np.dot(g, weights)   # not @: see _stieltjes

    integral = _blocked(z, x, s.shape[0], factors, block)
    c_m = np.exp(log_gamma(m + 1.0) - m * log_gamma(1.5) - (m - 1) * log_gamma(0.5)
                 - 0.5 * (_LOG_PI + lg_a1))
    return head + c_m * z**m * integral


def dirichlet_kernel(z, x, rule: QuadratureRule | None = None):
    """Kernel of the Dirichlet-space transform, ``_dirichlet_type_kernel``
    at (alpha, m) = (0, 1): (1/sqrt(pi)) [1 + (z/Gamma(3/2)) I(z,x)], I the
    integral of (1-v)^-2 exp(-xv/(1-v)) L_1(x/(1-v)) against sqrt(t)e^-t dt.
    The integrand is analytic in s = e^-t on the closed unit interval, and
    the default rule is a Gauss rule of the measure's trapezoid in u =
    sqrt(t), written in s, sized from the largest |z| of the call
    (``_dirichlet_rungs``: 16 to 40 nodes for |z| <= 0.9), or past 0.9 that
    whole trapezoid (``_default_t_rule``, 620 atoms).  ``rule`` may instead
    be a half-line rule with alpha = 1/2, evaluated at s = e^-t.
    """
    z = _check_disk_point(z)
    x = _check_source_point(x)
    if rule is None:
        k = _rung(z)
        rule = _default_t_rule() if k is None else _dirichlet_rungs()[k]
        s = rule.nodes
    elif rule.kind == "halfline" and abs(rule.meta.get("alpha", -1.0) - 0.5) <= 1e-14:
        s = np.exp(-rule.nodes)
    else:
        raise ValueError("dirichlet_kernel needs a half-line rule with alpha = 1/2")
    return _dirichlet_type_kernel(0.0, 1, z, x, s, rule.weights)


def gen_dirichlet_kernel(alpha: float, m: int, z, x,
                         weight: OmegaWeight | None = None):
    """Kernel of the order-m Bergman-Dirichlet transform:
    ``_dirichlet_type_kernel``, its t-integral against the convolution
    weight omega_(alpha, m) dt.  The weight's trapezoid in u = sqrt(t),
    which leaves no endpoint term, is evaluated in s = e^-t on a Gauss rule
    of it sized from the largest |z| of the call (``OmegaWeight.rungs``: 16
    to 40 nodes for |z| <= 0.9), or past 0.9 on the whole trapezoid
    (``OmegaWeight.measure``, 316 atoms).  The weight is the one
    ``_default_omega`` keeps for (alpha, m); ``weight`` substitutes another
    built for the same pair, whose own rules the call then uses, so a
    measurement can hold one fixed.
    """
    alpha, m = _check_omega_args(alpha, m)
    z = _check_disk_point(z)
    x = _check_source_point(x)
    if weight is None:
        weight = _default_omega(alpha, m)
    if weight.m != m or abs(weight.alpha - alpha) > 1e-14:
        raise ValueError("omega weight was built for different (alpha, m)")
    k = _rung(z)
    rule = weight.measure if k is None else weight.rungs[k]
    return _dirichlet_type_kernel(alpha, m, z, x, rule.nodes, rule.weights)


# 16 slots: a stream of point queries over 12 (alpha, m) pairs in two
# independently shuffled orders kept rebuilding weights in 8
@lru_cache(maxsize=16)
def _default_omega(alpha: float, m: int) -> OmegaWeight:
    return omega(alpha, m)


# ---------------------------------------------------------------------------
# The five transform families and their uniform interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """One transform family, with kernel K(z, x) = sum_j conj(phi_j(x)) psi_j(z).

    ``params``: (name, type, description) per parameter; the names are also
    the CLI flags.  ``source``/``target`` build the bases phi_j/psi_j from
    the parameters.  ``evaluate(params, z, x)`` is the primary route, a
    closed form or an integral representation; ``weighted`` marks the route
    that integrates against the convolution weight omega_(alpha, m), which
    the kernel looks up (``_default_omega``).  ``evaluate`` looks the kernel
    functions up by their module-level names at call time, so code that
    rebinds those names (a tracer wrapping each layer, a test double) sees
    every call.
    """

    params: tuple
    source: Callable
    target: Callable
    evaluate: Callable
    weighted: bool = False


FAMILIES = {
    "classical": FamilySpec(
        (), hermite_l2, bargmann_fock,
        lambda p, z, x: classical_kernel(z, x)),
    "second": FamilySpec(
        (("delta", float, "second-kind weight exponent"),),
        laguerre_l2, bergman,
        lambda p, z, x: second_kernel(*p, z, x)),
    "generalized_second": FamilySpec(
        (("nu", float, "generalized-second parameter"),
         ("ell", int, "generalized-second level")),
        lambda nu, ell: laguerre_l2(2.0 * (nu - ell) - 1.0), disk_eigen,
        lambda p, z, x: generalized_second_kernel(*p, z, x)),
    "dirichlet": FamilySpec(
        (), lambda: laguerre_l2(0.0), dirichlet,
        lambda p, z, x: dirichlet_kernel(z, x)),
    "gen_bergman_dirichlet": FamilySpec(
        (("alpha", float, "Bergman-Dirichlet weight exponent"),
         ("m", int, "Bergman-Dirichlet derivative order")),
        lambda alpha, m: laguerre_l2(alpha),
        lambda alpha, m: gen_dirichlet(*_check_omega_args(alpha, m)),
        lambda p, z, x: gen_dirichlet_kernel(*p, z, x),
        weighted=True),
}


@dataclass(frozen=True)
class KernelFamily:
    """One of the five transform kernels, named by a key of ``FAMILIES``,
    with its two strategies: the family's primary route (closed form or
    integral representation) and a truncated basis series.  ``params``
    follows the family's parameter list and is converted to its types; an
    int parameter must be integral (1.5 raises rather than becoming 1)."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        spec = FAMILIES.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown kernel family {self.kind!r}")
        if len(self.params) != len(spec.params):
            raise ValueError(
                f"kernel family {self.kind!r} takes {len(spec.params)} "
                f"parameter(s), got {len(self.params)}")
        object.__setattr__(self, "params", tuple(
            float(value) if cast is float else _check_integer(value, f"{self.kind} {name}")
            for (name, cast, _), value in zip(spec.params, self.params)))
        # run the parameter validation of the underlying families
        self.source_basis()
        self.target_basis()

    def source_basis(self) -> BasisFamily:
        return FAMILIES[self.kind].source(*self.params)

    def target_basis(self) -> BasisFamily:
        return FAMILIES[self.kind].target(*self.params)

    __str__ = BasisFamily.__str__   # the same (kind, params) formatting


def kernel_matrix(family: KernelFamily, z, x, strategy: str = "primary", J: int = 120):
    """K(z_i, x_k) for arrays of targets z and sources x, by the family's
    primary route (``strategy="primary"``, see ``FAMILIES``) or its basis
    series truncated at J (``strategy="series"``)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if strategy == "series":
        return kernel_series(family, z, x, J)
    if strategy != "primary":
        raise ValueError(f"{family.kind} kernel has no {strategy!r} strategy; its "
                         "routes are 'primary' and 'series'")
    return FAMILIES[family.kind].evaluate(family.params, z[:, None], x[None, :])


def kernel_series(family: KernelFamily, z, x, J: int = 120):
    """Truncated basis series K(z,x) ~ sum_{j<=J} conj(phi_j(x)) psi_j(z)."""
    phi = basis_matrix(family.source_basis(), J, np.atleast_1d(x))
    psi = basis_matrix(family.target_basis(), J, np.atleast_1d(z))
    return psi @ phi.T.astype(complex)
