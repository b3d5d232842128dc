"""Transform kernels, the convolution weight for the generalized family,
the family table with each family's bases and target space, and
reproducing kernels.

A reproducing-kernel space is named by its orthonormal basis psi_j (a
``special.BasisFamily``): its kernel K(z, w) = sum_j psi_j(z) conj(psi_j(w))
is truncated by ``papadakis_sum`` and closed by ``reproducing_kernel``.

Every kernel has at least two independent evaluation routes:

- a primary route (closed form, or a quadrature of an integral
  representation for the two Dirichlet-type families: both t-integrals run
  on a trapezoid measure written in s = e^-t and compressed by keeping its
  atoms near s = 1 and replacing the rest by a Gauss rule, the trapezoid in
  u = sqrt(t) of sqrt(t)e^-t dt for the plain family and the convolution
  weight's own t-trapezoid for the generalized one), and
- a truncated series over the orthonormal source/target bases.

The two routes are compared in the verification suite; the series route is
also what makes integral inversion against polar disk rules accurate, since
a truncated kernel is integrated exactly by a rule whose angular and radial
orders dominate the truncation index.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .special import (
    BasisFamily,
    _LOG_PI,
    _abs2,
    _check_disk_point,
    _check_integer,
    _check_plane_point,
    _check_source_point,
    bargmann_fock,
    basis_matrix,
    bergman,
    dirichlet,
    disk_eigen,
    gen_dirichlet,
    hermite_l2,
    hyp3f2,
    jacobi_sequence,
    laguerre,
    laguerre_l2,
    laguerre_sequence,
    log_gamma,
    pochhammer,
)
from .quadrature import QuadratureRule, _golub_welsch, disk_rule, gaussian_plane_rule

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
    "TargetSpace",
    "FamilySpec",
    "FAMILIES",
    "KernelFamily",
    "kernel_matrix",
    "kernel_series",
    "reproducing_kernel",
    "papadakis_sum",
]


def _zeta_negative(nu: float) -> float:
    """zeta(-nu) for nu > 0, via the functional equation.

    These are the coefficients of the fractional h^(nu+1) terms a uniform
    trapezoid leaves behind at a t^nu integrand endpoint (the generalized
    Euler-Maclaurin expansion).
    """
    s = -nu
    return float(
        2.0**s * np.pi ** (s - 1.0) * np.sin(0.5 * np.pi * s)
        * np.exp(log_gamma(1.0 - s)) * _hurwitz_zeta(1.0 - s, 1.0)
    )


# ---------------------------------------------------------------------------
# Convolution weight omega_(alpha, m)
# ---------------------------------------------------------------------------

def _discrete_gauss(atoms: np.ndarray, masses: np.ndarray, n: int):
    """n-point Gauss rule of the discrete measure sum_k masses_k delta(s - atoms_k).

    Discretized Stieltjes procedure (Gautschi, Orthogonal Polynomials:
    Computation and Approximation, 2004, sec. 2.2), run on the vectors
    u_k = sqrt(masses_k) p_j(atoms_k): the three-term recurrence forms each
    new orthogonal polynomial and scales it to unit norm in the measure, so
    its values neither under- nor overflow.  Golub-Welsch then solves the
    Jacobi matrix.  O(n N) for N atoms.  Without reorthogonalization the
    recurrence may repeat a node the rule has already resolved; the
    eigenvector weights stay right for the sum, splitting that node's
    weight between the copies.
    """
    mu0 = float(masses.sum())
    diag = np.empty(n)
    off = np.empty(n - 1)
    u = np.sqrt(masses / mu0)
    u_prev = np.zeros_like(atoms)
    q = np.empty_like(atoms)
    # np.dot, not @: with the other core busy, matmul products were
    # measured to stall ~8 ms each in the threaded BLAS, at this length and
    # at the kernel's (1, 120, 89) x (89,) alike; np.dot took ~10 us
    for j in range(n):
        np.multiply(atoms, u, out=q)
        diag[j] = np.dot(q, u)
        if j == n - 1:
            break
        q -= diag[j] * u
        if j:
            q -= off[j - 1] * u_prev
        off[j] = np.sqrt(np.dot(q, q))
        q /= off[j]
        u_prev, u, q = u, q, u_prev
    return _golub_welsch(diag, off, mu0)


# compressed rules in s = e^-t: atoms kept below this t, and the size of the
# Gauss rule that replaces the others
_S_RULE_SPLIT = 0.05
_S_RULE_NODES = 64


def _compressed_s_rule(kind: str, t: np.ndarray, masses: np.ndarray,
                       meta: dict) -> QuadratureRule:
    """The discrete measure sum_k masses_k delta(s - e^(-t_k)), compressed.

    ``t`` is ascending.  Atoms with t < 0.05, where a kernel's integrand
    peaks as |z| -> 1, are kept as nodes; the others are replaced by the
    64-point Gauss rule of their own masses (``_discrete_gauss``).  For f
    analytic in s beyond [0, e^-0.05], such as the kernels' integrands
    (their singularity s = 1/z lies past s = 1 for every |z| < 1), the rule
    reproduces the discrete sum to rounding, so no size has to be chosen
    from |z|.  A measure with at most 64 atoms past t = 0.05 keeps them all.
    """
    atoms = np.exp(-t)
    k = int(np.searchsorted(t, _S_RULE_SPLIT))
    if atoms.shape[0] - k <= _S_RULE_NODES:   # too few atoms to compress
        k = atoms.shape[0]
        nodes, weights = atoms, masses
    else:
        s, w = _discrete_gauss(atoms[k:], masses[k:], _S_RULE_NODES)
        nodes, weights = np.concatenate([atoms[:k], s]), np.concatenate([masses[:k], w])
    return QuadratureRule(kind, nodes, weights,
                          {"atoms": k, "gauss": nodes.shape[0] - k, **meta})


@dataclass(frozen=True)
class OmegaWeight:
    """The weight omega_(alpha,m) sampled on the uniform grid k*h, k=0..T/h.

    Mathematically the (2(m-1)+1)-factor convolution chain
    sqrt(t)e^-t * [(sqrt(t)e^-2t)*(e^-(alpha+2)t/sqrt(t))] * ... ; each inner
    bracket collapses in closed form to a single smooth factor, and the outer
    convolutions are carried out exactly in the factored form
    t^(2m-3/2) e^-t H(t) with H entire (see ``omega``), so the samples are
    accurate to rounding.  The grid step h sets the trapezoid measure that
    ``s_rule`` compresses and that ``omega_laplace`` integrates against.
    """

    alpha: float
    m: int
    h: float
    values: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.h

    @cached_property
    def s_rule(self) -> QuadratureRule:
        """The trapezoid measure of the weight in s = e^-t, compressed.

        The trapezoid sum h sum_k'' omega(kh) f(kh) is the discrete measure
        with masses h omega(kh), halved at both ends, at the atoms
        s_k = e^(-kh); ``_compressed_s_rule`` keeps its atoms below t = 0.05
        and compresses the rest.  Built once per weight, on first use.
        """
        masses = self.h * self.values
        masses[[0, -1]] *= 0.5
        return _compressed_s_rule("omega_s", self.grid, masses, {"h": self.h})


def omega(alpha: float, m: int, T: float = 40.0, h: float = 1e-3) -> OmegaWeight:
    """Convolution weight omega_(alpha,m) on the grid [0, T] with step h.

    Each convolution in the chain is evaluated through the substitution
    s = t sin^2(theta), which absorbs the fractional-power endpoints: with
    the partial chain written as t^sigma e^-t H(t), the next level is again
    of that form with sigma' = sigma + 2 and

        H'(t) = 2 int_0^(pi/2) sin(theta)^(2 sigma + 1) cos(theta)^3
                H(t sin^2) Q_ell(t cos^2) d(theta),

    where Q_ell(tau) = 2 e^((1-ell) tau) int cos^2(phi)
    exp(-alpha tau sin^2(phi)) d(phi) is the (smooth, closed-form-reduced)
    inner pair of factors.  The theta-integrands are analytic, so a fixed
    48-point Gauss-Legendre rule resolves them to machine precision, and
    each H is entire with exponential rates at most m + alpha - 1, so one
    Chebyshev table per level captures it to rounding on [0, T].  The returned grid
    samples therefore carry no h-dependent build error; h only sets the
    trapezoid measure the kernel's t-integral and ``omega_laplace`` use.
    """
    if not -1.0 < alpha < np.inf:  # NaN fails this too
        raise ValueError("omega requires finite alpha > -1")
    m = _check_integer(m, "omega order m")
    if m < 2:
        raise ValueError("omega requires m >= 2")
    if not (0.0 < T < np.inf and 0.0 < h < np.inf):
        raise ValueError("omega requires finite positive T and h")
    x, w = np.polynomial.legendre.leggauss(48)
    theta = (x + 1.0) * (np.pi / 4.0)
    wq = w * (np.pi / 4.0)
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    cw = c2 * wq

    def q_profile(ell: int, tau: np.ndarray) -> np.ndarray:
        return 2.0 * np.exp((1.0 - ell) * tau) * (
            np.exp(-alpha * tau[..., None] * s2) @ cw)

    deg = 80 + int(np.ceil(0.7 * (m + abs(alpha)) * T))
    level = None          # Chebyshev table of H; None encodes H_1 = 1
    sigma = 0.5
    for ell in range(2, m + 1):
        ang = 2.0 * wq * np.sin(theta) ** (2.0 * sigma + 1.0) * np.cos(theta) ** 3

        def h_next(tt, level=level, ell=ell, ang=ang):
            tt = np.asarray(tt, dtype=float)
            h_prev = 1.0 if level is None else level(tt[..., None] * s2)
            return (h_prev * q_profile(ell, tt[..., None] * c2)) @ ang

        level = np.polynomial.Chebyshev.interpolate(h_next, deg, domain=[0.0, T])
        coef = np.abs(level.coef)
        if coef[-6:].max() > 1e-12 * coef.max():
            raise RuntimeError(
                "omega profile table did not converge on [0, T]; the "
                "tabulation degree undershot the profile's exponential rates"
            )
        sigma += 2.0
    t = np.arange(int(round(T / h)) + 1) * h
    prefactor = t**sigma * np.exp(-t)
    values = prefactor * level(t)
    # the weight is a convolution of nonnegative factors, hence nonnegative;
    # the tabulated profile can dip below zero only within its own rounding
    noise = 64.0 * np.finfo(float).eps * float(np.abs(level.coef).sum())
    floor = float(values.min())
    if floor < -noise * float(prefactor.max()):
        raise RuntimeError(f"omega grid went negative beyond round-off: {floor}")
    values = np.where(values < 0.0, 0.0, values)
    return OmegaWeight(float(alpha), int(m), float(h), values)


def omega_laplace(weight: OmegaWeight, j: float) -> float:
    """Trapezoid Laplace transform of a sampled weight at rate j."""
    t = weight.grid
    return float(np.trapezoid(np.exp(-j * t) * weight.values, t))


def omega_laplace_closed(alpha: float, m: int, j: float) -> float:
    """Closed-form Laplace transform of omega_(alpha,m) at rate j >= 0.

    Product of the transforms of the individual convolution factors,
    Gamma(3/2)^m Gamma(1/2)^(m-1) / ([(j+1)...(j+m)]^(3/2)
    [(j+alpha+2)...(j+alpha+m)]^(1/2)), assembled in log space.
    """
    if j < 0:
        raise ValueError("rate must be nonnegative")
    acc = m * log_gamma(1.5) + (m - 1) * log_gamma(0.5)
    acc -= 1.5 * sum(np.log(j + b) for b in range(1, m + 1))
    acc -= 0.5 * sum(np.log(j + alpha + b) for b in range(2, m + 1))
    return float(np.exp(acc))


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
        * laguerre(ell, beta_p, x * s)
    )


# the plain Dirichlet kernel's measure sqrt(t) e^-t dt as a trapezoid in
# u = sqrt(t): the step, and the last node (the measure beyond it is ~1e-16)
_DIRICHLET_U_STEP = 0.01
_DIRICHLET_U_MAX = 6.2


@lru_cache(maxsize=1)
def _default_t_rule() -> QuadratureRule:
    """The plain Dirichlet kernel's t-integral as a compressed rule in s = e^-t.

    With t = u^2 the measure sqrt(t) e^-t dt becomes 2 u^2 e^(-u^2) du,
    whose integrands are even and analytic in u, so the trapezoid in u
    converges exponentially (Trefethen & Weideman, SIAM Review 56, 2014):
    masses 2 h u_k^2 e^(-u_k^2) at the atoms s_k = e^(-u_k^2), u_k = k h.
    ``_compressed_s_rule`` then keeps the 22 atoms below t = 0.05 and
    compresses the rest into 64 Gauss nodes.
    """
    h = _DIRICHLET_U_STEP
    t = (np.arange(1, int(round(_DIRICHLET_U_MAX / h)) + 1) * h) ** 2
    return _compressed_s_rule("dirichlet_s", t, 2.0 * h * t * np.exp(-t), {"h_u": h})


# cap on the (points x t-grid) scratch arrays formed by the integral kernels
_BLOCK_ENTRIES = 1 << 24


def _blocked(z, x, nt, evaluate):
    """Evaluate a (z, x)-broadcast t-integral in blocks of z rows.

    The integral representations build arrays of shape broadcast(z, x) x nt;
    a full target rule against a full source rule would need several GB, so
    the z axis is processed in slices that keep the scratch below
    ~_BLOCK_ENTRIES complex values.  Slicing z alone (rather than
    broadcasting it against x first) matters: the powers of (1 - z e^-t)
    are x-independent, and the evaluators only stay cheap while that axis
    keeps length one.
    """
    shape = np.broadcast(z, x).shape
    total = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if total * nt <= _BLOCK_ENTRIES or not shape:
        return evaluate(z, x)
    z = np.asarray(z)
    x = np.asarray(x)
    sliceable = (
        z.ndim == len(shape)
        and z.shape[0] == shape[0]
        and (x.ndim < len(shape) or x.shape[0] == 1)
    )
    if not sliceable:
        return evaluate(z, x)
    rows = max(1, _BLOCK_ENTRIES // max(1, (total // shape[0]) * nt))
    out = np.empty(shape, dtype=complex)
    for lo in range(0, shape[0], rows):
        out[lo : lo + rows] = evaluate(z[lo : lo + rows], x)
    return out


def dirichlet_kernel(z, x, rule: QuadratureRule | None = None):
    """Kernel of the Dirichlet-space transform, by quadrature of its
    Laplace-type integral representation.

    K(z,x) = (1/sqrt(pi)) [1 + (z/Gamma(3/2)) I(z,x)] where I integrates
    (1-v)^-2 exp(-xv/(1-v)) L_1(x/(1-v)), v = ze^-t, against sqrt(t)e^-t dt
    over the half-line.  The integrand is analytic in s = e^-t on the closed
    unit interval, and the default rule is the measure's trapezoid in
    u = sqrt(t), compressed in s (``_default_t_rule``, 86 nodes).  ``rule``
    may instead be a half-line rule with alpha = 1/2, evaluated at s = e^-t.
    """
    z = _check_disk_point(z)
    x = _check_source_point(x)
    if rule is None:
        rule = _default_t_rule()
        s = rule.nodes
    elif rule.kind == "halfline" and abs(rule.meta.get("alpha", -1.0) - 0.5) <= 1e-14:
        s = np.exp(-rule.nodes)
    else:
        raise ValueError("dirichlet_kernel needs a half-line rule with alpha = 1/2")

    def evaluate(zz, xx):
        v = zz[..., None] * s
        w = 1.0 / (1.0 - v)
        xx = xx[..., None]
        g = w * w * np.exp(-xx * (v * w)) * (1.0 - xx * w)
        return np.dot(g, rule.weights)   # not @: see _discrete_gauss

    integral = _blocked(z, x, s.shape[0], evaluate)
    return (1.0 + z * integral / np.exp(log_gamma(1.5))) / np.sqrt(np.pi)


def gen_dirichlet_kernel(alpha: float, m: int, z, x,
                         weight: OmegaWeight | None = None):
    """Kernel of the order-m Bergman-Dirichlet transform.

    Head: sum_{j<m} sqrt(j+alpha+1) z^j L_j^(alpha)(x) / sqrt(pi Gamma(1+alpha))
    (each term is conj(phi_j) psi_j for the orthonormal families, which is
    what the pairing and isometry checks require; see the decision notes on
    the head normalization).  Tail: m! Gamma(3/2)^-m Gamma(1/2)^(1-m) /
    sqrt(pi Gamma(1+alpha)) times z^m times the omega-weighted t-integral:
    the trapezoid on the weight's own grid, with an endpoint correction,
    evaluated through the weight's compressed rule in s = e^-t
    (``OmegaWeight.s_rule``).
    """
    alpha, m = gen_dirichlet(alpha, m).params   # the target basis checks them
    if m < 2:
        raise ValueError("gen_dirichlet_kernel requires m >= 2")
    z = _check_disk_point(z)
    x = _check_source_point(x)
    if weight is None:
        weight = _default_omega(alpha, m)
    if weight.m != m or abs(weight.alpha - alpha) > 1e-14:
        raise ValueError("omega weight was built for different (alpha, m)")

    lg_a1 = log_gamma(alpha + 1.0)
    norm = np.exp(-0.5 * (_LOG_PI + lg_a1))
    lag = laguerre_sequence(m - 1, alpha, x)
    head = np.zeros(np.broadcast(z, x).shape, dtype=complex)
    for j in range(m):
        head = head + np.sqrt(j + alpha + 1.0) * z**j * lag[..., j]
    head = head * norm

    rule = weight.s_rule

    def evaluate(zz, xx):
        v = zz[..., None] * rule.nodes
        one_minus_v = 1.0 - v
        xx = xx[..., None]
        g = (
            one_minus_v ** (-alpha - m - 1.0)
            * np.exp(-xx * (v / one_minus_v))
            * laguerre(m, alpha, xx / one_minus_v)
        )
        return np.dot(g, rule.weights)   # not @: see _discrete_gauss

    integral = _blocked(z, x, rule.nodes.shape[0], evaluate)
    # The weight behaves like c t^(2m - 3/2) at the origin (the product of
    # the factor transforms says its Laplace transform decays like
    # s^(1/2 - 2m)), so the trapezoid leaves a zeta(3/2 - 2m) h^(2m - 1/2)
    # endpoint term; restore it with the integrand's t = 0 value.
    exponent = 2 * m - 1.5
    c_origin = np.exp(m * log_gamma(1.5) + (m - 1) * log_gamma(0.5)
                      - log_gamma(2 * m - 0.5))
    g0 = (
        (1.0 - z) ** (-alpha - m - 1.0)
        * np.exp(-x * z / (1.0 - z))
        * laguerre(m, alpha, x / (1.0 - z) + 0j)
    )
    integral = integral - (
        _zeta_negative(exponent) * weight.h ** (exponent + 1.0) * c_origin * g0
    )
    c_m = np.exp(log_gamma(m + 1.0) - m * log_gamma(1.5) - (m - 1) * log_gamma(0.5)
                 - 0.5 * (_LOG_PI + lg_a1))
    return head + c_m * z**m * integral


@lru_cache(maxsize=8)
def _default_omega(alpha: float, m: int) -> OmegaWeight:
    return omega(alpha, m)


# ---------------------------------------------------------------------------
# Target spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetSpace:
    """Where a transform lands: a quadrature rule for the target measure and
    the effective weights of integrals against that measure on its nodes.

    ``node_weights`` already carry whatever turns the rule's weights into
    the measure that makes the target basis orthonormal (see the builders
    below).  The two Dirichlet-type targets have neither: ``rule`` is None,
    and their norm is the sum over Taylor coefficients with the weights
    n_j^(-2) of the target basis psi_j = n_j z^j
    (``special.monomial_normalizer``).

    A disk target also keeps its rule in polar form, since every disk
    target basis factors as psi_j(r e^(i theta)) = psi_j(r) e^(i (j - shift)
    theta): ``radii`` are the rule's n_r radii, ``radial_weights`` the
    effective weight of each node on the circle of that radius (every node
    of a circle has the same one; ``node_weights`` repeats them
    ``n_theta`` times, in the rule's radius-major node order), and
    ``shift`` is the eigenspace level ell (0 for Bergman).  Both the
    weights' factor and the basis' fold (1-|z|^2)^(-ell) take 1-|z|^2 from
    the radius, once per circle, so the two cancel on the rule exactly as
    they do pointwise.  The plane target has no polar form (``radii`` is
    None).
    """

    rule: QuadratureRule | None = None
    node_weights: np.ndarray | None = field(default=None, repr=False)
    radii: np.ndarray | None = field(default=None, repr=False)
    radial_weights: np.ndarray | None = field(default=None, repr=False)
    n_theta: int = 0
    shift: int = 0

    def __post_init__(self):
        if (self.rule is None) != (self.node_weights is None) or (
                self.rule is not None
                and self.node_weights.shape != self.rule.weights.shape):
            raise ValueError("a target space has one weight per rule node, or no rule")
        if self.radii is not None and not (
                self.radial_weights.shape == self.radii.shape
                and self.radii.shape[0] * self.n_theta == self.node_weights.shape[0]):
            raise ValueError("a polar target has one weight per radius and "
                             "n_theta nodes per circle")


def _plane_target(params, disk_orders, plane_order) -> TargetSpace:
    """Gaussian plane measure exp(-|z|^2) dA, as the Fock basis needs."""
    rule = gaussian_plane_rule(plane_order)
    return TargetSpace(rule, rule.weights)


def _polar_target(rule: QuadratureRule, factor, shift: int = 0) -> TargetSpace:
    """A disk target whose node weights are the rule's times factor(r), a
    function of the radius alone."""
    n_theta = rule.meta["n_theta"]
    radii = rule.nodes[::n_theta].real
    weights = rule.weights[::n_theta] * factor(radii)
    return TargetSpace(rule, np.repeat(weights, n_theta), radii, weights, n_theta, shift)


def _bergman_target(params, disk_orders, plane_order) -> TargetSpace:
    """(delta/pi)(1-|z|^2)^(delta-1) dA: the probability normalization is
    what makes the Bergman monomial basis orthonormal."""
    (delta,) = params
    rule = disk_rule(*disk_orders, delta - 1.0)
    return _polar_target(rule, lambda r: delta / np.pi)


def _disk_eigen_target(params, disk_orders, plane_order) -> TargetSpace:
    """(1-|z|^2)^(2 nu - 2) dA, folded: the eigenspace basis carries a factor
    (1-|z|^2)^(-ell), so the rule is built for the reduced exponent
    2 nu - 2 - 2 ell and the weights take (1-|z|^2)^(2 ell) on the radii.
    Pointwise this is an identity; on polynomials it restores exactness that
    the raw weight cannot offer."""
    nu, ell = params
    rule = disk_rule(*disk_orders, 2.0 * nu - 2.0 - 2 * ell)
    return _polar_target(rule, lambda r: (1.0 - _abs2(r)) ** (2 * ell), shift=ell)


def _coefficient_target(params, disk_orders, plane_order) -> TargetSpace:
    """A Dirichlet-type target: norms on Taylor coefficients, no rule."""
    return TargetSpace()


# ---------------------------------------------------------------------------
# The five transform families and their uniform interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """One transform family, with kernel K(z, x) = sum_j conj(phi_j(x)) psi_j(z).

    ``params``: (name, type, description) per parameter; the names are also
    the CLI flags.  ``source``/``target`` build the bases phi_j/psi_j from
    the parameters.  ``evaluate(params, z, x, weight)`` is the primary
    route, 'closed' or 'integral' as ``primary`` says; ``weighted`` marks the
    route that integrates against the convolution weight omega_(alpha, m).
    ``evaluate`` looks the kernel functions up by their module-level names
    at call time, so code that rebinds those names (a tracer wrapping each
    layer, a test double) sees every call.

    ``target_space(params, disk_orders, plane_order)`` builds the
    :class:`TargetSpace` of the target basis: a plane or disk rule with the
    basis' measure folded into its weights, or no rule for the Dirichlet-type
    targets.  ``inverse_truncation`` is the default truncation of the
    integral inverse, one the default target rule integrates exactly (0 where
    there is no rule).
    """

    params: tuple
    source: Callable
    target: Callable
    primary: str
    evaluate: Callable
    target_space: Callable = _coefficient_target
    inverse_truncation: int = 0
    weighted: bool = False


def _bergman_dirichlet_target(alpha: float, m: int) -> BasisFamily:
    if m < 2:
        raise ValueError("gen_bergman_dirichlet transforms require m >= 2")
    return gen_dirichlet(alpha, m)


FAMILIES = {
    "classical": FamilySpec(
        (), hermite_l2, bargmann_fock, "closed",
        lambda p, z, x, weight: classical_kernel(z, x),
        _plane_target, 100),
    "second": FamilySpec(
        (("delta", float, "second-kind weight exponent"),),
        laguerre_l2, bergman, "closed",
        lambda p, z, x, weight: second_kernel(*p, z, x),
        _bergman_target, 110),
    "generalized_second": FamilySpec(
        (("nu", float, "generalized-second parameter"),
         ("ell", int, "generalized-second level")),
        lambda nu, ell: laguerre_l2(2.0 * (nu - ell) - 1.0), disk_eigen, "closed",
        lambda p, z, x, weight: generalized_second_kernel(*p, z, x),
        _disk_eigen_target, 110),
    "dirichlet": FamilySpec(
        (), lambda: laguerre_l2(0.0), dirichlet, "integral",
        lambda p, z, x, weight: dirichlet_kernel(z, x)),
    "gen_bergman_dirichlet": FamilySpec(
        (("alpha", float, "Bergman-Dirichlet weight exponent"),
         ("m", int, "Bergman-Dirichlet derivative order")),
        lambda alpha, m: laguerre_l2(alpha), _bergman_dirichlet_target, "integral",
        lambda p, z, x, weight: gen_dirichlet_kernel(*p, z, x, weight=weight),
        weighted=True),
}


@dataclass(frozen=True)
class KernelFamily:
    """One of the five transform kernels, named by a key of ``FAMILIES``,
    with its strategies: the family's primary route (closed form or integral
    representation) and a truncated basis series.  ``params`` follows the
    family's parameter list and is converted to its types; an int parameter
    must be integral (1.5 raises rather than becoming 1)."""

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

    @property
    def primary_strategy(self) -> str:
        return FAMILIES[self.kind].primary

    def omega_weight(self, **grid) -> OmegaWeight | None:
        """``omega(alpha, m, **grid)`` for the family whose primary route
        integrates against that weight; None for the others."""
        return omega(*self.params, **grid) if FAMILIES[self.kind].weighted else None

    def __str__(self):
        if not self.params:
            return self.kind
        return f"{self.kind}({', '.join(f'{p:g}' for p in self.params)})"


def kernel_matrix(family: KernelFamily, z, x, strategy: str = "primary",
                  J: int = 120, weight: OmegaWeight | None = None):
    """K(z_i, x_k) for arrays of targets z and sources x.

    strategy: 'primary', 'series', or the primary route's own name
    ('closed' or 'integral', see ``FAMILIES``).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if strategy == "series":
        return kernel_series(family, z, x, J)
    if strategy not in ("primary", family.primary_strategy):
        raise ValueError(f"{family.kind} kernel has no {strategy!r} strategy; its "
                         f"routes are {family.primary_strategy!r} and 'series'")
    return FAMILIES[family.kind].evaluate(family.params, z[:, None], x[None, :], weight)


def kernel_series(family: KernelFamily, z, x, J: int = 120):
    """Truncated basis series K(z,x) ~ sum_{j<=J} conj(phi_j(x)) psi_j(z)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = basis_matrix(family.source_basis(), J, x)
    psi = basis_matrix(family.target_basis(), J, z)
    return psi @ phi.T.astype(complex)


# ---------------------------------------------------------------------------
# Reproducing kernels
# ---------------------------------------------------------------------------

def reproducing_kernel(basis: BasisFamily, z, w):
    """Closed-form K(z, w) = sum_j psi_j(z) conj(psi_j(w)) for the basis
    ``bargmann_fock()`` (finite z, w), ``bergman(delta)``, ``disk_eigen(nu,
    ell)``, ``dirichlet()`` or ``gen_dirichlet(alpha, m)`` (|z|, |w| < 1).
    The L2 source bases have none and raise ValueError.  (1-|z|^2)^alpha dA
    has (alpha+1)/pi times the kernel of ``bergman(alpha + 1)``.
    """
    kind = basis.kind
    if kind == "bargmann_fock":
        return np.exp(_check_plane_point(z) * np.conj(_check_plane_point(w))) / np.pi
    if kind not in ("bergman", "disk_eigen", "dirichlet", "gen_dirichlet"):
        raise ValueError(f"{basis} spans no reproducing-kernel space")
    z = _check_disk_point(z)
    w = _check_disk_point(w)
    u = z * np.conj(w)
    if kind == "bergman":
        (delta,) = basis.params
        return (1.0 - u) ** (-delta - 1.0)
    if kind == "disk_eigen":
        nu, ell = basis.params
        beta_p = 2.0 * (nu - ell) - 1.0
        a = (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(w) ** 2)
        b = np.abs(1.0 - u) ** 2
        return (
            (beta_p / np.pi)
            * (1.0 - u) ** (-2.0 * nu)
            * (b / a) ** ell
            * jacobi_sequence(ell, 0.0, beta_p, 2.0 * a / b - 1.0)[..., ell]
        )
    if kind == "dirichlet":
        return (1.0 + np.log(1.0 / (1.0 - u))) / np.pi
    alpha, m = basis.params
    scalar = np.ndim(u) == 0
    uu = np.atleast_1d(u).ravel()
    head = np.zeros_like(uu)
    for j in range(m):
        head += pochhammer(alpha + 2.0, j) / np.exp(log_gamma(j + 1.0)) * uu**j
    tail = np.array(
        [hyp3f2([1.0, 1.0, alpha + 2.0], [m + 1.0, m + 1.0], val, truncation=600)
         for val in uu],
        dtype=complex,
    )
    out = (alpha + 1.0) / np.pi * (head + uu**m * tail / np.exp(2.0 * log_gamma(m + 1.0)))
    return out[0] if scalar else out.reshape(np.shape(u))


def papadakis_sum(basis: BasisFamily, z, w, J: int):
    """Truncated orthonormal-basis sum sum_{j<=J} psi_j(z) conj(psi_j(w))."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    pz = basis_matrix(basis, J, z)
    pw = basis_matrix(basis, J, w)
    out = np.sum(pz * np.conj(pw), axis=-1)
    return out[0] if out.shape == (1,) else out
