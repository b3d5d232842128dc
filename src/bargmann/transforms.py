"""Discretized forward and inverse transforms, target-space inner products,
and the pairing/isometry machinery.

A :class:`TransformOperator` bundles a kernel family with a source
quadrature rule (matching the kernel's source measure) and its target
space (``kernels.TargetSpace``, built from the target basis' measure,
``special.BasisSpec.measure``, on the first read of ``op.target`` and kept
by the operator; ``forward``, ``forward_map`` and every circle extraction
never read it).

The forward checks of all five families, isometry and Gram, take one route
through the primary kernel: the target inner products <B f, psi_j> are read
off the forward image on one circle |z| = r (``_circle_coefficients``).
On a circle every target basis factors as psi_j(r) e^(i (j - ell) theta)
(ell = 0 but for the disk eigenspaces, whose level it is), so bin
(j - ell) mod N of the circle's FFT, divided by N and by psi_j(r), is that
inner product.  The radius is the target basis' (``special.BASES``: 3 for
the Fock space, 0.75 on the disk, each with a second radius where some
psi_j(r) is too small to divide by).  The sample count N is a power of two,
so the truncations in use share one circle.  Each kernel is
conjugate-symmetric in z, so the kernel is evaluated on the closed upper
half only and the lower half is its conjugate.  The circle's map (the FFT
over the circle of the forward map, divided by N) depends only on the
kernel, the source order, N and the radius, so it is kept once for the
process, keyed by those four, in a bounded cache of read-only arrays
(``_circle_map``), not per operator: equal operators, and operators that
differ only in their truncations or target orders, share it.  The isometry,
Gram, series round-trip and ``target_coefficients`` extractions all apply
that map to source values, and none of them reads the source coefficients
of f.

The inverse is an integral over the target space L^2(M_2, mu_2): the
integral inverse legs (``inverse_integral``, ``reverse_pairing_residual``,
``round_trip_integral``) run on the rule of the measure mu_2.  A
Dirichlet-type target basis has no measure, so ``op.target`` is None and
they raise: its inverse is the coefficient vector itself, since the
transform carries phi_j to psi_j (``target_coefficients``,
``round_trip_series``).

Inversion quadrature deliberately uses the *series-truncated* kernel rather
than the closed form.  The closed kernels grow double-exponentially in the
product of source and target coordinates, so at the outer nodes of a
high-order rule the discretized inverse integral cancels catastrophically
in float64 even though the underlying integral is fine.  The truncated
kernel keeps the same action on every basis element below the truncation
index — and there the polar rules are *exact*, by the Hermitian moment
structure — while staying polynomially bounded.

Because the truncated kernel is a basis sum psi_J(z) phi_J(x)^T, both series
routes contract through the (J+1) basis coefficients instead of forming a
target x source kernel matrix: forward is psi_J(z) (phi_J(x)^T (w * f)) and
the inverse is phi_J(x) (psi_J(z)^H (w_t * F)).

On a target rule the inverse legs do not form psi_J at the rule's nodes
either.
Every target rule is polar, a tensor of n_r radii and an n_theta-point
trapezoid (the Gaussian plane rule and the disk rules alike), and every
target basis with a measure factors as psi_j(r e^(i theta)) = psi_j(r)
e^(i (j - ell) theta) (ell = 0 for Fock and Bergman, the level for the
eigenspaces), so the target space keeps the rule in polar form
(``TargetSpace.radii``) and:

- psi_J c at every node is the radial product psi_J(r) c placed in the
  angular bins (j - ell) mod n_theta, then one inverse FFT per radius
  (``_target_values``);
- psi_J^H (w * F) is one FFT per radius, read at the same bins, then the
  radial contraction with psi_J(r) and the radial weights
  (``_target_contract``).

Both need J + 1 <= n_theta, or two degrees would share a bin; past that a
ValueError is raised.  ``forward`` at arbitrary points stays pointwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .special import BasisFamily, basis_matrix
from .quadrature import QuadratureRule
from .kernels import (FAMILIES, KernelFamily, TargetSpace, _default_omega, _target_space,
                      kernel_matrix)

__all__ = [
    "TransformOperator",
    "CoefficientVector",
    "make_transform",
    "forward",
    "forward_map",
    "inverse_integral",
    "series_transform",
    "circle_points",
    "target_coefficients",
    "isometry_norms",
    "pairing_residuals",
    "reverse_pairing_residual",
    "forward_gram",
    "round_trip_integral",
    "round_trip_series",
]


# ---------------------------------------------------------------------------
# Coefficient vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientVector:
    """Fourier coefficients c_j = <f, phi_j> up to a truncation index."""

    values: np.ndarray
    basis: BasisFamily
    truncation: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.truncation + 1,):
            raise ValueError("coefficient vector length must be truncation + 1")
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# The operator and its factory
# ---------------------------------------------------------------------------

def _source_rule(basis: BasisFamily, n: int) -> QuadratureRule:
    """The n-point Gauss rule of a source basis' measure (Gauss-Hermite, or
    Gauss-Laguerre of the basis' alpha), from its ``special.BASES`` entry."""
    return basis.spec.rule(n, *basis.params)


@dataclass(frozen=True)
class TransformOperator:
    """A kernel, its source basis' Gauss rule, its truncations, and the
    overrides (n_r, n_theta) of its target rule's orders, None where the
    order is derived from the truncations; the target space is built on the
    first read of ``target``.  ``make_transform`` sets every field.

    The source rule is pinned to the cached Gauss rule of its order, so the
    kernel and that order fix the forward map; the circle Taylor maps of
    the extraction are therefore not kept per operator but once for the
    process (``_circle_map``)."""

    kernel: KernelFamily
    source_rule: QuadratureRule
    series_truncation: int
    inverse_truncation: int
    disk_orders: tuple[int | None, int | None]

    def __post_init__(self):
        rule = self.source_rule
        expected = _source_rule(self.kernel.source_basis(), rule.nodes.shape[0])
        if (rule.kind, rule.meta) != (expected.kind, expected.meta):
            raise ValueError(f"{self.kernel} needs the source rule {expected}, not {rule}")
        object.__setattr__(self, "source_rule", expected)
        if any(n is not None and n < 1 for n in self.disk_orders):
            raise ValueError("target rule orders must be positive")

    @functools.cached_property
    def target(self) -> TargetSpace | None:
        """The target basis' target space (``kernels._target_space``, or
        None), sized for the larger of the two truncations unless
        ``disk_orders`` overrides an order, built once per operator
        (``dataclasses.replace`` starts a new one without it)."""
        J = max(self.series_truncation, self.inverse_truncation)
        return _target_space(self.kernel.target_basis(), self.disk_orders, J)


def make_transform(kind: str, *params, source_order: int = 120,
                   disk_orders: tuple[int | None, int | None] = (None, None),
                   series_truncation: int = 64,
                   inverse_truncation: int | None = None) -> TransformOperator:
    """Build one of the five transforms with default discretizations.

    ``kind`` and ``params`` name a family of ``kernels.FAMILIES``.  The
    source rule is the Gauss rule of its source basis' measure, as the
    basis' ``special.BASES`` entry builds it (``_source_rule``); the target
    space is the target basis' (``kernels._target_space``) and the default
    inverse truncation the family's (``FAMILIES``).  The target space is
    built on the first read of ``op.target``, not here, so a caller that
    reads only the kernel and the source rule (a point ``forward``) never
    builds it.

    The default source order keeps Gram matrices of the basis exact well
    beyond the series truncations in use, while the forward integrands
    (kernel times polynomial times the measure weight) are entire and
    converge superexponentially.  For the generalized family this builds
    the convolution weight of its (alpha, m) and the weight's Gauss rules
    sized from |z| (``kernels._default_omega``, ``OmegaWeight.rungs``), the
    ones its kernel looks up wherever |z| <= 0.9, so an operator's first
    forward map does not pay for them and a transform and a kernel
    evaluation of one pair share them.  Points past |z| = 0.9 integrate on
    the weight's whole measure, which needs no build beyond its masses.

    Every target rule, the disk rules and the Gaussian plane rule alike, is
    polar, and its orders (n_r, n_theta) follow from J = max(series_truncation,
    inverse_truncation): n_theta is the least power of two >= J + 1 and n_r
    the least Gauss order that integrates the Gram matrix of psi_0..psi_J
    exactly (``kernels._polar_orders``).  For the defaults, J = 100 or 110, that
    is 128 angles and 51 to 57 radii.  An entry of ``disk_orders`` that is
    not None overrides its order.  The whole-rule routes work in polar form,
    so the angular order n_theta must exceed every truncation they are asked
    for; they raise ValueError otherwise.
    """
    kernel = KernelFamily(kind, params)
    source = _source_rule(kernel.source_basis(), source_order)
    spec = FAMILIES[kernel.kind]
    if inverse_truncation is None:
        inverse_truncation = spec.inverse_truncation
    if spec.weighted:   # built here, not in the first forward map
        _default_omega(*kernel.params).rungs
    return TransformOperator(kernel, source, series_truncation, inverse_truncation,
                             tuple(disk_orders))


def _source_values(op: TransformOperator, f) -> np.ndarray:
    """Values on the source nodes: a vector, or a matrix with one column per
    function."""
    values = f(op.source_rule.nodes) if callable(f) else np.asarray(f)
    if values.ndim == 0 or values.shape[0] != op.source_rule.nodes.shape[0]:
        raise ValueError("source values must live on the source rule's nodes")
    return values


# ---------------------------------------------------------------------------
# Forward / inverse
# ---------------------------------------------------------------------------

def forward_map(op: TransformOperator, z, strategy: str = "primary") -> np.ndarray:
    """Matrix M with (M @ f_nodes)[i] = B[f](z_i); the discretized operator.

    Each entry is a kernel value K(z_i, x_k) times a source weight, so the
    map costs one kernel evaluation per target point and source node (for
    the integral families, a t-integral each).  ``forward`` applies the
    primary route through this matrix; its series route contracts through
    basis coefficients and never forms it.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    kmat = kernel_matrix(op.kernel, zz, op.source_rule.nodes, strategy=strategy,
                         J=op.series_truncation)
    return kmat * op.source_rule.weights


def forward(op: TransformOperator, f, z, strategy: str = "primary"):
    """B[f](z) = sum_i w_i K(z, x_i) f(x_i) over the source rule.

    ``f`` is a callable on the source domain, an array of values on the
    source nodes, or a matrix of such values with one column per function;
    ``z`` is a point or array in the target domain.

    The series kernel is the truncated sum psi_J(z) phi_J(x)^T, so the
    series route contracts through its (J+1) x k coefficients,
    psi_J(z) (phi_J(x)^T (w * f)), at the cost of the two basis matrices;
    the other routes apply ``forward_map``.
    """
    fv = _source_values(op, f)
    if strategy == "series":
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        coef = _series_coefficients(op, fv)
        out = basis_matrix(op.kernel.target_basis(), op.series_truncation, zz) @ coef
    else:
        out = forward_map(op, z, strategy) @ fv
    return out[0] if np.ndim(z) == 0 else out


def _series_coefficients(op: TransformOperator, fv: np.ndarray) -> np.ndarray:
    """phi_J(x)^T (w * f) at the series truncation J: the series route's
    image of f is psi_J(z) times these coefficients."""
    phi = basis_matrix(op.kernel.source_basis(), op.series_truncation,
                       op.source_rule.nodes)
    return (op.source_rule.weights[:, None] * phi).T @ fv


def _integral_target(op: TransformOperator) -> TargetSpace:
    """``op.target``, which every integral inverse leg runs on; ValueError
    for a target basis without a measure."""
    if op.target is None:
        raise ValueError(f"{op.kernel} has no target rule to integrate over; a Dirichlet-"
                         "type target inverts by coefficients via target_coefficients")
    return op.target


def _polar_radial(op: TransformOperator, J: int):
    """The target space, psi_j(r) on its radii for j = 0..J, and the angular
    bin (j - ell) mod n_theta that carries degree j."""
    t = _integral_target(op)
    if J + 1 > t.n_theta:
        raise ValueError(
            f"truncation {J} needs at least {J + 1} angular nodes on the "
            f"target rule, which has {t.n_theta}: frequencies would alias")
    basis = op.kernel.target_basis()
    R = basis_matrix(basis, J, t.radii)
    return t, R, (np.arange(J + 1) - basis.shift) % t.n_theta


def _target_values(op: TransformOperator, coef: np.ndarray) -> np.ndarray:
    """sum_j psi_j(z) coef[j] at every target rule node, for a vector or a
    matrix of coefficient columns; rows follow the rule's nodes."""
    t, R, bins = _polar_radial(op, coef.shape[0] - 1)
    spectrum = np.zeros((R.shape[0], t.n_theta) + coef.shape[1:], dtype=complex)
    spectrum[:, bins] = R.reshape(R.shape + (1,) * (coef.ndim - 1)) * coef
    values = np.fft.ifft(spectrum, axis=1, norm="forward")
    return values.reshape((-1,) + coef.shape[1:])


def _target_contract(op: TransformOperator, F: np.ndarray, J: int) -> np.ndarray:
    """psi_J^H (w * F) over the target rule, i.e. <F, psi_j> for j = 0..J,
    for F on the rule's nodes (a vector or one column per function)."""
    t, R, bins = _polar_radial(op, J)
    spectrum = np.fft.fft(F.reshape((R.shape[0], t.n_theta) + F.shape[1:]), axis=1)
    radial = np.conj(R) * t.radial_weights[:, None]
    return np.einsum("aj,aj...->j...", radial, spectrum[:, bins])


def _target_images(op: TransformOperator, fv: np.ndarray) -> np.ndarray:
    """B[f] at every target rule node, for f given by its values on the
    source nodes (one column per function), by the series-truncated kernel
    in polar form: the forward leg of the integral round trip.  The forward
    checks do not come here; they read the primary kernel on a circle
    (``_circle_coefficients``).

    No closed kernel survives a whole target rule.  On disk targets the
    closed kernels oscillate in the source variable at frequency
    ~Im(1/(1-z)), which is unbounded as z approaches the boundary, and no
    fixed source rule resolves that.  On the plane the classical kernel
    exp(sqrt(2) x z - z^2/2) stays finite but does not stay small: between
    the default 51 x 128 rule (outer circle r ~ 13.6) and the 120-node
    source rule (|x| <= 14.8) it reaches ~3e87.  The classical isometry
    computed through it still holds there (~1e-14), but not once the rule is
    refined: at 120 x 256 (r ~ 21.3) the kernel reaches ~7e145 and that
    isometry is off by ~2, against ~3e-14 through the series.  The closed
    and integral kernels are exercised on compacta
    instead, by the pairing and dual-path checks (for the classical kernel:
    ``transforms.pairing.classical``, ``kernels.dual_path.classical`` and a
    tier-1 pairing test on circles out to |z| = 10).
    """
    return _target_values(op, _series_coefficients(op, fv))


def inverse_integral(op: TransformOperator, F, x, J: int | None = None):
    """B^(-1)[F](x) = sum_i w_i conj(K(z_i, x)) F(z_i) over the target rule.

    Only available for targets with a rule (``_integral_target``).  Uses the
    series-truncated kernel (see the module docstring), contracted through
    its coefficients: phi_J(x) (psi_J(z)^H (w * F)), in polar form.  J
    defaults to the operator's inverse_truncation, which is sized so the
    target rule integrates the truncated integrand exactly; J + 1 may not
    exceed the rule's angular order (ValueError).
    """
    nodes = _integral_target(op).rule.nodes
    Fv = F(nodes) if callable(F) else np.asarray(F)
    if Fv.shape != nodes.shape:
        raise ValueError("target values must live on the target rule's nodes")
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if J is None:
        J = op.inverse_truncation
    coef = _target_contract(op, Fv, J)
    out = basis_matrix(op.kernel.source_basis(), J, xx) @ coef
    return out[0] if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Series route
# ---------------------------------------------------------------------------

def series_transform(c: CoefficientVector, target_basis: BasisFamily, z):
    """sum_j c_j psi_j(z)."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    out = basis_matrix(target_basis, c.truncation, zz) @ c.values
    return out[0] if np.ndim(z) == 0 else out


# ---------------------------------------------------------------------------
# Circle extraction: <B f, psi_j> from the forward image on one circle
# ---------------------------------------------------------------------------

def circle_points(radius: float, n_points: int) -> np.ndarray:
    """Equispaced samples of the circle |z| = radius, the points the circle
    extraction reads; 0 < radius < inf and n_points >= 1."""
    if not (0.0 < radius < np.inf and n_points >= 1):  # NaN fails this too
        raise ValueError("a sample circle needs a finite radius > 0 and n_points >= 1")
    return radius * np.exp(2j * np.pi * np.arange(n_points) / n_points)


# an extraction divides each bin's rounding, ~1e-16 of the norm of
# (psi_0(r)..psi_J(r)), by psi_j(r): a radius is refused where some |psi_j(r)|
# is below this share of that norm, which bounds the error near 2e-16 / 1e-7
_CIRCLE_FLOOR = 1e-7


def _extraction_circle(basis: BasisFamily, J: int) -> tuple[float, np.ndarray]:
    """The first radius r of the target basis' ``BASES`` circles at which no
    |psi_j(r)|, j = 0..J, is below ``_CIRCLE_FLOOR`` times the norm of
    (psi_0(r)..psi_J(r)), and those values; ValueError if none is.

    Measured as the Gram error of the forward map on |z| = r against that
    ratio, the error stayed within ~2e-16 / ratio for the five families,
    zeros included: psi_6 of ``disk_eigen(10/3, 1)`` vanishes at r = 0.75,
    where the Gram matrix through degree 24 came out 1.4 off, and at
    nu = 10/3 + 1e-9 (ratio 2.3e-10) 6.0e-7 off; at r = 0.6 it is 5.3e-14.
    """
    for radius in basis.spec.circles:
        psi = basis_matrix(basis, J, np.array([radius]))[0]
        if np.min(np.abs(psi)) >= _CIRCLE_FLOOR * np.linalg.norm(psi):
            return radius, psi
    raise ValueError(f"{basis}: some psi_j, j <= {J}, is below {_CIRCLE_FLOOR:g} of "
                     f"the basis' norm on every extraction circle {basis.spec.circles}")


def _circle_samples(radius: float, J: int) -> int:
    """The sample count N of an extraction circle for degrees up to J.

    Aliasing folds bin k + N onto k.  On a disk circle psi_(k+N)(r) carries
    r^N, and the guard keeps that fold below double rounding for every
    retained degree; the Fock basis' psi_j(r) decays faster than any power,
    so there the 4 (J + 1) floor suffices.  The count is rounded up to a
    power of two, so nearby truncations share one circle (on |z| = 0.75,
    J = 15, 16 and 24 all sample N = 256 points).
    """
    fold = int(np.ceil(np.log(1e-15) / np.log(radius))) if radius < 1.0 else 0
    return 1 << (max(64, 4 * (J + 1), fold + J + 1) - 1).bit_length()


# a map holds N x source_order real values: ~0.25 MB at N = 256 and the
# default 120 nodes, so eight maps stay within a few MB
@functools.lru_cache(maxsize=8)
def _circle_map(kernel: KernelFamily, source_order: int, n_points: int,
                radius: float) -> np.ndarray:
    """The circle's Taylor map for one kernel, source order, sample count N
    and radius, read-only and shared by every operator of that key: the FFT
    over |z| = radius of the primary forward-map rows, divided by N.

    Row k applied to source values is bin k of B[f] on the circle.  Every
    kernel is conjugate-symmetric in z, K(conj z, x) = conj K(z, x), since
    the source nodes and weights are real and the target bases have real
    values psi_j(r); row N - t of the forward map is thus the conjugate of
    row t, so only the closed upper half t = 0..N/2 is evaluated, and its
    FFT is real (``np.fft.hfft``)."""
    rule = _source_rule(kernel.source_basis(), source_order)
    z = circle_points(radius, n_points)[: n_points // 2 + 1]
    half = kernel_matrix(kernel, z, rule.nodes) * rule.weights
    taylor = np.fft.hfft(half, n_points, axis=0) / n_points
    taylor.flags.writeable = False
    return taylor


def _circle_coefficients(op: TransformOperator, source_values: np.ndarray,
                         J: int) -> np.ndarray:
    """<B[f], psi_j>_target for j = 0..J, read off the forward image on one
    circle, for f given by its values on the source nodes (one column per
    function).

    On |z| = r every target basis factors as psi_j(r) e^(i (j - ell) theta)
    (``special.BasisSpec``), so the FFT of B[f] over the circle, divided by
    N, holds <B[f], psi_j> psi_j(r) in bin (j - ell) mod N; dividing by
    psi_j(r) gives the coefficient.  For the Dirichlet-type bases psi_j(r)
    is n_j r^j, and this is the Cauchy-trapezoid extraction of the Taylor
    coefficients (see Bornemann, Found. Comput. Math. 11, 2011, on choosing
    its radius).  The radius is the target basis' (``_extraction_circle``).
    The map behind it depends only on the kernel, the source order, N and
    the radius (``_circle_map``), so each extraction is one (J+1) x k
    product with a cached map, and none reads the source coefficients of f.
    """
    basis = op.kernel.target_basis()
    radius, psi = _extraction_circle(basis, J)
    n_points = _circle_samples(radius, J)
    taylor = _circle_map(op.kernel, op.source_rule.nodes.shape[0], n_points, radius)
    bins = (np.arange(J + 1) - basis.shift) % n_points
    return (taylor[bins] / psi[:, None]) @ source_values


def target_coefficients(op: TransformOperator, f, J: int | None = None) -> CoefficientVector:
    """<B[f], psi_j> for j = 0..J (default the series truncation), by
    circle extraction (``_circle_coefficients``).

    The transform carries phi_j to psi_j, so these are also the source
    coefficients of the inverse image: for the Dirichlet-type targets, which
    have no measure, this is the inverse.  It never consults the source
    coefficients of f.
    """
    if J is None:
        J = op.series_truncation
    c = _circle_coefficients(op, _source_values(op, f), J)
    return CoefficientVector(c, op.kernel.target_basis(), J)


# ---------------------------------------------------------------------------
# Verification primitives: pairing, isometry, Gram, round trips
# ---------------------------------------------------------------------------

def pairing_residuals(op: TransformOperator, jmax: int, z) -> np.ndarray:
    """max_z |B[phi_j](z) - psi_j(z)| for each j = 0..jmax, sharing one map."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    phi = basis_matrix(op.kernel.source_basis(), jmax, op.source_rule.nodes)
    got = forward(op, phi, zz)
    want = basis_matrix(op.kernel.target_basis(), jmax, zz)
    return np.max(np.abs(got - want), axis=0)


def reverse_pairing_residual(op: TransformOperator, j: int) -> float:
    """max over the source nodes x of |B^(-1)[psi_j](x) - phi_j(x)|; only
    for targets with a rule (``_integral_target``)."""
    x = op.source_rule.nodes
    psi = _target_values(op, np.eye(j + 1)[:, j])
    got = inverse_integral(op, psi, x)
    want = basis_matrix(op.kernel.source_basis(), j, x)[:, j]
    return float(np.max(np.abs(got - want)))


def isometry_norms(op: TransformOperator, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||f_k||_source, ||B f_k||_target) for coefficient columns C[:, k].

    Source norms are quadrature norms on the source rule.  Target norms are
    the coefficient norms of <B f_k, psi_j>, j <= J + 8 for degree-J input,
    read off the primary forward map on the target basis' circle
    (``_circle_coefficients``), so the kernel itself is on trial.  Neither
    side looks at sum |c_j|^2.
    """
    C = np.asarray(C, dtype=complex)
    if C.ndim == 1:
        C = C[:, None]
    J = C.shape[0] - 1
    FV = basis_matrix(op.kernel.source_basis(), J, op.source_rule.nodes) @ C
    norm_source = np.sqrt(op.source_rule.weights @ np.abs(FV) ** 2)
    norm_target = np.linalg.norm(_circle_coefficients(op, FV, J + 8), axis=0)
    return norm_source, norm_target


def forward_gram(op: TransformOperator, J: int) -> np.ndarray:
    """G[j, k] = <B[phi_k], psi_j>_target for j, k <= J, the identity up to
    truncation, through the primary kernel on the target basis' circle
    (``_circle_coefficients``)."""
    phi = basis_matrix(op.kernel.source_basis(), J, op.source_rule.nodes)
    return _circle_coefficients(op, phi, J)


def round_trip_integral(op: TransformOperator, c: CoefficientVector) -> float:
    """max over the source nodes x of |B^(-1)[B[f]](x) - f(x)| for
    f = sum c_j phi_j; only for targets with a rule (``_integral_target``).

    The forward leg is ``_target_images``: where the closed kernels degrade
    over a whole target rule, the truncated series stays a small-norm
    perturbation of B[f] that the inverse contracts.
    """
    x = op.source_rule.nodes
    fx = basis_matrix(op.kernel.source_basis(), c.truncation, x) @ c.values
    back = inverse_integral(op, _target_images(op, fx), x)
    return float(np.max(np.abs(back - fx)))


def round_trip_series(op: TransformOperator, c: CoefficientVector) -> float:
    """max_j |c_out - c_in| through forward and circle extraction.

    The transform carries phi_j to psi_j, so the target coefficients
    <B[f], psi_j> are the source coefficients of the inverse image.
    """
    ct = target_coefficients(op, lambda x: basis_matrix(
        op.kernel.source_basis(), c.truncation, x) @ c.values, J=c.truncation)
    return float(np.max(np.abs(ct.values - c.values)))
