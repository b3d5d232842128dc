"""Discretized forward and inverse transforms, target-space inner products,
and the pairing/isometry machinery.

A :class:`TransformOperator` bundles a kernel family with a source
quadrature rule (matching the kernel's source measure) and the family's
target space (``kernels.TargetSpace``, built by ``kernels.FAMILIES``).  A
target with a rule (Gaussian plane, weighted disk) integrates against its
node weights, so both ``forward`` and ``inverse_integral`` are discretized
integrals.  A Dirichlet-type target has no rule: its norm is a weighted sum
over Taylor coefficients, read off the forward image on a circle
(``target_coefficients``), with the weights n_j^(-2) of the target basis
psi_j = n_j z^j.  The transform carries phi_j to psi_j, so those target
coefficients are also the source coefficients of the inverse.

Circle extraction samples |z| = 0.75 at a power-of-two count N, so the
truncations in use share one circle.  Each kernel is conjugate-symmetric in
z, so the primary kernel is evaluated on the closed upper half only and the
lower half is its conjugate.  The operator keeps the circle's Taylor map
(the FFT over the circle of the forward map, divided by N) per N; the
isometry, Gram, series round-trip and ``target_coefficients`` extractions
of one operator all apply that map to source values, and none of them
reads the source coefficients of f.

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

On a disk target rule neither side forms psi_J at the rule's nodes either.
The rule is a tensor of n_r radii and an n_theta-point trapezoid, and every
disk target basis factors as psi_j(r e^(i theta)) = psi_j(r) e^(i (j - ell)
theta) (ell = 0 for Bergman, the level for the eigenspaces), so the target
space keeps the rule in polar form (``TargetSpace.radii``) and:

- psi_J c at every node is the radial product psi_J(r) c placed in the
  angular bins (j - ell) mod n_theta, then one inverse FFT per radius
  (``_target_values``);
- psi_J^H (w * F) is one FFT per radius, read at the same bins, then the
  radial contraction with psi_J(r) and the radial weights
  (``_target_contract``).

Both need J + 1 <= n_theta, or two degrees would share a bin; past that a
ValueError is raised.  The plane target has no polar form and contracts
through its basis matrix.  ``forward`` at arbitrary points stays pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .special import BasisFamily, basis_matrix, monomial_normalizer
from .quadrature import QuadratureRule, gauss_halfline, gauss_line
from .kernels import FAMILIES, KernelFamily, OmegaWeight, TargetSpace, kernel_matrix

__all__ = [
    "TransformOperator",
    "CoefficientVector",
    "make_transform",
    "forward",
    "forward_map",
    "inverse_integral",
    "series_transform",
    "circle_points",
    "taylor_from_circle",
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
    """The n-point Gauss rule of a source basis' measure: Gauss-Hermite for
    ``hermite_l2``, generalized Gauss-Laguerre of the same alpha for
    ``laguerre_l2(alpha)``."""
    if basis.kind == "hermite_l2":
        return gauss_line(n)
    return gauss_halfline(n, *basis.params)


@dataclass(frozen=True)
class TransformOperator:
    """A kernel, its source basis' Gauss rule, and a target space."""

    kernel: KernelFamily
    source_rule: QuadratureRule
    target: TargetSpace
    series_truncation: int = 64
    inverse_truncation: int = 100
    weight: OmegaWeight | None = field(default=None, repr=False)
    # Taylor maps of the extraction circle by sample count (_circle_taylor)
    _circle_maps: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        rule = self.source_rule
        expected = _source_rule(self.kernel.source_basis(), rule.nodes.shape[0])
        if (rule.kind, rule.meta) != (expected.kind, expected.meta):
            raise ValueError(f"{self.kernel} needs the source rule {expected}, not {rule}")


def make_transform(kind: str, *params, source_order: int = 120,
                   disk_orders: tuple[int, int] = (120, 256),
                   plane_order: int = 60,
                   series_truncation: int = 64,
                   inverse_truncation: int | None = None) -> TransformOperator:
    """Build one of the five transforms with default discretizations.

    ``kind`` and ``params`` name a family of ``kernels.FAMILIES``.  The
    source rule is the Gauss rule of its source basis' measure
    (``_source_rule``); the target space and the default inverse truncation
    are the family's (``FAMILIES``).

    The default source order keeps Gram matrices of the basis exact well
    beyond the series truncations in use, while the forward integrands
    (kernel times polynomial times the measure weight) are entire and
    converge superexponentially.  For the generalized family the operator
    carries the convolution weight sampled at T = 40, h = 2e-3; the samples
    are exact to rounding, so the step matters only through the
    endpoint-corrected t-trapezoid that the weight's s-rule reproduces (for
    (alpha, m) = (0.5, 2) the kernel meets its basis series to ~1e-13
    relative at this step, ~1e-11 at 5e-3).

    On a disk target the whole-rule routes work in polar form, so the
    angular order ``disk_orders[1]`` must exceed every truncation they are
    asked for; they raise ValueError otherwise.
    """
    kernel = KernelFamily(kind, params)
    source = _source_rule(kernel.source_basis(), source_order)
    spec = FAMILIES[kernel.kind]
    target = spec.target_space(kernel.params, disk_orders, plane_order)
    if inverse_truncation is None:
        inverse_truncation = spec.inverse_truncation
    return TransformOperator(kernel, source, target, series_truncation,
                             inverse_truncation, kernel.omega_weight(h=2e-3))


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
                         J=op.series_truncation, weight=op.weight)
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


def _polar_radial(op: TransformOperator, J: int) -> tuple[np.ndarray, np.ndarray]:
    """psi_j(r) on the target's radii for j = 0..J, and the angular bin
    (j - ell) mod n_theta that carries degree j."""
    t = op.target
    if J + 1 > t.n_theta:
        raise ValueError(
            f"truncation {J} needs at least {J + 1} angular nodes on the disk "
            f"target rule, which has {t.n_theta}: frequencies would alias")
    R = basis_matrix(op.kernel.target_basis(), J, t.radii)
    return R, (np.arange(J + 1) - t.shift) % t.n_theta


def _target_values(op: TransformOperator, coef: np.ndarray) -> np.ndarray:
    """sum_j psi_j(z) coef[j] at every target rule node, for a vector or a
    matrix of coefficient columns; rows follow the rule's nodes."""
    t = op.target
    J = coef.shape[0] - 1
    if t.radii is None:
        return basis_matrix(op.kernel.target_basis(), J, t.rule.nodes) @ coef
    R, bins = _polar_radial(op, J)
    spectrum = np.zeros((R.shape[0], t.n_theta) + coef.shape[1:], dtype=complex)
    spectrum[:, bins] = R.reshape(R.shape + (1,) * (coef.ndim - 1)) * coef
    values = np.fft.ifft(spectrum, axis=1, norm="forward")
    return values.reshape((-1,) + coef.shape[1:])


def _target_contract(op: TransformOperator, F: np.ndarray, J: int) -> np.ndarray:
    """psi_J^H (w * F) over the target rule, i.e. <F, psi_j> for j = 0..J,
    for F on the rule's nodes (a vector or one column per function)."""
    t = op.target
    if t.radii is None:
        psi = basis_matrix(op.kernel.target_basis(), J, t.rule.nodes)
        w = t.node_weights.reshape(t.node_weights.shape + (1,) * (F.ndim - 1))
        return np.conj(psi).T @ (w * F)
    R, bins = _polar_radial(op, J)
    spectrum = np.fft.fft(F.reshape((R.shape[0], t.n_theta) + F.shape[1:]), axis=1)
    radial = np.conj(R) * t.radial_weights[:, None]
    return np.einsum("aj,aj...->j...", radial, spectrum[:, bins])


def _target_images(op: TransformOperator, fv: np.ndarray, strategy: str) -> np.ndarray:
    """B[f] at every target rule node, for f given by its values on the
    source nodes (one column per function).

    On disk targets the closed kernels oscillate in the source variable at
    frequency ~Im(1/(1-z)), which is unbounded as z approaches the
    boundary; no fixed source rule resolves that, so whole-domain
    evaluations there always take the series-truncated kernel, in polar
    form.  The closed/integral kernels are exercised on compacta by the
    pairing and dual-path checks instead.  The plane target has no such
    boundary (the Gaussian weight caps the oscillation frequency at the
    rule's extent), so it applies ``strategy`` at its nodes.
    """
    if op.target.radii is None:
        return forward(op, fv, op.target.rule.nodes, strategy)
    return _target_values(op, _series_coefficients(op, fv))


def inverse_integral(op: TransformOperator, F, x, J: int | None = None):
    """B^(-1)[F](x) = sum_i w_i conj(K(z_i, x)) F(z_i) over the target rule.

    Only available for targets with a rule.  Uses the series-truncated kernel
    (see the module docstring), contracted through its coefficients:
    phi_J(x) (psi_J(z)^H (w * F)), in polar form on a disk rule.  J defaults
    to the operator's inverse_truncation, which is sized so the target rule
    integrates the truncated integrand exactly; on a disk rule J + 1 may not
    exceed its angular order (ValueError).
    """
    if op.target.rule is None:
        raise ValueError(
            "integral inversion needs a target rule; Dirichlet-type targets "
            "invert by coefficients via target_coefficients"
        )
    nodes = op.target.rule.nodes
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
# Taylor-coefficient helpers for Dirichlet-type targets
# ---------------------------------------------------------------------------

def circle_points(radius: float, n_points: int) -> np.ndarray:
    """Equispaced samples of the circle |z| = radius, as used by
    taylor_from_circle; 0 < radius < inf and n_points >= 1."""
    if not (0.0 < radius < np.inf and n_points >= 1):  # NaN fails this too
        raise ValueError("a sample circle needs a finite radius > 0 and n_points >= 1")
    return radius * np.exp(2j * np.pi * np.arange(n_points) / n_points)


def taylor_from_circle(F, J: int, radius: float, n_points: int) -> np.ndarray:
    """Taylor coefficients a_0..a_J of a holomorphic F from circle samples.

    a_k = (1/N) sum_t F(r e^(i theta_t)) e^(-i k theta_t) / r^k, i.e. an
    FFT of equispaced samples.  Assumes F is holomorphic on a disk larger
    than ``radius`` and its coefficients beyond n_points are negligible at
    that radius (aliasing folds a_(k+N) r^N into a_k).

    ``F`` may be a callable, an array of values on circle_points(radius,
    n_points), or a matrix of such values with one column per function.
    """
    if J >= n_points:
        raise ValueError("need more circle samples than requested coefficients")
    z = circle_points(radius, n_points)
    vals = F(z) if callable(F) else np.asarray(F)
    if vals.shape[0] != n_points:
        raise ValueError("circle values must match circle_points(radius, n_points)")
    hat = np.fft.fft(vals, axis=0) / n_points
    powers = radius ** np.arange(J + 1)
    if vals.ndim == 1:
        return hat[: J + 1] / powers
    return hat[: J + 1] / powers[:, None]


_EXTRACTION_RADIUS = 0.75


def _circle_taylor(op: TransformOperator, source_values: np.ndarray, J: int) -> np.ndarray:
    """Taylor coefficients a_0..a_J of B[f] from forward values on the
    extraction circle, for f given by its values on the source nodes (one
    column per function).

    Extraction divides the k-th FFT bin by radius^k, amplifying the float64
    noise of the sampled values by radius^(-J); a larger radius tames that
    but needs more samples, since aliasing folds coefficient k+N back onto
    k with the factor radius^N.  The guard on the sample count keeps the
    fold below double rounding for every retained coefficient; the count
    is then rounded up to a power of two, so nearby truncations share one
    circle (J = 15, 16 and 24 all sample N = 256 points).

    The forward map is linear, so the FFT over the circle of its rows,
    divided by N, is a Taylor map: its row k applied to source values gives
    r^k a_k.  The operator keeps that map per N, read-only, and each
    extraction is one (J+1) x k product with it.  Every kernel is
    conjugate-symmetric in z, K(conj z, x) = conj K(z, x), since the source
    nodes and weights are real and the target bases have real Taylor
    coefficients; row N - k of the map is thus the conjugate of row k, so
    only the closed upper half k = 0..N/2 is evaluated and the (real) FFT of
    the Hermitian columns is taken from it (``np.fft.hfft``).
    """
    radius = _EXTRACTION_RADIUS
    guard = int(np.ceil(np.log(1e-15) / np.log(radius))) + J + 1
    n_points = 1 << (max(64, 4 * (J + 1), guard) - 1).bit_length()
    taylor = op._circle_maps.get(n_points)
    if taylor is None:
        half = forward_map(op, circle_points(radius, n_points)[: n_points // 2 + 1])
        taylor = op._circle_maps[n_points] = np.fft.hfft(half, n_points, axis=0) / n_points
        taylor.flags.writeable = False
    return (taylor[: J + 1] / radius ** np.arange(J + 1)[:, None]) @ source_values


def target_coefficients(op: TransformOperator, f, J: int | None = None) -> CoefficientVector:
    """<B[f], psi_j> for a Dirichlet-type target, via circle extraction.

    Evaluates the forward transform on a circle, reads off Taylor
    coefficients by FFT, and converts to the orthonormal basis.  This is
    the honest dual route for isometry and round-trip checks: it never
    consults the source coefficients of f.
    """
    if op.target.rule is not None:
        raise ValueError("target_coefficients is for Dirichlet-type targets")
    if J is None:
        J = op.series_truncation
    a = _circle_taylor(op, _source_values(op, f), J)
    basis = op.kernel.target_basis()
    return CoefficientVector(a / monomial_normalizer(basis, J), basis, J)


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
    """max over the source nodes x of |B^(-1)[psi_j](x) - phi_j(x)|."""
    if op.target.rule is None:
        raise ValueError(
            "reverse pairing integrates over the target space and needs a "
            "target rule; Dirichlet-type targets invert by coefficients via "
            "target_coefficients")
    x = op.source_rule.nodes
    psi = _target_values(op, np.eye(j + 1)[:, j])
    got = inverse_integral(op, psi, x)
    want = basis_matrix(op.kernel.source_basis(), j, x)[:, j]
    return float(np.max(np.abs(got - want)))


def isometry_norms(op: TransformOperator, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||f_k||_source, ||B f_k||_target) for coefficient columns C[:, k].

    Source norms are quadrature norms on the source rule.  L2-type targets
    take a quadrature norm of forward values on the target nodes;
    Dirichlet-type targets evaluate the forward transform on a circle,
    extract Taylor coefficients, and use the coefficient inner product.
    Neither side looks at sum |c_j|^2.  One ``forward`` call serves all
    columns.
    """
    C = np.asarray(C, dtype=complex)
    if C.ndim == 1:
        C = C[:, None]
    J = C.shape[0] - 1
    FV = basis_matrix(op.kernel.source_basis(), J, op.source_rule.nodes) @ C
    norm_source = np.sqrt(op.source_rule.weights @ np.abs(FV) ** 2)
    if op.target.rule is not None:
        T = _target_images(op, FV, "primary")
        norm_target = np.sqrt((op.target.node_weights @ np.abs(T) ** 2).real)
    else:
        J_t = J + 8
        a = _circle_taylor(op, FV, J_t)
        w = monomial_normalizer(op.kernel.target_basis(), J_t) ** -2.0
        norm_target = np.sqrt((w @ np.abs(a) ** 2).real)
    return norm_source, norm_target


def forward_gram(op: TransformOperator, J: int) -> np.ndarray:
    """G[j, k] = <B[phi_k], psi_j>_target; the identity up to truncation."""
    phi = basis_matrix(op.kernel.source_basis(), J, op.source_rule.nodes)
    if op.target.rule is not None:
        return _target_contract(op, _target_images(op, phi, "primary"), J)
    a = _circle_taylor(op, phi, J)
    # <F, psi_j> = n_j^(-2) a_j n_j for diagonal psi_j = n_j z^j
    return a / monomial_normalizer(op.kernel.target_basis(), J)[:, None]


def round_trip_integral(op: TransformOperator, c: CoefficientVector) -> float:
    """max over the source nodes x of |B^(-1)[B[f]](x) - f(x)| for
    f = sum c_j phi_j.

    The forward leg runs in the series strategy: the whole-domain evaluation at
    target nodes is exactly the situation where the direct quadrature of the
    closed kernel degrades (boundary oscillation on disks, unresolved
    exponential growth on the plane) while the truncated series stays a
    small-norm perturbation of B[f] that the inverse contracts.
    """
    x = op.source_rule.nodes
    fx = basis_matrix(op.kernel.source_basis(), c.truncation, x) @ c.values
    back = inverse_integral(op, _target_images(op, fx, "series"), x)
    return float(np.max(np.abs(back - fx)))


def round_trip_series(op: TransformOperator, c: CoefficientVector) -> float:
    """max_j |c_out - c_in| through forward and circle extraction.

    The transform carries phi_j to psi_j, so the target coefficients
    <B[f], psi_j> are the source coefficients of the inverse image.
    """
    ct = target_coefficients(op, lambda x: basis_matrix(
        op.kernel.source_basis(), c.truncation, x) @ c.values, J=c.truncation)
    return float(np.max(np.abs(ct.values - c.values)))
