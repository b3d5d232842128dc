"""Invariant second-order differential operators on the unit disk.

The one-parameter family

    D_gamma = -4 (1-|z|^2) [ (1-|z|^2) d^2/(dz dzbar) - gamma zbar d/dzbar ]

(plus an optional additive constant) annihilates holomorphic functions
outright and maps a monomial z^a zbar^b to a three-term monomial
combination, so every numerical claim about these operators has an exact
symbolic oracle at polynomial level.  The genuinely non-polynomial
eigenfunctions -- they carry a (1-|z|^2)^(-ell) factor -- are handled by
central finite differences with Richardson extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import disk_rule
from .special import BasisFamily, basis_matrix, dirichlet, disk_eigen, monomial_normalizer

__all__ = [
    "MonomialExpansion",
    "DiskOperator",
    "invariant_laplacian",
    "hyperbolic_landau",
    "gen_invariant_laplacian",
    "casimir",
    "apply_exact",
    "apply_fd",
    "landau_eigenvalue",
    "operator_sample_points",
    "point_spectrum",
    "harmonic_membership",
]


def _pruned(terms) -> dict:
    out = {}
    for key, value in terms.items():
        a, b = key
        coeff = complex(value)
        if coeff != 0.0:
            out[(int(a), int(b))] = coeff
    return out


def _is_real(value) -> bool:
    """A JSON number: int or float, not a bool (which Python counts as int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_complex(pair) -> complex:
    """A complex number from its JSON form [re, im], two real numbers."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_real, pair))):
        raise ValueError(f"a complex value must be [re, im], two real numbers, not {pair!r}")
    return complex(pair[0], pair[1])


@dataclass(frozen=True)
class MonomialExpansion:
    """Finite combination sum c_{ab} z^a zbar^b, keyed by (a, b), with
    nonnegative powers and finite coefficients."""

    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", _pruned(self.terms))
        for (a, b), c in self.terms.items():
            if a < 0 or b < 0:
                raise ValueError("monomial powers must be nonnegative")
            if not np.isfinite(c):
                raise ValueError(f"coefficient of z^{a} zbar^{b} is not finite: {c}")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, a: int, b: int) -> complex:
        return self.terms.get((a, b), 0.0 + 0.0j)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        zc = np.conj(z)
        for (a, b), c in self.terms.items():
            out = out + c * z**a * zc**b
        return out

    def to_json(self) -> dict:
        return {f"{a},{b}": [c.real, c.imag] for (a, b), c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialExpansion":
        if not isinstance(data, dict):
            raise ValueError("an expansion is a JSON object of \"a,b\": [re, im] terms")
        terms = {}
        for key, pair in data.items():
            a, b = (int(part) for part in key.split(","))
            if (a, b) in terms:
                raise ValueError(f"two terms name z^{a} zbar^{b}, the second as {key!r}")
            terms[(a, b)] = _json_complex(pair)
        return cls(terms)


@dataclass(frozen=True)
class DiskOperator:
    """D_gamma plus a constant shift (zero for the plain operator)."""

    gamma: float
    constant_shift: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and np.isfinite(self.constant_shift)):
            raise ValueError("operator gamma and constant shift must be finite")


def invariant_laplacian() -> DiskOperator:
    """The invariant Laplacian on the disk: the gamma = 2 member."""
    return DiskOperator(2.0)


def hyperbolic_landau(nu: float) -> DiskOperator:
    """The weight-nu Landau operator: the gamma = 2 nu member."""
    return DiskOperator(2.0 * float(nu))


def gen_invariant_laplacian(alpha: float) -> DiskOperator:
    """The weighted invariant Laplacian: the gamma = alpha + 2 member."""
    return DiskOperator(float(alpha) + 2.0)


def casimir(gamma: float) -> DiskOperator:
    """The Casimir form D_gamma - gamma^2 + 2 gamma."""
    gamma = float(gamma)
    return DiskOperator(gamma, -gamma * gamma + 2.0 * gamma)


def _add(terms: dict, key, value) -> None:
    terms[key] = terms.get(key, 0.0 + 0.0j) + value


def apply_exact(op: DiskOperator, f: MonomialExpansion) -> MonomialExpansion:
    """Exact action on a monomial expansion.

    On z^a zbar^b the operator acts as

        -4ab z^(a-1) zbar^(b-1) + 4(2ab + gamma b) z^a zbar^b
        - 4(ab + gamma b) z^(a+1) zbar^(b+1)

    which follows from d^2/(dz dzbar) -> ab, zbar d/dzbar -> b and
    distributing the two (1-|z|^2) factors.  Holomorphic monomials (b = 0)
    produce identically zero coefficients, not small ones.
    """
    out: dict = {}
    g = op.gamma
    for (a, b), c in f.terms.items():
        if op.constant_shift:
            _add(out, (a, b), op.constant_shift * c)
        if b == 0:
            continue
        ab = float(a * b)
        _add(out, (a - 1, b - 1), -4.0 * ab * c)
        _add(out, (a, b), 4.0 * (2.0 * ab + g * b) * c)
        _add(out, (a + 1, b + 1), -4.0 * (ab + g * b) * c)
    return MonomialExpansion(out)


def apply_fd(op: DiskOperator, F, z, h: float = 1e-3):
    """Five-point finite-difference action on a function of z and zbar.

    Uses d^2/(dz dzbar) = (1/4)(d^2/dx^2 + d^2/dy^2) and
    d/dzbar = (1/2)(d/dx + i d/dy) with central differences of step h;
    the error is O(h^2) for C^4 integrands.

    F is called once, on the five stencil points z, z +- h, z +- ih stacked
    along a new leading axis, so it must act elementwise on an array of
    points (a ``MonomialExpansion`` and a column of ``basis_matrix`` do).
    """
    h = float(h)
    if not h > 0.0:
        raise ValueError("step must be positive")
    scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
    z = np.asarray(z, dtype=complex)
    if not np.all(np.abs(z) + 2.0 * h < 1.0):  # NaN fails this too
        raise ValueError("finite-difference stencil leaves the unit disk")
    steps = np.array([0.0, h, -h, 1j * h, -1j * h]).reshape((5,) + (1,) * z.ndim)
    f0, fpx, fmx, fpy, fmy = F(z + steps)
    mixed = 0.25 * (fpx + fmx + fpy + fmy - 4.0 * f0) / (h * h)
    dzbar = 0.5 * ((fpx - fmx) / (2.0 * h) + 1j * (fpy - fmy) / (2.0 * h))
    u = (z * np.conj(z)).real
    out = (-4.0 * (1.0 - u) * ((1.0 - u) * mixed - op.gamma * np.conj(z) * dzbar)
           + op.constant_shift * f0)
    return complex(out) if scalar else out


def landau_eigenvalue(nu: float, ell: int) -> float:
    """Eigenvalue 4 ell (2 nu - ell - 1) of the weight-nu Landau level ell."""
    return 4.0 * ell * (2.0 * nu - ell - 1.0)


def operator_sample_points(radii=(0.3, 0.6), per_circle: int = 10) -> np.ndarray:
    """Points on concentric circles, angles offset to dodge axis symmetries."""
    points = []
    for i, r in enumerate(radii):
        theta = 2.0 * np.pi * (np.arange(per_circle) + 0.37 + 0.13 * i) / per_circle
        points.append(r * np.exp(1j * theta))
    return np.concatenate(points)


def _eigen_residuals(nu: float, ell: int, jmax: int) -> np.ndarray:
    """Relative eigen-equation residuals of the level-ell eigenfunctions
    psi_0..psi_jmax at weight nu, one per degree, at the
    ``operator_sample_points()``.  The eigenfunctions carry the
    non-polynomial (1-|z|^2)^(-ell) factor, so the operator is applied by
    finite differences at steps h = 1e-3 and h/2, Richardson-extrapolated to
    cancel the leading O(h^2) error.  ``basis_matrix`` runs once per stencil
    and step on the sample points shaped (20, 1), so ``apply_fd`` broadcasts
    over the degree axis."""
    family = disk_eigen(nu, ell)
    op = hyperbolic_landau(nu)
    points = operator_sample_points()[:, None]

    def F(w):
        return basis_matrix(family, jmax, w[..., 0])

    coarse = apply_fd(op, F, points, 1e-3)
    fine = apply_fd(op, F, points, 5e-4)
    applied = (4.0 * fine - coarse) / 3.0
    psi = F(points)
    eigenvalue = landau_eigenvalue(nu, ell)
    return (np.max(np.abs(applied - eigenvalue * psi), axis=0)
            / np.max(np.abs(psi), axis=0))


def point_spectrum(kind: str, value: float):
    """Finite point spectrum as (level, eigenvalue) pairs, plus a regime flag.

    'hyperbolic_landau': levels 0 <= ell < nu - 1/2, eigenvalues
    4 ell (2 nu - ell - 1).  'gen_invariant_laplacian': levels
    l = 0..floor((alpha-1)/2), eigenvalues 4 l (alpha - l + 1); for
    alpha < 1 that index range is empty although 0 stays an eigenvalue
    through the harmonic space, so the single entry (0, 0) is returned
    with the flag set rather than silently choosing an interpretation.
    """
    if kind == "hyperbolic_landau":
        nu = float(value)
        if nu <= 0.5:
            raise ValueError("hyperbolic_landau requires nu > 1/2")
        lmax = int(np.ceil(nu - 0.5)) - 1   # the levels disk_eigen admits
        return [(l, landau_eigenvalue(nu, l)) for l in range(lmax + 1)], False
    if kind == "gen_invariant_laplacian":
        alpha = float(value)
        if alpha <= -1.0:
            raise ValueError("gen_invariant_laplacian requires alpha > -1")
        lmax = int(np.floor((alpha - 1.0) / 2.0))
        if lmax < 0:
            return [(0, 0.0)], True
        return [(l, 4.0 * l * (alpha - l + 1.0)) for l in range(lmax + 1)], False
    raise ValueError(f"unknown operator kind {kind!r}")


def _z_derivative(terms: dict) -> dict:
    out: dict = {}
    for (a, b), c in terms.items():
        if a:
            _add(out, (a - 1, b), a * c)
    return out


def _rule_norm(expansion: MonomialExpansion, rule) -> float:
    values = expansion(rule.nodes)
    return float(np.sqrt(np.sum(rule.weights * np.abs(values) ** 2)))


_TAIL_DIVERGENCE_RATIO = 0.7


def harmonic_membership(F, space: BasisFamily = dirichlet()) -> dict:
    """Harmonic-space membership report for the (weighted) invariant Laplacian.

    ``space`` is ``dirichlet()`` (gamma = 2, first derivatives) or
    ``gen_dirichlet(alpha, m)`` (gamma = alpha + 2, derivatives of order m).

    ``F`` is either a MonomialExpansion -- the annihilation residual is then
    the quadrature L2 norm of the exact symbolic action on the unweighted
    60 x 128 disk rule, refined to 120 x 256 for the domain evidence -- or a
    sequence of Taylor coefficients of a holomorphic function, which the
    operator kills identically so that membership reduces to the domain
    condition.  The domain evidence is the weighted coefficient sum whose
    finiteness the membership theorems require; for coefficient input its
    convergence is judged by dyadic block increments (ratio >= 0.7 between
    consecutive blocks flags divergence).  As the refinement behaviour of a
    fixed sample, the verdict is evidence, not proof.
    """
    if space.kind not in ("dirichlet", "gen_dirichlet"):
        raise ValueError(f"{space} is not the basis of a harmonic Dirichlet-type space")
    alpha, m = space.params or (0.0, 1)
    op = gen_invariant_laplacian(alpha)

    if isinstance(F, MonomialExpansion):
        rule = disk_rule(60, 128, 0.0)
        fine = disk_rule(120, 256, 0.0)
        residual = _rule_norm(apply_exact(op, F), rule)
        function_norm = _rule_norm(F, rule)
        d = dict(F.terms)
        for _ in range(m):
            d = _z_derivative(d)
        derivative = MonomialExpansion(d)
        derivative_norm = _rule_norm(derivative, rule)
        # Domain evidence: the required norms should be stable under rule
        # refinement, not still growing with resolution.
        grown = max(
            _rule_norm(F, fine) / max(function_norm, 1e-300),
            _rule_norm(derivative, fine) / max(derivative_norm, 1e-300),
        )
        domain_ok = grown <= 1.2
        member = domain_ok and residual <= 1e-10 * max(1.0, function_norm)
        return {
            "kind": space.kind,
            "residual": residual,
            "function_norm": function_norm,
            "derivative_norm": derivative_norm,
            "norm_growth": grown,
            "domain_ok": domain_ok,
            "member": member,
        }

    coeffs = np.asarray(F, dtype=complex).ravel()
    if coeffs.size == 0 or not np.all(np.isfinite(coeffs)):
        raise ValueError("Taylor coefficients must be a nonempty finite sequence")
    weights = monomial_normalizer(space, coeffs.size - 1) ** -2.0
    contributions = weights * np.abs(coeffs) ** 2
    # Only complete dyadic blocks: a truncated final block would deflate the
    # last ratio and mask divergence.
    blocks = []
    k = 1
    while 2 * k <= coeffs.size:
        blocks.append(float(np.sum(contributions[k:2 * k])))
        k *= 2
    tail_ratio = 0.0
    if len(blocks) >= 2 and blocks[-2] > 0.0:
        tail_ratio = blocks[-1] / blocks[-2]
    domain_ok = tail_ratio < _TAIL_DIVERGENCE_RATIO
    return {
        "kind": space.kind,
        "residual": 0.0,
        "tail_ratio": tail_ratio,
        "domain_ok": domain_ok,
        "member": domain_ok,
    }
