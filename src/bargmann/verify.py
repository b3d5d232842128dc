"""Verification engine: named numerical checks grouped into suites.

Every check compares one measured quantity against its fixed tolerance,
and a suite report is the ordered list of check results plus the
configuration (``RunConfig``: the target-rule orders, if overridden), what
the suites record of their discretizations (the transforms suite: the
orders of the target rule of each operator it inverts), the wall time, and
the Python and numpy versions, platform and BLAS thread settings it ran
under.  All
randomness is seeded, so a report is reproducible bit-for-bit on one
platform for a fixed configuration.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .special import (
    bergman,
    hermite_sequence,
    hyp1f1,
    hyp2f1_table,
    laguerre_sequence,
    log_gamma,
    papadakis_sum,
    reproducing_kernel,
)
from .quadrature import disk_rule, gauss_halfline, gauss_line, gaussian_plane_rule
from .kernels import (
    KernelFamily,
    kernel_matrix,
    omega,
    omega_laplace,
    omega_laplace_closed,
)
from .transforms import (
    CoefficientVector,
    forward_gram,
    isometry_norms,
    make_transform,
    pairing_residuals,
    reverse_pairing_residual,
    round_trip_integral,
    round_trip_series,
)
from .operators import (
    DiskOperator,
    MonomialExpansion,
    apply_exact,
    apply_fd,
    _eigen_residuals,
    casimir,
    gen_invariant_laplacian,
    harmonic_membership,
    hyperbolic_landau,
    invariant_laplacian,
    point_spectrum,
)

__all__ = [
    "Check",
    "VerificationReport",
    "RunConfig",
    "SUITES",
    "run_suite",
]

_SEED = 20250815


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One named measurement against a tolerance."""

    id: str
    description: str
    measured: float
    tolerance: float
    reference: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "reference": self.reference,
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "metadata": self.metadata,
        }


@dataclass(frozen=True)
class RunConfig:
    """The one setting of the suites, as ``verify --disk-radial`` and
    ``--disk-angular`` give it: the orders (n_r, n_theta) of every polar
    target rule of the transforms suite, the disk rules and the Gaussian
    plane rule of the classical target, which only its integral inverse
    checks (``reverse_pairing``, ``round_trip``) integrate over.  None
    leaves each operator's order derived from its truncations
    (``transforms.make_transform``).  Every other discretization and every
    tolerance is a constant of its suite."""

    disk_radial: int | None = None
    disk_angular: int | None = None

    def validate(self) -> None:
        for name in ("disk_radial", "disk_angular"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be a positive integer")


# ---------------------------------------------------------------------------
# Suite: special functions
# ---------------------------------------------------------------------------

def _rel_max(series, closed) -> float:
    closed = np.asarray(closed)
    return float(np.max(np.abs(series - closed) / np.abs(closed)))


def suite_special(cfg: RunConfig, metadata: dict) -> list:
    checks = []
    N = 120
    j = np.arange(N + 1)
    inv_fact = np.exp(-log_gamma(j + 1.0))

    x = np.linspace(-3.0, 3.0, 7)
    H = hermite_sequence(N, x)
    worst = 0.0
    for t in (0.6, -0.45, 0.25 + 0.3j, -0.2 + 0.5j, 0.1 - 0.65j):
        series = H @ (np.power(t, j) * inv_fact)
        worst = max(worst, _rel_max(series, np.exp(2.0 * x * t - t * t)))
    checks.append(Check(
        "special.hermite_gf",
        "Hermite generating function, series N=120 vs closed form",
        worst, 1e-8,
        "sum_j H_j(x) t^j / j! = exp(2xt - t^2)",
    ))

    xs = np.array([0.3, 1.0, 4.0, 9.0])
    worst = 0.0
    for delta in (0.0, 0.5, 2.5):
        L = laguerre_sequence(N, delta, xs)
        for z in (0.55, -0.4, 0.3 * np.exp(2j), 0.5j):
            series = L @ np.power(z, j)
            closed = (1.0 - z) ** (-delta - 1.0) * np.exp(-xs * z / (1.0 - z))
            worst = max(worst, _rel_max(series, closed))
    checks.append(Check(
        "special.laguerre_gf",
        "Laguerre generating function for orders 0, 0.5, 2.5",
        worst, 1e-8,
        "sum_j z^j L_j^(d)(x) = (1-z)^(-d-1) exp(-xz/(1-z))",
    ))

    ys = np.array([0.6, 2.3, 6.0])
    worst = 0.0
    for k, beta in ((1, 0.0), (2, 0.5), (3, 1.5)):
        L = laguerre_sequence(N + k, beta, ys)
        shift = np.exp(log_gamma(j + k + 1.0) - log_gamma(k + 1.0) - log_gamma(j + 1.0))
        lead = np.exp(log_gamma(k + beta + 1.0) - log_gamma(beta + 1.0)
                      - log_gamma(k + 1.0))
        for s in (0.5, -0.45, 0.4j):
            series = L[:, k:] @ (shift * np.power(s, j))
            w = ys / (1.0 - s)
            lk = np.array([lead * hyp1f1(-k, beta + 1.0, complex(val)) for val in w])
            closed = (1.0 - s) ** (-beta - k - 1.0) * np.exp(-ys * s / (1.0 - s)) * lk
            worst = max(worst, _rel_max(series, closed))
    checks.append(Check(
        "special.shifted_laguerre_gf",
        "Index-shifted Laguerre generating function, shifts 1..3",
        worst, 1e-8,
        "sum_j C(j+k,k) L_(j+k)^(b)(y) s^j = (1-s)^(-b-k-1) e^(-ys/(1-s)) L_k^(b)(y/(1-s))",
    ))

    worst = 0.0
    xvs = (0.8, 3.0)
    for alpha, b in ((0.5, 2.0), (1.5, 3.5)):
        laguerres = laguerre_sequence(N, alpha, np.array(xvs))
        for y in (0.2, 0.7):
            f21 = hyp2f1_table(N, b, 1.0 + alpha, y)
            for xv, L in zip(xvs, laguerres):
                for lam in (0.45, -0.35):
                    series = np.sum(np.power(lam, j) * f21 * L)
                    arg = xv * y * lam / ((1.0 - lam) * (1.0 - lam + lam * y))
                    closed = ((1.0 - lam) ** (b - 1.0 - alpha)
                              / (1.0 - lam + lam * y) ** b
                              * np.exp(-xv * lam / (1.0 - lam))
                              * hyp1f1(b, 1.0 + alpha, arg))
                    worst = max(worst, abs(series - closed) / abs(closed))
    checks.append(Check(
        "special.bilateral_gf",
        "Bilateral Laguerre x Gauss-series generating function",
        worst, 1e-8,
        "sum_j lam^j 2F1(-j,b;1+a;y) L_j^(a)(x) = closed confluent form",
    ))
    return checks


# ---------------------------------------------------------------------------
# Suite: quadrature
# ---------------------------------------------------------------------------

def _logsumexp(values: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, shifted by each row's maximum."""
    top = np.max(values, axis=-1)
    return top + np.log(np.sum(np.exp(values - top[..., None]), axis=-1))


def suite_quadrature(cfg: RunConfig, metadata: dict) -> list:
    checks = []
    orders = (4, 16, 64)

    worst = 0.0
    for n in orders:
        rule = gauss_line(n)
        k = np.arange(0, 2 * n - 1, 2)
        moments = (rule.nodes[:, None] ** k[None, :]).T @ rule.weights
        exact = np.exp(log_gamma((k + 1.0) / 2.0))
        worst = max(worst, float(np.max(np.abs(moments - exact) / exact)))
    checks.append(Check(
        "quadrature.line_moments",
        "Full-line Gaussian rules: even moments through degree 2n-2",
        worst, 1e-11,
        "int x^k exp(-x^2) dx = Gamma((k+1)/2), k even",
    ))

    worst = 0.0
    for n in orders:
        for alpha in (0.0, 0.5, 2.0):
            rule = gauss_halfline(n, alpha)
            # log sum_i w_i x_i^k for every k at once, one row per k
            k = np.arange(2 * n)
            logq = _logsumexp(np.log(rule.weights) + k[:, None] * np.log(rule.nodes))
            rel = np.abs(np.expm1(logq - log_gamma(alpha + k + 1.0)))
            worst = max(worst, float(np.max(rel)))
    checks.append(Check(
        "quadrature.halfline_moments",
        "Half-line rules (orders 0, 0.5, 2): all moments through degree 2n-1",
        worst, 1e-11,
        "int x^(a+k) exp(-x) dx = Gamma(a+k+1)",
    ))

    worst = 0.0
    offdiag = 0.0
    for n in orders:
        for gamma in (0.0, 1.5):
            rule = disk_rule(n, 4 * n, gamma)
            u = (rule.nodes * np.conj(rule.nodes)).real
            power = np.ones_like(u)     # u^jdeg, one multiply per degree
            for jdeg in range(2 * n):
                q = float(np.sum(rule.weights * power))
                power *= u
                exact = np.pi * np.exp(log_gamma(jdeg + 1.0) + log_gamma(gamma + 1.0)
                                       - log_gamma(jdeg + gamma + 2.0))
                worst = max(worst, abs(q - exact) / exact)
            for a, b in ((1, 0), (3, 1), (5, 2)):
                q = np.sum(rule.weights * rule.nodes**a * np.conj(rule.nodes) ** b)
                offdiag = max(offdiag, abs(q) / np.pi)
    checks.append(Check(
        "quadrature.disk_norms",
        "Disk rules: monomial norms vs the beta-function closed form",
        max(worst, offdiag), 1e-11,
        "int |z|^(2j) (1-|z|^2)^g dA = pi B(j+1, g+1); unequal powers vanish",
    ))

    worst = 0.0
    for n in orders:
        rule = gaussian_plane_rule(n, 4 * n)
        u = (rule.nodes * np.conj(rule.nodes)).real
        power = np.ones_like(u)         # |z|^(2a), one multiply per degree
        for a in range(n):
            q = float(np.real(np.sum(rule.weights * power)))
            power *= u
            exact = np.pi * np.exp(log_gamma(a + 1.0))
            worst = max(worst, abs(q - exact) / exact)
        q = np.sum(rule.weights * rule.nodes**2 * np.conj(rule.nodes))
        worst = max(worst, float(abs(q)) / np.pi)
    checks.append(Check(
        "quadrature.plane_moments",
        "Gaussian plane rules: radial monomial moments and one unequal pair",
        worst, 1e-11,
        "int z^a conj(z)^b exp(-|z|^2) dA = pi a! [a = b]",
    ))
    return checks


# ---------------------------------------------------------------------------
# Suite: kernels
# ---------------------------------------------------------------------------

# The family cases of the kernels and transforms suites: (family,
# parameters, kernels-suite tolerance of the primary route against the series,
# what the primary route evaluates, the kernels suite's source points, the
# radius scale of the transforms suite's pairing points)
_X_LINE = np.array([-3.1, -0.7, 0.4, 1.9, 3.6])
_X_HALF = np.array([0.4, 1.1, 2.7, 5.3, 9.6])
_TRANSFORM_CASES = [
    ("classical", (), 1e-10, "closed exponential form", _X_LINE, 1.2),
    ("second", (1.5,), 1e-10, "closed Laguerre generating form", _X_HALF, 0.55),
    ("generalized_second", (3.0, 2), 1e-10,
     "closed confluent form with Laguerre prefactor", _X_HALF, 0.55),
    ("dirichlet", (), 1e-7, "half-line integral representation", _X_HALF, 0.55),
    ("gen_bergman_dirichlet", (0.5, 2), 1e-5,
     "convolution-weight integral representation", _X_HALF, 0.55),
]


def _sample_disk(radii, per_circle=5, rmax=1.0):
    pts = []
    for i, r in enumerate(radii):
        theta = 2.0 * np.pi * (np.arange(per_circle) + 0.2 + 0.11 * i) / per_circle
        pts.append(r * rmax * np.exp(1j * theta))
    return np.concatenate(pts)


def suite_kernels(cfg: RunConfig, metadata: dict) -> list:
    checks = []
    z = _sample_disk((0.15, 0.3, 0.45, 0.6))

    for name, params, tol, ref, xs, _ in _TRANSFORM_CASES:
        family = KernelFamily(name, params)
        primary = kernel_matrix(family, z, xs, strategy="primary")
        series = kernel_matrix(family, z, xs, strategy="series", J=120)
        measured = float(np.max(np.abs(primary - series)))
        checks.append(Check(
            f"kernels.dual_path.{name}",
            f"{name} kernel: primary evaluation vs truncated series at "
            f"{z.size * xs.size} points",
            measured, tol, ref,
        ))

    worst = 0.0
    for m in (2, 3):
        for alpha in (0.0, 0.5, 1.5):
            weight = omega(alpha, m)
            for jv in range(6):
                numeric = omega_laplace(weight, jv)
                closed = omega_laplace_closed(alpha, m, jv)
                worst = max(worst, abs(numeric - closed) / abs(closed))
    checks.append(Check(
        "kernels.omega_laplace",
        "Convolution weight: discrete-measure moments vs the closed Laplace transform "
        "it is inverted from, m in {2,3}, orders {0, 0.5, 1.5}, j <= 5",
        worst, 1e-4,
        "checks the Talbot inversion and the u-trapezoid; the Gamma-ratio "
        "formula itself is checked by kernels.dual_path.gen_bergman_dirichlet",
    ))

    zr = _sample_disk((0.5, 1.0), per_circle=4, rmax=0.5)
    wr = _sample_disk((0.6, 1.0), per_circle=4, rmax=0.5) * np.exp(0.31j)
    worst = 0.0
    for name, params, *_ in _TRANSFORM_CASES:   # the cases' target spaces
        basis = KernelFamily(name, params).target_basis()
        closed = reproducing_kernel(basis, zr, wr)
        summed = papadakis_sum(basis, zr, wr, 120)
        worst = max(worst, float(np.max(np.abs(summed - closed) / np.abs(closed))))
    checks.append(Check(
        "kernels.papadakis",
        "Truncated orthonormal sums vs closed reproducing kernels, "
        "five spaces at |z|,|w| <= 0.5",
        worst, 1e-6,
        "sum_j psi_j(z) conj(psi_j(w)) converges to K(z, w)",
    ))
    return checks


# ---------------------------------------------------------------------------
# Suite: transforms
# ---------------------------------------------------------------------------

def _default_op(cfg: RunConfig, kind: str, params: tuple):
    return make_transform(kind, *params, disk_orders=(cfg.disk_radial, cfg.disk_angular))


def _roundtrip_op(cfg: RunConfig, kind: str, params: tuple):
    # Small source rule: evaluation "at source nodes" is meaningful only
    # where the plain polynomial basis has not yet reached the exponential
    # scale of the far Gaussian nodes; degree-8 inputs stay exact because
    # the rule still integrates deg <= 23 against the measure.
    return make_transform(
        kind, *params,
        source_order=12,
        disk_orders=(cfg.disk_radial, cfg.disk_angular),
        series_truncation=15,
        inverse_truncation=40,
    )


def suite_transforms(cfg: RunConfig, metadata: dict) -> list:
    checks = []
    rng = np.random.default_rng(_SEED)
    # the forward checks read the default operators on a circle, and only
    # the integral inverse, which needs a target rule, builds one
    ops = {kind: _default_op(cfg, kind, params) for kind, params, *_ in _TRANSFORM_CASES}
    trip_ops = {kind: _roundtrip_op(cfg, kind, params) for kind, params, *_ in _TRANSFORM_CASES}
    small_ops = {kind: op for kind, op in trip_ops.items() if op.target is not None}
    metadata["target_orders"] = {
        kind: [op.target.meta["n_r"], op.target.meta["n_theta"]]
        for kind, op in small_ops.items()}

    for kind, *_, reach in _TRANSFORM_CASES:
        op = ops[kind]
        z = _sample_disk((0.5, 1.0), per_circle=5, rmax=reach)
        measured = float(np.max(pairing_residuals(op, 8, z)))
        checks.append(Check(
            f"transforms.pairing.{kind}",
            f"{kind}: forward images of the first nine basis elements vs "
            "the target family at 10 points",
            measured, 1e-7,
            "B maps phi_j to psi_j",
        ))

    for kind, op in small_ops.items():
        measured = max(reverse_pairing_residual(op, jv) for jv in range(9))
        checks.append(Check(
            f"transforms.reverse_pairing.{kind}",
            f"{kind}: integral inverse of psi_j vs phi_j at the source nodes, "
            "over the target rule with the series kernel: tests the rule and the bases",
            measured, 1e-6,
            "B^-1 maps psi_j back to phi_j",
        ))

    for kind, op in ops.items():
        C = rng.standard_normal((20, 9)) + 1j * rng.standard_normal((20, 9))
        src, tgt = isometry_norms(op, C.astype(complex))
        measured = float(np.max(np.abs(src - tgt)))
        checks.append(Check(
            f"transforms.isometry.{kind}",
            f"{kind}: norm preservation on 9 random degree-19 vectors, target norms "
            "from the primary kernel on a circle",
            measured, 1e-6,
            "||Bf|| = ||f||",
        ))

    for kind, op in ops.items():
        gram = forward_gram(op, 24)
        measured = float(np.max(np.abs(gram - np.eye(25))))
        checks.append(Check(
            f"transforms.gram.{kind}",
            f"{kind}: Gram matrix of forward images through degree 24, from the "
            "primary kernel on a circle",
            measured, 1e-8,
            "B*B = I on the truncated span",
        ))

    for kind, op in small_ops.items():
        values = np.zeros(16, dtype=complex)
        values[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c = CoefficientVector(values, op.kernel.source_basis(), 15)
        measured = round_trip_integral(op, c)
        checks.append(Check(
            f"transforms.round_trip.{kind}",
            f"{kind}: integral inverse of the series forward image at source nodes, "
            "over the target rule: tests the rule and the bases",
            measured, 1e-4,
            "B^-1 B = identity",
        ))

    for kind, op in ops.items():
        if trip_ops[kind].target is not None:   # inverted by the integral
            continue
        values = np.zeros(16, dtype=complex)
        values[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c = CoefficientVector(values, op.kernel.source_basis(), 15)
        measured = round_trip_series(op, c)
        checks.append(Check(
            f"transforms.round_trip_series.{kind}",
            f"{kind}: coefficient inverse of the forward image",
            measured, 1e-8,
            "series inverse recovers the source coefficients",
        ))

    worst = 0.0
    zpts = _sample_disk((0.5, 1.0), per_circle=3, rmax=0.6)
    for alpha in (0.5, 2.0):
        # (1-|w|^2)^alpha dA(w) has (alpha+1)/pi times bergman(alpha+1)'s kernel
        basis = bergman(alpha + 1.0)
        rule = disk_rule(60, 128, alpha)
        coeff = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        fw = np.polyval(coeff[::-1], rule.nodes)
        fz = np.polyval(coeff[::-1], zpts)
        for i, zp in enumerate(zpts):
            kernel = (alpha + 1.0) / np.pi * reproducing_kernel(basis, zp, rule.nodes)
            val = np.sum(rule.weights * kernel * fw)
            worst = max(worst, abs(val - fz[i]) / abs(fz[i]))
    checks.append(Check(
        "transforms.reproducing.weighted_bergman",
        "Weighted Bergman kernels reproduce degree-6 polynomials under "
        "the disk rule",
        worst, 1e-8,
        "f(z) = int K(z, w) f(w) dmu(w)",
    ))
    return checks


# ---------------------------------------------------------------------------
# Suite: operators
# ---------------------------------------------------------------------------

def suite_operators(cfg: RunConfig, metadata: dict) -> list:
    checks = []
    rng = np.random.default_rng(_SEED + 1)

    worst = 0.0
    for gamma in (1.0, 2.0, 3.5):
        op = DiskOperator(gamma)
        for jv in range(13):
            image = apply_exact(op, MonomialExpansion({(jv, 0): 1.0}))
            if not image.is_zero:
                worst = max(worst, max(abs(v) for v in image.terms.values()))
    checks.append(Check(
        "operators.holomorphic_annihilation",
        "Exact action annihilates z^j, j <= 12, for three operator weights",
        worst, 0.0,
        "holomorphic functions lie in the kernel",
    ))

    image = apply_exact(invariant_laplacian(), MonomialExpansion({(0, 1): 1.0}))
    expected = {(0, 1): 8.0 + 0.0j, (1, 2): -8.0 + 0.0j}
    measured = max(
        abs(image.coefficient(a, b) - expected.get((a, b), 0.0))
        for (a, b) in set(image.terms) | set(expected)
    )
    checks.append(Check(
        "operators.antiholomorphic_example",
        "Invariant Laplacian of conj(z) equals 8 conj(z) (1 - |z|^2) exactly",
        measured, 0.0,
        "three-term monomial action",
    ))

    worst = 0.0
    for gamma in (0.5, 2.0, 3.0):
        image = apply_exact(casimir(gamma), MonomialExpansion({(0, 0): 1.0}))
        want = 2.0 * gamma - gamma * gamma
        worst = max(worst, abs(image.coefficient(0, 0) - want))
        worst = max(worst, max([abs(v) for (k, v) in image.terms.items()
                                if k != (0, 0)], default=0.0))
    checks.append(Check(
        "operators.casimir_constant",
        "Casimir form maps 1 to (2g - g^2) exactly",
        worst, 0.0,
        "constant term of the shifted operator",
    ))

    f = MonomialExpansion({
        (a, b): complex(*rng.standard_normal(2))
        for a in range(3) for b in range(3) if a + b <= 4
    })
    op = DiskOperator(2.6, 0.4)
    exact = apply_exact(op, f)
    pts = _sample_disk((0.4, 0.9), per_circle=5, rmax=0.6)
    errs = {h: float(np.max(np.abs(apply_fd(op, f, pts, h) - exact(pts))))
            for h in (1e-2, 1e-3)}
    order = np.log10(errs[1e-2] / errs[1e-3])
    checks.append(Check(
        "operators.fd_order",
        "Finite differences vs exact action: measured order on degree-4 input",
        float(2.0 - order), 0.1,
        "central differences converge at O(h^2)",
    ))
    coarse = apply_fd(op, f, pts, 1e-2)
    fine = apply_fd(op, f, pts, 5e-3)
    measured = float(np.max(np.abs((4.0 * fine - coarse) / 3.0 - exact(pts))))
    checks.append(Check(
        "operators.fd_richardson",
        "Richardson-extrapolated differences vs exact action",
        measured, 1e-8,
        "extrapolation cancels the h^2 error term",
    ))

    worst = 0.0
    for nu in (1.0, 2.0, 3.0):
        for ell in range(int(np.floor(nu - 0.5)) + 1):
            worst = max(worst, float(np.max(_eigen_residuals(nu, ell, 5))))
    checks.append(Check(
        "operators.eigen_residuals",
        "Landau eigenfunctions: relative eigen-equation residuals, "
        "weights 1..3, all levels, j <= 5",
        worst, 1e-4,
        "eigenvalue 4 ell (2 nu - ell - 1)",
    ))

    worst = 0.0
    for alpha in (0.0, 1.5, 3.0):
        fa = apply_exact(gen_invariant_laplacian(alpha), f)
        fb = apply_exact(hyperbolic_landau(alpha / 2.0 + 1.0), f)
        keys = set(fa.terms) | set(fb.terms)
        worst = max(worst, max(abs(fa.coefficient(*k) - fb.coefficient(*k))
                               for k in keys))
    checks.append(Check(
        "operators.specialization",
        "Weighted invariant Laplacian equals the weight-(a/2+1) Landau "
        "operator coefficientwise",
        worst, 0.0,
        "same gamma, same action",
    ))

    mismatches = 0
    entries, flag = point_spectrum("hyperbolic_landau", 1.0)
    mismatches += not (entries == [(0, 0.0)] and not flag)
    entries, flag = point_spectrum("hyperbolic_landau", 3.0)
    mismatches += not (entries == [(0, 0.0), (1, 16.0), (2, 24.0)] and not flag)
    entries, flag = point_spectrum("gen_invariant_laplacian", 2.0)
    mismatches += not (entries == [(0, 0.0)] and not flag)
    entries, flag = point_spectrum("gen_invariant_laplacian", 0.5)
    mismatches += not (entries == [(0, 0.0)] and flag)
    checks.append(Check(
        "operators.point_spectrum",
        "Finite point-spectrum enumerations for both specializations",
        float(mismatches), 0.0,
        "levels ell < nu - 1/2, resp. l <= floor((a-1)/2)",
    ))

    verdicts = 0
    report = harmonic_membership(MonomialExpansion({(3, 0): 1.0}))
    verdicts += not (report["member"] and report["residual"] == 0.0)
    report = harmonic_membership(MonomialExpansion({(0, 1): 1.0}))
    verdicts += report["member"]
    residual_dev = abs(report["residual"] - 8.0 * np.sqrt(np.pi / 12.0))
    report = harmonic_membership(1.0 / (np.arange(400) + 1.0))
    verdicts += report["member"]
    checks.append(Check(
        "operators.membership_verdicts",
        "Harmonic-space membership: z^3 in, conj(z) out, slow tails out",
        float(verdicts), 0.0,
        "annihilation plus domain conditions",
    ))
    checks.append(Check(
        "operators.membership_residual",
        "Annihilation residual of conj(z) matches its closed-form norm",
        float(residual_dev), 1e-10,
        "||8 conj(z)(1-|z|^2)|| over the disk",
    ))
    return checks


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

# Each suite takes the configuration and the report's metadata, to which it
# may add what it records of its discretization, and returns its checks.
SUITES = {
    "special": suite_special,
    "quadrature": suite_quadrature,
    "kernels": suite_kernels,
    "transforms": suite_transforms,
    "operators": suite_operators,
}

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _platform() -> str:
    """system-release-machine, and the C library where it is glibc (its libm
    computes exp and log): ``platform.platform()``'s string, built without
    the processor lookup that function makes, which starts ``uname -p``."""
    parts = [platform.system(), platform.release(), platform.machine()]
    try:
        parts.append("with-" + os.confstr("CS_GNU_LIBC_VERSION").replace(" ", ""))
    except (AttributeError, ValueError, OSError):   # no such name off glibc
        pass
    return "-".join(parts)


def _environment() -> dict:
    """The Python and numpy versions, platform and BLAS thread settings,
    which the measured values (through the BLAS) and the wall time depend
    on.  numpy is the one library the package imports, so no other
    library's version can move a measured value."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": _platform(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
    }


def run_suite(name: str, cfg: RunConfig | None = None) -> VerificationReport:
    """Run one suite (or 'all') and assemble its report; the metadata keeps
    the whole run's ``wall_time_s`` and each suite's seconds, in run order,
    under ``suite_wall_s``."""
    cfg = cfg or RunConfig()
    cfg.validate()
    if name == "all":
        names = tuple(SUITES)
    elif name in SUITES:
        names = (name,)
    else:
        raise KeyError(f"unknown suite {name!r}")
    start = time.perf_counter()
    checks, details, suite_wall = [], {}, {}
    for suite_name in names:
        began = time.perf_counter()
        checks.extend(SUITES[suite_name](cfg, details))
        suite_wall[suite_name] = time.perf_counter() - began
    elapsed = time.perf_counter() - start
    return VerificationReport(
        name, tuple(checks),
        {"config": dataclasses.asdict(cfg), **details, "wall_time_s": elapsed,
         "suite_wall_s": suite_wall, **_environment()},
    )
