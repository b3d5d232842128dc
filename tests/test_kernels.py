"""Kernel evaluation: closed forms vs truncated basis series vs integral
representations, the convolution weight and its Laplace identity, and
reproducing-kernel structure (symmetry, positivity, basis sums)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from bargmann import (
    KernelFamily,
    OmegaWeight,
    QuadratureRule,
    classical_kernel,
    dirichlet_kernel,
    gauss_halfline,
    gen_dirichlet_kernel,
    generalized_second_kernel,
    kernel_matrix,
    kernel_series,
    omega,
    omega_laplace,
    omega_laplace_closed,
    papadakis_sum,
    reproducing_kernel,
    second_kernel,
    bargmann_fock,
    bergman,
    dirichlet,
    disk_eigen,
    disk_rule,
    forward,
    forward_map,
    gen_dirichlet,
    hermite_l2,
    laguerre,
    laguerre_l2,
    make_transform,
)
from bargmann import kernels

# one coarse weight shared by the generalized-kernel tests below; the grid
# step only sets the endpoint-corrected t-trapezoid that the weight's s-rule
# reproduces, and at 5e-3 that trapezoid still leaves headroom under the
# 1e-5 agreements tested here
W_COARSE = omega(0.5, 2, T=40.0, h=5e-3)


def _disk_points(k, rmax, seed=7):
    rng = np.random.default_rng(seed)
    r = rmax * np.sqrt(rng.uniform(0.05, 1.0, k))
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k))


def test_classical_closed_form():
    z = np.array([0.3 + 0.2j])
    x = 0.7
    want = np.pi**-0.75 * np.exp(np.sqrt(2.0) * x * z - 0.5 * z * z)
    assert_allclose(classical_kernel(z, x), want, rtol=1e-14)


def test_classical_series_agrees_with_closed_form():
    z = _disk_points(8, 0.6)
    for x in (-1.3, 0.4, 2.2):
        series = kernel_series(KernelFamily("classical"), z, x, J=80)[:, 0]
        assert np.max(np.abs(series - classical_kernel(z, x))) < 1e-12


def test_second_series_agrees_with_closed_form():
    z = _disk_points(8, 0.6)
    for delta in (0.5, 1.5):
        for x in (0.3, 1.8, 4.0):
            series = kernel_series(KernelFamily("second", (delta,)), z, x, J=100)[:, 0]
            closed = second_kernel(delta, z, x)
            assert np.max(np.abs(series - closed) / np.abs(closed)) < 1e-10


def test_generalized_second_series_agrees_with_closed_form():
    z = _disk_points(8, 0.6)
    for nu, ell in ((1.0, 0), (3.0, 2)):
        for x in (0.5, 2.1):
            series = kernel_series(KernelFamily("generalized_second", (nu, ell)),
                                   z, x, J=110)[:, 0]
            closed = generalized_second_kernel(nu, ell, z, x)
            assert np.max(np.abs(series - closed) / np.abs(closed)) < 1e-10


def test_dirichlet_integral_agrees_with_series():
    z = _disk_points(8, 0.6)
    for x in (0.4, 1.7, 5.0):
        series = kernel_series(KernelFamily("dirichlet"), z, x, J=120)[:, 0]
        integral = dirichlet_kernel(z, x)
        assert np.max(np.abs(integral - series)) < 1e-8


def test_dirichlet_value_at_origin():
    # Only the j = 0 term of the basis expansion survives at z = 0, so
    # K(0, x) = psi_0(0) conj(phi_0(x)) is constant in x: 1/sqrt(pi) for the
    # Dirichlet kernel, and sqrt((alpha+1)/pi) / sqrt(Gamma(alpha+1)) for the
    # generalized one (head weight pi/(alpha+1), Laguerre normalizer).
    alpha = 0.5
    gen_want = np.sqrt((alpha + 1.0) / np.pi) / np.sqrt(np.exp(gammaln(alpha + 1.0)))
    for x in (0.2, 1.0, 3.7):
        assert_allclose(dirichlet_kernel(0.0, x), 1.0 / np.sqrt(np.pi), rtol=1e-12)
        assert_allclose(gen_dirichlet_kernel(alpha, 2, 0.0, x, weight=W_COARSE),
                        gen_want, rtol=1e-12)


def test_gen_dirichlet_integral_agrees_with_series():
    z = _disk_points(8, 0.6)
    for x in (0.4, 1.9, 4.2):
        series = kernel_series(KernelFamily("gen_bergman_dirichlet", (0.5, 2)),
                               z, x, J=120)[:, 0]
        integral = gen_dirichlet_kernel(0.5, 2, z, x, weight=W_COARSE)
        assert np.max(np.abs(integral - series)) < 1e-6


# ---------------------------------------------------------------------------
# the omega t-integral: the s-rule against the trapezoid it compresses
# ---------------------------------------------------------------------------

def _omega_integrand(alpha, m, z, x, s):
    """The kernel's tail integrand at s = e^-t for points z[:, None], x[None, :]."""
    v = z[:, None, None] * s
    xx = x[None, :, None]
    return ((1.0 - v) ** (-alpha - m - 1.0) * np.exp(-xx * v / (1.0 - v))
            * laguerre(m, alpha, xx / (1.0 - v)))


def _trapezoid_rule(weight):
    """The uncompressed t-trapezoid of a weight as a rule in s = e^-t."""
    masses = weight.h * weight.values
    masses[[0, -1]] *= 0.5
    return QuadratureRule("omega_s", np.exp(-weight.grid), masses)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_omega_s_rule_reproduces_trapezoid(m):
    # point-queries' (alpha, m) pairs at both grid steps in use (kernel-eval
    # 1e-3, transforms 2e-3); angle 0 puts the singularity s = 1/z nearest
    # the atoms
    z = np.array([0.5, 0.75 * np.exp(2.2j), 0.95, 0.99, 0.999])
    x = np.array([0.0, 3.0, 30.0])
    for alpha in (0.0, 0.5, 1.5, 3.0):
        fine = omega(alpha, m, h=1e-3)
        g = _omega_integrand(alpha, m, z, x, np.exp(-fine.grid))
        # every other sample of the fine weight is the weight at step 2e-3
        for weight, g_grid in ((fine, g), (OmegaWeight(alpha, m, 2e-3, fine.values[::2]),
                                           g[..., ::2])):
            want = np.trapezoid(weight.values * g_grid, weight.grid, axis=-1)
            rule = weight.s_rule
            got = _omega_integrand(alpha, m, z, x, rule.nodes) @ rule.weights
            err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
            assert err.max() < 1e-12, (alpha, m, weight.h, z[err.argmax()])
            assert rule.nodes.shape[0] < 128


def test_forward_map_rows_match_trapezoid_route():
    # circle-map rows: the transform's own weight (h = 2e-3) at r = 0.75,
    # against the same kernel run on the uncompressed trapezoid
    op = make_transform("gen_bergman_dirichlet", 0.5, 2)
    reference = omega(0.5, 2, h=2e-3)
    vars(reference)["s_rule"] = _trapezoid_rule(reference)   # fills the cached property
    z = np.array([0.75 * np.exp(2.9j)])
    got = forward_map(op, z)
    want = kernel_matrix(op.kernel, z, op.source_rule.nodes,
                         weight=reference) * op.source_rule.weights
    err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    assert err.max() < 1e-13


def test_omega_s_rule_is_built_once_per_weight(monkeypatch):
    calls = []
    build = kernels._discrete_gauss
    monkeypatch.setattr(kernels, "_discrete_gauss",
                        lambda *args: calls.append(1) or build(*args))
    weight = omega(0.5, 2, T=40.0, h=5e-3)
    first = gen_dirichlet_kernel(0.5, 2, 0.3 + 0.2j, 1.5, weight=weight)
    second = gen_dirichlet_kernel(0.5, 2, 0.3 + 0.2j, 1.5, weight=weight)
    assert len(calls) == 1
    assert first == second
    assert weight.s_rule is weight.s_rule


def test_kernel_matrix_strategies():
    fam = KernelFamily("second", (1.5,))
    z = np.array([0.2 + 0.1j, -0.3j])
    x = np.array([0.5, 2.0])
    primary = kernel_matrix(fam, z, x)
    closed = kernel_matrix(fam, z, x, strategy="closed")
    series = kernel_matrix(fam, z, x, strategy="series")
    assert primary.shape == (2, 2)
    assert_allclose(primary, closed, rtol=1e-14)
    assert np.max(np.abs(primary - series)) < 1e-10
    with pytest.raises(ValueError):
        kernel_matrix(fam, z, x, strategy="monte_carlo")
    with pytest.raises(ValueError):
        kernel_matrix(KernelFamily("dirichlet"), z, x, strategy="closed")


# ---------------------------------------------------------------------------
# the plain Dirichlet t-integral: the compressed rule against the u-trapezoid
# it compresses and against an mpmath quadrature
# ---------------------------------------------------------------------------

def _dirichlet_u_trapezoid(z, x, h=0.01, umax=6.2):
    """K(z[:, None], x[None, :]) with the t-integral on the uncompressed
    trapezoid in u = sqrt(t): masses 2 h u^2 e^(-u^2) at u = h, 2h, ..."""
    u = np.arange(1, int(round(umax / h)) + 1) * h
    v = z[:, None, None] * np.exp(-u * u)
    xx = x[None, :, None]
    g = (1.0 - v) ** -2.0 * np.exp(-xx * v / (1.0 - v)) * (1.0 - xx / (1.0 - v))
    integral = g @ (2.0 * h * u * u * np.exp(-u * u))
    return (1.0 + z[:, None] * integral / np.exp(gammaln(1.5))) / np.sqrt(np.pi)


def test_dirichlet_kernel_matches_mpmath_quadrature():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def oracle(z, x):
        z, x = mp.mpc(z.real, z.imag), mp.mpf(x)

        def f(t):
            v = z * mp.exp(-t)
            return (mp.sqrt(t) * mp.exp(-t) * (1 - v) ** -2
                    * mp.exp(-x * v / (1 - v)) * (1 - x / (1 - v)))

        integral = mp.quad(f, [0, 0.05, 1, 5, 20, mp.inf])
        return complex((1 + z * integral / mp.gamma(1.5)) / mp.sqrt(mp.pi))

    for z in (0.9 * np.exp(1j), 0.95 * np.exp(2j), 0.99 * np.exp(0.5j), 0.99 + 0j):
        want = oracle(z, 30.0)
        got = complex(dirichlet_kernel(z, 30.0))
        assert abs(got - want) < 1e-13 * abs(want), z


def test_dirichlet_rule_reproduces_u_trapezoid():
    # angle 0 puts the singularity s = 1/z nearest the atoms
    x = np.array([0.0, 1.0, 3.0, 10.0, 30.0])
    angles = np.exp(1j * np.array([0.0, 0.5, 1.0, 2.0, 3.0, np.pi, -1.3]))
    for r in (0.5, 0.75, 0.9, 0.95, 0.99):
        z = r * angles
        want = _dirichlet_u_trapezoid(z, x)
        got = dirichlet_kernel(z[:, None], x[None, :])
        err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
        assert err.max() < 5e-14, (r, z[err.argmax()])
    assert kernels._default_t_rule().nodes.shape[0] < 128


def test_dirichlet_forward_map_rows_match_u_trapezoid():
    # forward-map rows over the 120 source nodes (x up to ~450) on the
    # r = 0.75 circle, weighted by the source rule
    op = make_transform("dirichlet")
    x, w = op.source_rule.nodes, op.source_rule.weights
    z = 0.75 * np.exp(1j * np.array([0.0, 0.5, 1.0, 2.0, 2.9, np.pi, -1.3]))
    got = forward_map(op, z)
    want = _dirichlet_u_trapezoid(z, x) * w
    err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    assert err.max() < 1e-14


def test_kernel_domain_validation():
    with pytest.raises(ValueError):
        second_kernel(1.5, 1.1, 0.5)  # outside the unit disk
    with pytest.raises(ValueError):
        second_kernel(-0.5, 0.3, 0.5)
    with pytest.raises(ValueError):
        generalized_second_kernel(1.0, 2, 0.3, 0.5)  # level above floor(nu-1/2)
    with pytest.raises(ValueError):
        KernelFamily("heat")
    with pytest.raises(ValueError):
        second_kernel(1.5, np.nan, 1.0)  # NaN compares false against |z| < 1
    for kind, params in (("second", ()), ("classical", (1.0,)), ("dirichlet", (7, 8))):
        with pytest.raises(ValueError):
            KernelFamily(kind, params)  # wrong parameter count
    # family parameters: NaN compares false against every range check
    for kind, params in (("second", (np.nan,)), ("second", (np.inf,)),
                         ("generalized_second", (np.nan, 0)),
                         ("gen_bergman_dirichlet", (np.nan, 2)),
                         ("gen_bergman_dirichlet", (np.inf, 2))):
        with pytest.raises(ValueError):
            KernelFamily(kind, params)
    with pytest.raises(ValueError):
        gen_dirichlet_kernel(np.nan, 2, 0.3, 0.5)
    # source points: NaN and inf would flow through as NaN
    for bad in (np.nan, np.inf, [0.5, -np.inf]):
        for kernel in (classical_kernel, dirichlet_kernel,
                       lambda z, x: second_kernel(1.5, z, x),
                       lambda z, x: generalized_second_kernel(1.0, 0, z, x),
                       lambda z, x: gen_dirichlet_kernel(0.5, 2, z, x, weight=W_COARSE)):
            with pytest.raises(ValueError):
                kernel(0.3, bad)
    with pytest.raises(ValueError):
        dirichlet_kernel(0.3, 0.5, rule=gauss_halfline(40, 0.0))  # wrong measure
    # plane points: NaN and inf would flow through as NaN
    classical = make_transform("classical", source_order=12, plane_order=8)
    for bad in (np.nan, complex(0.2, np.inf), [0.1, -np.inf]):
        for call in (lambda: classical_kernel(bad, 1.0),
                     lambda: reproducing_kernel(bargmann_fock(), bad, 0.3),
                     lambda: reproducing_kernel(bargmann_fock(), 0.3, bad),
                     lambda: papadakis_sum(bargmann_fock(), bad, 0.3, 10),
                     lambda: forward(classical, np.ones(12), bad),
                     lambda: forward(classical, np.ones(12), bad, strategy="series")):
            with pytest.raises(ValueError):
                call()


def test_non_integral_orders_raise():
    # a level or derivative order of 1.5 once became 1 (int()) or a TypeError
    for call in (lambda: generalized_second_kernel(3.0, 1.5, 0.3, 0.5),
                 lambda: gen_dirichlet_kernel(0.5, 2.5, 0.3, 0.5, weight=W_COARSE),
                 lambda: omega(0.5, 2.5),
                 lambda: KernelFamily("generalized_second", (3.0, 1.5)),
                 lambda: KernelFamily("gen_bergman_dirichlet", (0.5, 2.7)),
                 lambda: KernelFamily("gen_bergman_dirichlet", (0.5, np.nan))):
        with pytest.raises(ValueError):
            call()
    # integral floats are accepted as the integers they are
    assert KernelFamily("generalized_second", (3.0, 1.0)).params == (3.0, 1)
    assert_allclose(generalized_second_kernel(3.0, 1.0, 0.3, 0.5),
                    generalized_second_kernel(3.0, 1, 0.3, 0.5), rtol=0.0)


# ---------------------------------------------------------------------------
# convolution weight
# ---------------------------------------------------------------------------

def test_omega_validation():
    with pytest.raises(ValueError):
        omega(-1.5, 2)
    with pytest.raises(ValueError):
        omega(0.5, 1)
    with pytest.raises(ValueError):
        omega(0.5, 2, T=-1.0)
    with pytest.raises(ValueError):
        omega(0.5, 2, h=0.0)
    for bad in ({"alpha": np.nan}, {"alpha": np.inf}, {"T": np.nan}, {"h": np.inf}):
        with pytest.raises(ValueError):
            omega(**{"alpha": 0.5, "m": 2, **bad})


def test_omega_grid_and_thinning():
    w = omega(0.0, 2, T=20.0, h=1e-2)
    assert w.values.shape == (2001,)
    assert w.values[0] == 0.0
    assert np.all(w.values >= 0.0)
    assert_allclose(w.grid[-1], 20.0)


def test_omega_small_t_power_law():
    # Near t = 0 the weight behaves as C_m t^(2m - 3/2) e^(-t) (1 + O(t)) with
    # C_m = Gamma(3/2)^m Gamma(1/2)^(m-1) / Gamma(2m - 1/2): the chain of
    # Beta integrals collapses at the origin where every factor is a pure
    # power.  Sampled at the first grid step the O(t) profile drift is all
    # that is left, so the deviation must shrink linearly with the step.
    for m in (2, 3):
        c = np.exp(m * gammaln(1.5) + (m - 1) * gammaln(0.5) - gammaln(2 * m - 0.5))
        for h, tol in ((1e-3, 2e-3), (2e-4, 4e-4)):
            w = omega(0.0, m, T=10.0, h=h)
            want = c * h ** (2 * m - 1.5) * np.exp(-h)
            assert abs(w.values[1] - want) / want < tol


def test_omega_laplace_identity():
    # int_0^inf omega(t) e^(-(1+j) t) dt has a Gamma-product closed form;
    # the numeric side runs a plain trapezoid over the sampled grid.
    for m in (2, 3):
        for alpha in (0.0, 1.5):
            w = omega(alpha, m, T=40.0, h=1e-3)
            for j in range(4):
                got = omega_laplace(w, j)
                want = omega_laplace_closed(alpha, m, j)
                assert abs(got - want) / want < 1e-8


def test_omega_laplace_closed_is_positive_decreasing():
    vals = [omega_laplace_closed(0.5, 2, j) for j in range(8)]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# reproducing kernels
# ---------------------------------------------------------------------------

# each space named by its orthonormal basis
_SPACES = [
    bargmann_fock(),
    bergman(1.5),
    disk_eigen(3.0, 2),
    dirichlet(),
    gen_dirichlet(0.5, 2),
]


@settings(max_examples=25, deadline=None)
@given(
    re1=st.floats(-0.6, 0.6), im1=st.floats(-0.6, 0.6),
    re2=st.floats(-0.6, 0.6), im2=st.floats(-0.6, 0.6),
)
def test_reproducing_kernel_hermitian_and_cauchy_schwarz(re1, im1, re2, im2):
    z = complex(re1, im1)
    w = complex(re2, im2)
    for space in _SPACES:
        k_zw = reproducing_kernel(space, z, w)
        k_wz = reproducing_kernel(space, w, z)
        assert abs(k_zw - np.conj(k_wz)) < 1e-12 * max(1.0, abs(k_zw))
        k_zz = reproducing_kernel(space, z, z).real
        k_ww = reproducing_kernel(space, w, w).real
        assert abs(k_zw) ** 2 <= k_zz * k_ww * (1.0 + 1e-12)


def test_reproducing_kernel_positive_definite():
    pts = _disk_points(6, 0.55, seed=3)
    for space in _SPACES:
        gram = reproducing_kernel(space, pts[:, None], pts[None, :])
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > -1e-12 * eigs.max()


def test_papadakis_sums_converge():
    # K(z, w) = sum_j psi_j(z) conj(psi_j(w)) over the orthonormal family
    z = _disk_points(5, 0.5, seed=11)
    w = _disk_points(5, 0.5, seed=12)
    for basis in _SPACES:
        closed = reproducing_kernel(basis, z, w)
        summed = papadakis_sum(basis, z, w, 120)
        assert np.max(np.abs(summed - closed) / np.abs(closed)) < 1e-6


def test_weighted_bergman_reproduces_polynomials():
    # f(z) = int_D K(z, w) f(w) (1-|w|^2)^alpha dA(w) for polynomial f
    rng = np.random.default_rng(5)
    coeff = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    alpha = 1.0
    # the weight's kernel is (alpha+1)/pi times that of bergman(alpha+1)
    basis = bergman(alpha + 1.0)
    rule = disk_rule(60, 128, alpha)
    fw = np.polyval(coeff[::-1], rule.nodes)
    for z in (0.1 + 0.4j, -0.3 - 0.2j, 0.5):
        kernel = (alpha + 1.0) / np.pi * reproducing_kernel(basis, z, rule.nodes)
        val = np.sum(rule.weights * kernel * fw)
        want = np.polyval(coeff[::-1], z)
        assert abs(val - want) / abs(want) < 1e-10


def test_disk_kernels_reject_boundary():
    with pytest.raises(ValueError):
        reproducing_kernel(bergman(1.0), 0.8, 1.3)
    with pytest.raises(ValueError):
        reproducing_kernel(bergman(1.0), np.nan, 0.5)


@pytest.mark.parametrize("basis, z, w", [
    (bergman(1.0), 2.0, 0.1),        # returned 1.5625
    (dirichlet(), 3.0, 0.2),         # returned 0.610
    (disk_eigen(3.0, 2), 1.5, 0.1),  # returned 15.2
    (gen_dirichlet(0.5, 2), 1.5, 0.1),  # returned 0.659
], ids=str)
def test_disk_kernels_reject_points_outside_the_disk(basis, z, w):
    # |z conj(w)| < 1 holds at each, so only a check of z itself catches them
    with pytest.raises(ValueError):
        reproducing_kernel(basis, z, w)
    with pytest.raises(ValueError):
        reproducing_kernel(basis, w, z)


@pytest.mark.parametrize("basis", [hermite_l2(), laguerre_l2(0.5)], ids=str)
def test_source_bases_have_no_reproducing_kernel(basis):
    # the L2 source spaces are not reproducing-kernel spaces
    with pytest.raises(ValueError):
        reproducing_kernel(basis, 0.3, 0.2)


def test_dirichlet_kernel_custom_rule():
    rule = gauss_halfline(160, 0.5)
    z = 0.25 - 0.35j
    assert_allclose(dirichlet_kernel(z, 1.2, rule=rule),
                    dirichlet_kernel(z, 1.2), rtol=1e-10)
