"""Disk operators: the exact monomial action, finite differences as the
independent check on it, eigenfunction residuals, spectra, and membership."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bargmann import (
    DiskOperator,
    KernelFamily,
    MonomialExpansion,
    apply_exact,
    apply_fd,
    basis_matrix,
    bergman,
    casimir,
    dirichlet,
    disk_eigen,
    gen_dirichlet,
    gen_invariant_laplacian,
    harmonic_membership,
    hyperbolic_landau,
    invariant_laplacian,
    landau_eigenvalue,
    make_transform,
    operator_sample_points,
    point_spectrum,
)
from bargmann import operators


def test_expansion_prunes_zero_terms():
    f = MonomialExpansion({(1, 0): 1.0, (2, 3): 0.0})
    assert (2, 3) not in f.terms
    assert not f.is_zero
    assert MonomialExpansion({}).is_zero


def test_expansion_rejects_negative_powers():
    with pytest.raises(ValueError):
        MonomialExpansion({(-1, 0): 1.0})


@pytest.mark.parametrize("coeff", [float("nan"), complex(0.0, float("inf")),
                                   complex(float("-inf"), 1.0)])
def test_expansion_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ValueError):
        MonomialExpansion({(1, 1): coeff})


def test_expansion_evaluation_and_json_round_trip():
    f = MonomialExpansion({(2, 1): 1.5 - 0.5j, (0, 0): 2.0})
    z = 0.3 + 0.4j
    want = (1.5 - 0.5j) * z**2 * np.conj(z) + 2.0
    assert_allclose(f(z), want, rtol=1e-15)
    back = MonomialExpansion.from_json(f.to_json())
    assert back.terms == f.terms


@pytest.mark.parametrize("data", [{"1,1": [1, 0], "01,1": [2, 0]},
                                  {" 1 , 1 ": [1, 0], "1,1": [2, 0]}])
def test_expansion_from_json_refuses_two_keys_for_one_monomial(data):
    # keeping only the last coefficient would be a quietly wrong expansion
    with pytest.raises(ValueError, match="two terms name z\\^1 zbar\\^1"):
        MonomialExpansion.from_json(data)
    assert MonomialExpansion.from_json({" 1 , 1 ": [3, 0]}).terms == {(1, 1): 3.0}


def test_holomorphic_annihilation():
    for gamma in (0.5, 2.0, 4.0):
        op = DiskOperator(gamma)
        for a in range(9):
            assert apply_exact(op, MonomialExpansion({(a, 0): 2.3})).is_zero


def test_invariant_laplacian_of_zbar():
    # hand expansion: with u = |z|^2 and f = conj(z),
    # d^2 f / dz dzbar = 0 and df/dzbar = 1, so
    # D_2 f = -4 (1-u) (0 - 2 conj(z)) = 8 conj(z) (1 - u).
    image = apply_exact(invariant_laplacian(), MonomialExpansion({(0, 1): 1.0}))
    assert image.terms == {(0, 1): 8.0 + 0.0j, (1, 2): -8.0 + 0.0j}


def test_mixed_monomial_action_by_hand():
    # f = z zbar = u: d^2 f / dz dzbar = 1 and zbar df/dzbar = u, so
    # D_g f = -4 (1-u) ((1-u) - g u) = -4 + 4 (2+g) u - 4 (1+g) u^2.
    gamma = 1.7
    image = apply_exact(DiskOperator(gamma), MonomialExpansion({(1, 1): 1.0}))
    want = {
        (0, 0): -4.0 + 0.0j,
        (1, 1): 4.0 * (2.0 + gamma) + 0.0j,
        (2, 2): -4.0 * (1.0 + gamma) + 0.0j,
    }
    assert set(image.terms) == set(want)
    for key, value in want.items():
        assert_allclose(image.coefficient(*key), value, rtol=1e-15)


def test_operator_is_linear():
    op = DiskOperator(2.5, 0.3)
    f = MonomialExpansion({(1, 2): 1.0 - 1.0j})
    g = MonomialExpansion({(0, 1): 2.0})
    combo = MonomialExpansion({(1, 2): 2.0 * (1.0 - 1.0j), (0, 1): -2.0})
    left = apply_exact(op, combo)
    fa = apply_exact(op, f)
    ga = apply_exact(op, g)
    for key in set(left.terms) | set(fa.terms) | set(ga.terms):
        assert_allclose(left.coefficient(*key),
                        2.0 * fa.coefficient(*key) - ga.coefficient(*key),
                        atol=1e-14)


def test_casimir_shift():
    for gamma in (0.5, 2.0, 3.0):
        op = casimir(gamma)
        assert op.constant_shift == pytest.approx(2.0 * gamma - gamma**2)
        image = apply_exact(op, MonomialExpansion({(0, 0): 1.0}))
        assert_allclose(image.coefficient(0, 0), 2.0 * gamma - gamma**2)


def test_specialization_identity():
    # the weighted invariant Laplacian is the Landau operator at nu = a/2 + 1
    rng = np.random.default_rng(1)
    f = MonomialExpansion({(a, b): complex(*rng.standard_normal(2))
                           for a in range(3) for b in range(3)})
    for alpha in (0.0, 1.5, 3.0):
        fa = apply_exact(gen_invariant_laplacian(alpha), f)
        fb = apply_exact(hyperbolic_landau(alpha / 2.0 + 1.0), f)
        assert fa.terms.keys() == fb.terms.keys()
        for key in fa.terms:
            assert fa.coefficient(*key) == fb.coefficient(*key)


def test_landau_eigenvalues():
    # 4 ell (2 nu - ell - 1)
    assert landau_eigenvalue(2.0, 0) == 0.0
    assert landau_eigenvalue(2.0, 1) == 8.0
    assert landau_eigenvalue(3.0, 2) == pytest.approx(24.0)


def test_eigen_check_residuals():
    for nu, ell in ((2.0, 1), (3.0, 2)):
        for j in (0, 2):
            assert operators._eigen_residuals(nu, ell, j)[j] < 1e-4


# _eigen_residuals(nu, ell, j)[j] for j = 0..5 as it was computed one
# degree at a time, at the operators suite's six (nu, ell)
_EIGEN_RESIDUALS = {
    (1.0, 0): [0.0, 4.801253184094482e-10, 1.337807391940757e-09,
               1.36278012551351e-09, 1.8280688558751524e-09, 1.4863698623979417e-09],
    (2.0, 0): [0.0, 8.272979724978352e-10, 1.8526469004755927e-09,
               1.406643099914556e-09, 1.4361812453731943e-09, 2.5621238939219334e-09],
    (2.0, 1): [2.2489662919005403e-09, 7.907151427384864e-09, 4.674593983732469e-09,
               3.41477864830887e-09, 3.1716630466778494e-09, 2.6563721958018494e-09],
    (3.0, 0): [0.0, 1.0469792861023568e-09, 1.237801120826047e-09,
               1.300815906466531e-09, 2.049485615542834e-09, 2.2140641551098977e-09],
    (3.0, 1): [1.7582658200602224e-09, 8.402648427139503e-09, 1.1870687017874133e-08,
               9.397684963081721e-09, 5.304211781565006e-09, 5.171686404557237e-09],
    (3.0, 2): [2.3313261396783337e-09, 2.6737971694806042e-09, 1.4180098806569365e-08,
               1.6295409267917715e-08, 2.1277059057943553e-08, 6.168412253209353e-09],
}


def test_eigen_residuals_of_every_degree_come_from_three_basis_calls(monkeypatch):
    calls = []

    def counted(family, jmax, points):
        calls.append(jmax)
        return basis_matrix(family, jmax, points)

    monkeypatch.setattr(operators, "basis_matrix", counted)
    for (nu, ell), want in _EIGEN_RESIDUALS.items():
        calls.clear()
        got = operators._eigen_residuals(nu, ell, 5)
        assert calls == [5, 5, 5]       # two stencils and the points themselves
        assert [repr(float(v)) for v in got] == [repr(v) for v in want]
        assert repr(float(operators._eigen_residuals(nu, ell, 0)[0])) == repr(want[0])
        assert operators._eigen_residuals(nu, ell, 4)[4] == want[4]


def test_fd_matches_exact_at_second_order():
    rng = np.random.default_rng(2)
    f = MonomialExpansion({(a, b): complex(*rng.standard_normal(2))
                           for a in range(3) for b in range(3) if a + b <= 4})
    op = DiskOperator(2.2, 0.1)
    exact = apply_exact(op, f)
    pts = operator_sample_points()
    err = {}
    for h in (2e-2, 1e-2, 5e-3):
        err[h] = float(np.max(np.abs(apply_fd(op, f, pts, h) - exact(pts))))
    # halving h divides the error by about four
    assert err[2e-2] / err[1e-2] == pytest.approx(4.0, rel=0.15)
    assert err[1e-2] / err[5e-3] == pytest.approx(4.0, rel=0.15)


def test_fd_domain_guards():
    op = invariant_laplacian()
    f = MonomialExpansion({(1, 1): 1.0})
    with pytest.raises(ValueError):
        apply_fd(op, f, 0.3, h=0.0)
    with pytest.raises(ValueError):
        apply_fd(op, f, 0.995, h=1e-2)  # stencil leaves the disk
    with pytest.raises(ValueError):
        apply_fd(op, f, complex(np.nan, 0.1))


def _five_call_stencil(op, F, z, h):
    """apply_fd's formula with F called once per stencil point."""
    f0 = F(z)
    fpx, fmx = F(z + h), F(z - h)
    fpy, fmy = F(z + 1j * h), F(z - 1j * h)
    mixed = 0.25 * (fpx + fmx + fpy + fmy - 4.0 * f0) / (h * h)
    dzbar = 0.5 * ((fpx - fmx) / (2.0 * h) + 1j * (fpy - fmy) / (2.0 * h))
    u = (z * np.conj(z)).real
    return (-4.0 * (1.0 - u) * ((1.0 - u) * mixed - op.gamma * np.conj(z) * dzbar)
            + op.constant_shift * f0)


@pytest.mark.parametrize("case", ["expansion", "disk_eigen"])
def test_fd_calls_F_once_on_the_stacked_stencil(case):
    if case == "expansion":
        rng = np.random.default_rng(4)
        F = MonomialExpansion({(a, b): complex(*rng.standard_normal(2))
                               for a in range(3) for b in range(3)})
        op = DiskOperator(2.6, 0.4)
    else:
        family = disk_eigen(3.0, 2)
        F = lambda w: basis_matrix(family, 7, w)[..., 7]  # noqa: E731
        op = hyperbolic_landau(3.0)
    shapes = []

    def counted(w):
        shapes.append(np.shape(w))
        return F(w)

    pts = operator_sample_points()
    for z in (pts, pts.reshape(4, 5), pts[3]):
        for h in (1e-2, 1e-3):
            shapes.clear()
            got = apply_fd(op, counted, z, h)
            assert shapes == [(5,) + np.shape(z)]
            # a point is compared as a one-point array: numpy's scalar complex
            # products and powers round apart from its array loops, and 1/h^2
            # magnifies that to ~1e-11
            want = _five_call_stencil(op, F, np.atleast_1d(z), h)
            if np.ndim(z) == 0:
                assert isinstance(got, complex)
                want = want[0]
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (case, np.shape(z), h)


def test_operator_sample_points_stay_inside():
    pts = operator_sample_points()
    assert pts.shape == (20,)
    assert np.max(np.abs(pts)) < 1.0
    pts = operator_sample_points(radii=(0.2,), per_circle=4)
    assert pts.shape == (4,)
    assert_allclose(np.abs(pts), 0.2)


def test_eigenfunctions_satisfy_equation_pointwise():
    # apply the operator by finite differences directly to the closed-form
    # eigenfunction and compare with lambda * psi
    nu, ell, j = 2.0, 1, 1
    fam = disk_eigen(nu, ell)
    op = hyperbolic_landau(nu)
    pts = operator_sample_points(radii=(0.35, 0.55), per_circle=6)
    psi = basis_matrix(fam, j, pts)[:, j]
    coarse = apply_fd(op, lambda w: basis_matrix(fam, j, w)[..., j], pts, 1e-3)
    fine = apply_fd(op, lambda w: basis_matrix(fam, j, w)[..., j], pts, 5e-4)
    applied = (4.0 * fine - coarse) / 3.0
    lam = landau_eigenvalue(nu, ell)
    assert np.max(np.abs(applied - lam * psi)) / np.max(np.abs(psi)) < 1e-6


def test_point_spectrum_enumerations():
    entries, flagged = point_spectrum("hyperbolic_landau", 2.6)
    assert not flagged
    assert entries == [(0, 0.0), (1, 4.0 * (2 * 2.6 - 2.0)), (2, 8.0 * (2 * 2.6 - 3.0))]
    entries, flagged = point_spectrum("gen_invariant_laplacian", 3.0)
    assert not flagged
    assert entries == [(0, 0.0), (1, 4.0 * 3.0)]
    # below alpha = 1 the level formula indexes an empty range; the zero
    # eigenvalue survives through the harmonic space and the flag says the
    # enumeration is a convention, not a theorem
    entries, flagged = point_spectrum("gen_invariant_laplacian", 0.5)
    assert flagged
    assert entries == [(0, 0.0)]


def test_point_spectrum_validation():
    with pytest.raises(ValueError):
        point_spectrum("hyperbolic_landau", 0.5)
    with pytest.raises(ValueError):
        point_spectrum("gen_invariant_laplacian", -1.5)
    # inf raised OverflowError and NaN numpy's own message from int(ceil())
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="nu"):
            point_spectrum("hyperbolic_landau", bad)
        with pytest.raises(ValueError, match="alpha"):
            point_spectrum("gen_invariant_laplacian", bad)
    with pytest.raises(ValueError):
        point_spectrum("dirac", 1.0)


def test_levels_at_nu_minus_ell_one_half():
    # the level-ell eigenfunctions lie in L^2(D, (1-|z|^2)^(2 nu - 2) dA) only
    # for ell < nu - 1/2: at nu - ell = 1/2 their norm constant is 0, so the
    # basis, the family, the operator and the eigen check refuse the level
    # and the point spectrum does not list it
    with pytest.raises(ValueError):
        disk_eigen(1.5, 1)
    with pytest.raises(ValueError):
        KernelFamily("generalized_second", (1.5, 1))
    with pytest.raises(ValueError):
        make_transform("generalized_second", 1.5, 1)
    with pytest.raises(ValueError):
        operators._eigen_residuals(1.5, 1, 0)
    assert point_spectrum("hyperbolic_landau", 1.5) == ([(0, 0.0)], False)
    assert point_spectrum("hyperbolic_landau", 2.5) == ([(0, 0.0), (1, 12.0)], False)
    # just inside the range the level is admitted and listed
    assert disk_eigen(1.55, 1).params == (1.55, 1)
    assert [level for level, _ in point_spectrum("hyperbolic_landau", 1.55)[0]] == [0, 1]
    assert operators._eigen_residuals(1.55, 1, 0)[0] < 1e-4


def test_membership_of_polynomials():
    report = harmonic_membership(MonomialExpansion({(3, 0): 1.0}))
    assert report["member"]
    assert report["residual"] == 0.0
    # conj(z) is not annihilated; its residual is the L2 norm of
    # 8 conj(z)(1-|z|^2) over the disk: 8 sqrt(pi/12)
    report = harmonic_membership(MonomialExpansion({(0, 1): 1.0}))
    assert not report["member"]
    assert_allclose(report["residual"], 8.0 * np.sqrt(np.pi / 12.0), rtol=1e-10)


def test_membership_from_coefficients():
    # geometric decay: sum j |c_j|^2 converges -> member
    report = harmonic_membership(0.5 ** np.arange(200), dirichlet())
    assert report["member"]
    # c_j = 1/(j+1): sum j/(j+1)^2 diverges logarithmically -> flagged out
    report = harmonic_membership(1.0 / (np.arange(400) + 1.0), dirichlet())
    assert not report["member"]
    assert report["tail_ratio"] >= 0.7


def test_membership_in_generalized_space():
    # gen_dirichlet(alpha, m): gamma = alpha + 2, derivatives of order m
    space = gen_dirichlet(0.5, 2)
    report = harmonic_membership(MonomialExpansion({(3, 0): 1.0}), space)
    assert report["member"] and report["residual"] == 0.0
    assert report["kind"] == "gen_dirichlet"
    # (z^3)'' = 6 z: its norm on the default rule, (1-|z|^2)^0 dA
    assert_allclose(report["derivative_norm"], 6.0 * np.sqrt(np.pi / 2.0), rtol=1e-12)
    # conj(z) is not annihilated by D_(alpha+2): 4 (alpha+2) conj(z)(1-|z|^2)
    report = harmonic_membership(MonomialExpansion({(0, 1): 1.0}), space)
    assert not report["member"]
    assert_allclose(report["residual"], 10.0 * np.sqrt(np.pi / 12.0), rtol=1e-10)
    # Taylor coefficients: geometric decay is in, a slow tail is out
    assert harmonic_membership(0.5 ** np.arange(200), space)["member"]
    assert not harmonic_membership(np.arange(1.0, 401.0) ** -0.5, space)["member"]


def test_membership_validation():
    # only the Dirichlet-type spaces are harmonic spaces of these operators
    with pytest.raises(ValueError):
        harmonic_membership(MonomialExpansion({(1, 0): 1.0}), disk_eigen(3.0, 2))
    with pytest.raises(ValueError):
        harmonic_membership([1.0], bergman(1.0))
    with pytest.raises(ValueError):
        harmonic_membership(np.array([]), dirichlet())


@pytest.mark.parametrize("coeffs", [[1.0, np.nan] + [0.0] * 14,
                                    [1.0, complex(0.0, np.inf), 0.5]])
def test_membership_refuses_non_finite_coefficients(coeffs):
    # a NaN coefficient once left every block sum NaN and the verdict True
    with pytest.raises(ValueError):
        harmonic_membership(coeffs, dirichlet())


@pytest.mark.parametrize("args", [(np.nan,), (np.inf,), (2.0, np.nan), (2.0, -np.inf)])
def test_disk_operator_refuses_non_finite_parameters(args):
    # a NaN gamma once flowed through apply_fd as nan+nanj
    with pytest.raises(ValueError):
        DiskOperator(*args)
