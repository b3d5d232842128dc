"""Orthogonal polynomials and hypergeometric partial sums against classical
closed forms, scipy's evaluators, and each other."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre, eval_hermite, eval_jacobi, gammaln, hyp0f1

from bargmann import (
    BasisFamily,
    HypSeriesError,
    bargmann_fock,
    basis_matrix,
    bergman,
    dirichlet,
    disk_eigen,
    disk_rule,
    gauss_halfline,
    gauss_line,
    gen_dirichlet,
    hermite_l2,
    hermite_sequence,
    hyp1f1,
    hyp2f1_table,
    hyp_series,
    jacobi_sequence,
    laguerre_l2,
    laguerre_sequence,
    log_gamma,
    monomial_normalizer,
    papadakis_sum,
    pochhammer,
    reproducing_kernel,
)
from bargmann.special import BASES

NAN, INF = float("nan"), float("inf")


def test_hermite_low_orders_explicit():
    # H_0..H_3 written out: 1, 2x, 4x^2 - 2, 8x^3 - 12x.
    x = np.linspace(-2.5, 2.5, 11)
    H = hermite_sequence(3, x)
    assert_allclose(H[:, 0], np.ones_like(x))
    assert_allclose(H[:, 1], 2.0 * x)
    assert_allclose(H[:, 2], 4.0 * x**2 - 2.0)
    assert_allclose(H[:, 3], 8.0 * x**3 - 12.0 * x)


def test_hermite_matches_scipy():
    x = np.linspace(-3.0, 3.0, 9)
    for j in (0, 1, 5, 12, 25):
        assert_allclose(hermite_sequence(j, x)[:, j], eval_hermite(j, x), rtol=1e-12)


def test_laguerre_low_orders_explicit():
    x = np.linspace(0.0, 6.0, 7)
    for a in (0.0, 0.5, 2.0):
        L = laguerre_sequence(2, a, x)
        assert_allclose(L[:, 0], np.ones_like(x))
        assert_allclose(L[:, 1], a + 1.0 - x)
        assert_allclose(L[:, 2], 0.5 * x**2 - (a + 2.0) * x + 0.5 * (a + 1.0) * (a + 2.0))


def test_laguerre_matches_scipy():
    x = np.linspace(0.0, 20.0, 11)
    for a in (0.0, 0.5, 1.5, 4.0):
        for j in (1, 3, 10, 30):
            assert_allclose(laguerre_sequence(j, a, x)[..., j], eval_genlaguerre(j, a, x),
                            rtol=1e-10, atol=1e-12)


def test_laguerre_is_terminating_kummer_series():
    # L_n^(a)(x) = binom(n+a, n) 1F1(-n; a+1; x)
    x = np.array([0.3, 1.7, 5.2])
    for n in (0, 2, 7):
        for a in (0.0, 0.5, 2.5):
            binom = np.exp(gammaln(n + a + 1.0) - gammaln(n + 1.0) - gammaln(a + 1.0))
            kummer = np.array([hyp1f1(-n, a + 1.0, xv) for xv in x])
            assert_allclose(laguerre_sequence(n, a, x)[..., n], binom * kummer, rtol=1e-12)


def test_jacobi_matches_scipy():
    x = np.linspace(-0.9, 0.9, 7)
    for a, b in ((0.0, 0.0), (0.5, 1.5), (2.0, 0.0)):
        for j in (1, 4, 11):
            # atol covers the exact zeros of the odd Legendre members at x = 0
            assert_allclose(jacobi_sequence(j, a, b, x)[:, j], eval_jacobi(j, a, b, x),
                            rtol=1e-11, atol=1e-14)


def test_jacobi_value_at_one():
    # P_n^(a,b)(1) = (a+1)_n / n!
    for a, b in ((0.0, 0.5), (1.5, 2.0)):
        for n in range(8):
            want = pochhammer(a + 1.0, n) / np.exp(gammaln(n + 1.0))
            assert_allclose(jacobi_sequence(n, a, b, np.array([1.0]))[0, n], want, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    a=st.floats(min_value=-0.9, max_value=3.0),
    b=st.floats(min_value=-0.9, max_value=3.0),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_jacobi_reflection_symmetry(n, a, b, x):
    # P_n^(a,b)(-x) = (-1)^n P_n^(b,a)(x)
    left = jacobi_sequence(n, a, b, np.array([-x]))[0, n]
    right = (-1.0) ** n * jacobi_sequence(n, b, a, np.array([x]))[0, n]
    assert_allclose(left, right, rtol=1e-9, atol=1e-9)


def test_sequence_validation():
    with pytest.raises(ValueError):
        hermite_sequence(-1, 0.0)
    with pytest.raises(ValueError):
        laguerre_sequence(3, -1.0, 0.5)
    with pytest.raises(ValueError):
        jacobi_sequence(3, -1.2, 0.0, 0.5)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: hermite_sequence(3, [0.5, NAN]), id="hermite-x"),
    pytest.param(lambda: hermite_sequence(3, INF), id="hermite-x-inf"),
    pytest.param(lambda: laguerre_sequence(3, 0.5, [1.0, NAN]), id="laguerre-x"),
    pytest.param(lambda: laguerre_sequence(3, NAN, 1.0), id="laguerre-alpha"),
    pytest.param(lambda: laguerre_sequence(3, INF, 1.0), id="laguerre-alpha-inf"),
    pytest.param(lambda: laguerre_sequence(3, 0.5, NAN)[..., 3], id="laguerre-scalar-x"),
    pytest.param(lambda: laguerre_sequence(3, 0.5, [1.0, complex(0.5, INF)])[..., 3],
                 id="laguerre-scalar-x-inf"),
    pytest.param(lambda: pochhammer(NAN, 2), id="pochhammer-a"),
    pytest.param(lambda: pochhammer(-INF, 0), id="pochhammer-a-inf"),
    pytest.param(lambda: jacobi_sequence(3, 0.5, 0.5, [0.1, -INF]), id="jacobi-x"),
    pytest.param(lambda: jacobi_sequence(3, NAN, 0.5, 0.1), id="jacobi-a"),
    pytest.param(lambda: jacobi_sequence(3, 0.5, NAN, 0.1), id="jacobi-b"),
    pytest.param(lambda: hyp_series((0.5,), (1.5,), NAN), id="hyp-x"),
    pytest.param(lambda: hyp_series((0.5, 0.5), (1.5,), complex(NAN, 0.1)),
                 id="hyp-x-complex"),
    pytest.param(lambda: hyp_series((1.0,), (NAN,), 0.5), id="hyp-lower"),
    pytest.param(lambda: hyp_series((NAN,), (1.0,), 0.5), id="hyp-upper"),
    pytest.param(lambda: hyp_series((0.5, INF), (1.5,), 0.5), id="hyp-upper-inf"),
    pytest.param(lambda: basis_matrix(hermite_l2(), 4, [0.0, NAN]), id="hermite_l2"),
    pytest.param(lambda: basis_matrix(laguerre_l2(0.5), 4, [INF]), id="laguerre_l2"),
    pytest.param(lambda: basis_matrix(bargmann_fock(), 3, NAN), id="bargmann_fock"),
    pytest.param(lambda: basis_matrix(bargmann_fock(), 3, [0.5, complex(0.1, INF)]),
                 id="bargmann_fock-inf"),
])
def test_non_finite_input_raises(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: disk_eigen(3.0, 1.5), id="disk_eigen-ell"),
    pytest.param(lambda: disk_eigen(3.0, NAN), id="disk_eigen-ell-nan"),
    pytest.param(lambda: gen_dirichlet(0.5, 2.7), id="gen_dirichlet-m"),
    pytest.param(lambda: gen_dirichlet(0.5, INF), id="gen_dirichlet-m-inf"),
])
def test_non_integral_orders_raise(call):
    # these once became disk_eigen(3, 1) and gen_dirichlet(0.5, 2)
    with pytest.raises(ValueError):
        call()


def test_integral_float_orders_are_integers():
    assert disk_eigen(3.0, 1.0) == disk_eigen(3.0, 1)
    assert gen_dirichlet(0.5, 2.0).params == (0.5, 2)


# ---------------------------------------------------------------------------
# hypergeometric partial sums
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=4.0),
    c=st.floats(min_value=0.2, max_value=5.0),
    x=st.floats(min_value=-6.0, max_value=6.0),
)
def test_kummer_transformation(a, c, x):
    # 1F1(a; c; x) = e^x 1F1(c - a; c; -x)
    left = hyp1f1(a, c, x)
    right = np.exp(x) * hyp1f1(c - a, c, -x)
    assert_allclose(left, right, rtol=1e-9, atol=1e-12)


def test_gauss_summation_inside_disk_limit():
    # 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    # for terminating series (upper parameter a nonpositive integer), which
    # is Chu-Vandermonde: 2F1(-n, b; c; 1) = (c-b)_n / (c)_n.
    for n in (0, 1, 4, 9):
        for b, c in ((0.7, 1.9), (2.0, 3.5)):
            want = pochhammer(c - b, n) / pochhammer(c, n)
            assert_allclose(hyp_series((-n, b), (c,), 1.0).value, want, rtol=1e-12)


def test_gauss_series_against_scipy():
    from scipy.special import hyp2f1 as scipy_hyp2f1
    for x in (-0.8, -0.2, 0.3, 0.7):
        for a, b, c in ((0.5, 0.5, 1.5), (1.0, 2.0, 3.2)):
            assert_allclose(hyp_series((a, b), (c,), x).value, scipy_hyp2f1(a, b, c, x),
                            rtol=1e-9)


def test_saalschuetz_identity():
    # Balanced terminating 3F2 at unit argument:
    # 3F2(-n, a, b; c, 1+a+b-c-n; 1) = (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n)
    # (parameters chosen so the balancing lower parameter stays off the
    # nonpositive integers, where the series itself is undefined)
    for n in (1, 3, 6):
        for a, b, c in ((0.5, 1.2, 2.6), (1.0, 0.3, 3.1)):
            d = 1.0 + a + b - c - n
            got = hyp_series((-n, a, b), (c, d), 1.0).value
            want = (pochhammer(c - a, n) * pochhammer(c - b, n)
                    / (pochhammer(c, n) * pochhammer(c - a - b, n)))
            assert_allclose(got, want, rtol=1e-11)


def test_hyp_series_reports_termination():
    r = hyp_series((-3.0,), (1.5,), 2.0)
    assert r.first_omitted == 0.0
    assert r.terms_used <= 5
    assert 0.0 < r.rounding_bound <= 1e-8 * abs(r.value)


def test_hyp_series_order_follows_the_parameter_lists():
    # no upper parameters and one lower one: the series is 0F1
    for b, x in ((2.0, 10.0), (0.5, -3.0), (3.5, 0.25)):
        got = hyp_series([], [b], x).value
        assert_allclose(got, hyp0f1(b, x), rtol=1e-14, atol=0.0)


def test_hyp_series_rejects_bad_input():
    with pytest.raises(ValueError):
        hyp_series((0.5, 0.5), (-2.0,), 0.3)  # nonpositive-integer lower parameter
    # Gauss-type series outside the unit disk without termination
    with pytest.raises(HypSeriesError):
        hyp_series((0.5, 0.5), (1.5,), 1.2)
    with pytest.raises(HypSeriesError):
        hyp_series((0.5, 1.0, 1.5), (2.0, 2.5), -1.0)
    # divergent: terms grow without bound
    with pytest.raises(HypSeriesError):
        hyp1f1(2.0, 0.5, 400.0, truncation=20)


def test_cancelled_sums_raise_and_convergent_ones_keep_their_value():
    # 2F1(-120, 3.5; 2.5; 0.7) is -2.0e-61; its float64 sum reads -7.1e11
    # with first_omitted 0, and only the rounding bound shows the cancellation,
    # far past the 1e-8 share of the value at which hyp1f1 refuses a sum
    r = hyp_series((-120.0, 3.5), (2.5,), 0.7)
    assert r.first_omitted == 0.0
    assert r.rounding_bound > 1e3 * abs(r.value)
    # 1F1(-40; 1; 30) = L_40(30) cancels too, and hyp1f1 refuses it
    with pytest.raises(ValueError, match="cancel"):
        hyp1f1(-40, 1.0, 30.0)
    # a convergent series keeps its value, its rounding bound far below it
    r = hyp_series((0.5, 0.5), (1.5,), 0.3)
    assert repr(r.value) == "1.0582725367454624"
    assert r.rounding_bound <= 1e-8 * abs(r.value)


# (b, c, y): the four (b, 1 + alpha, y) of special.bilateral_gf -- the
# forward recurrence at c - b = -0.5, Euler's route at c - b = -1 -- and
# Euler's route at c = b
_TABLE_CASES = [(2.0, 1.5, 0.2), (2.0, 1.5, 0.7), (3.5, 2.5, 0.2), (3.5, 2.5, 0.7),
                (2.5, 2.5, 0.2), (2.5, 2.5, 0.7)]
# where F_n vanishes at the decimal y: F_10 = 0.8^9 (1 - 5y) at (3.5, 2.5, 0.2),
# -7.45e-18 at the float 0.2 and 0.0 in float64
_TABLE_ZEROS = {(3.5, 2.5, 0.2): 10}


@pytest.mark.parametrize("b, c, y", _TABLE_CASES)
def test_hyp2f1_table_meets_exact_terminating_sums(b, c, y):
    mp = pytest.importorskip("mpmath")
    table = hyp2f1_table(120, b, c, y)
    with mp.workdps(250):       # the sums cancel by up to ~1e91 at y = 0.7
        exact = []
        for n in range(121):
            term = total = mp.mpf(1)
            for i in range(n):
                term *= mp.mpf(i - n) * (b + i) / ((c + i) * (i + 1)) * y
                total += term
            exact.append(total)
        err = [float(abs(t - e)) for t, e in zip(table, exact)]
        size = [float(abs(e)) for e in exact]
    zero = _TABLE_ZEROS.get((b, c, y))
    for n in range(121):
        bound = 1e-15 * max(size) if n == zero else 1e-12 * size[n]
        assert err[n] <= bound, (n, err[n], size[n])


@pytest.mark.parametrize("args", [
    (-1, 2.0, 1.5, 0.2), (120, NAN, 1.5, 0.2), (120, 2.0, INF, 0.2),
    (120, 2.0, 0.0, 0.2), (120, 2.0, 1.5, 0.0), (120, 2.0, 1.5, 1.0),
    (120, 2.0, 1.5, NAN),
    (120, 4.5, 2.5, 0.2),       # c - b = -2: Euler's route is tested at k <= 1
])
def test_hyp2f1_table_refuses_inputs_outside_its_domain(args):
    with pytest.raises(ValueError):
        hyp2f1_table(*args)


def test_gamma_helpers():
    assert_allclose(pochhammer(3.0, 4), 3.0 * 4.0 * 5.0 * 6.0)
    assert pochhammer(2.5, 0) == 1.0
    assert_allclose(log_gamma(6.0), np.log(120.0), rtol=1e-13)


def test_log_gamma_scalar_matches_array_route_and_rejects_non_finite():
    points = (0.5, 7.5, np.float64(123.25), 1e-3, 2.0, 1e4)
    array = log_gamma(np.array(points))
    for x, from_array in zip(points, array):
        got = log_gamma(x)
        assert type(got) is float
        assert got == from_array == log_gamma(np.asarray(x))
    assert log_gamma(np.array(points).reshape(2, 3)).shape == (2, 3)
    assert_allclose(log_gamma(np.array([1.0, 6.0])), [0.0, np.log(120.0)], rtol=1e-13)
    for bad in (np.nan, np.inf, -np.inf, np.float64(np.nan), 0.0, -1.5,
                np.array([1.0, np.nan]), np.array([np.inf]), np.array(-np.inf)):
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_log_gamma_meets_mpmath():
    # within 2 ulps from x = 13 up, and within 5 eps max(1, |log Gamma|) below,
    # where log Gamma crosses zero at x = 1 and 2
    mp = pytest.importorskip("mpmath")
    grid = np.concatenate([np.geomspace(1e-6, 13.0, 120, endpoint=False),
                           np.geomspace(13.0, 1e4, 120), np.arange(0.5, 30.0, 0.5)])
    got = log_gamma(grid)
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for x, value in zip(grid, got):
            exact = mp.loggamma(mp.mpf(float(x)))
            err = abs(float(mp.mpf(float(value)) - exact))
            bound = (2.0 * np.spacing(abs(float(exact))) if x >= 13.0
                     else 5.0 * eps * max(1.0, abs(float(exact))))
            assert err <= bound, (x, err, bound)


# ---------------------------------------------------------------------------
# orthonormal families
# ---------------------------------------------------------------------------

def test_hermite_family_orthonormal_under_line_rule():
    fam = hermite_l2()
    rule = gauss_line(40)
    P = basis_matrix(fam, 12, rule.nodes)
    gram = P.T.conj() @ (rule.weights[:, None] * P)
    assert np.max(np.abs(gram - np.eye(13))) < 1e-12


def test_laguerre_family_orthonormal_under_halfline_rule():
    for alpha in (0.0, 0.5, 2.0):
        fam = laguerre_l2(alpha)
        rule = gauss_halfline(40, alpha)
        P = basis_matrix(fam, 12, rule.nodes)
        gram = P.T.conj() @ (rule.weights[:, None] * P)
        assert np.max(np.abs(gram - np.eye(13))) < 1e-11


def _disk_eigen_per_degree_powers(nu, ell, jmax, z):
    """The j >= ell disk eigenfunctions with z^(j - ell) and (1-u)^(-ell)
    raised separately for each degree, as a reference for the running
    product the library uses; the terminating 2F1 is (beta+1)_ell / ell!
    P_ell^(beta, j - ell)(2u - 1), by ``jacobi_sequence`` per degree."""
    beta_p = 2.0 * (nu - ell) - 1.0
    u = (z * np.conj(z)).real
    one_minus_u = 1.0 - u
    out = np.full(z.shape + (jmax + 1,), np.nan, dtype=complex)
    for j in range(ell, jmax + 1):
        lognorm = 0.5 * (np.log(beta_p / np.pi) + gammaln(j + 1.0)
                         + gammaln(beta_p + 1.0 + ell) - gammaln(ell + 1.0)
                         - gammaln(beta_p + 1.0 + j))
        logbin = gammaln(j + beta_p + 1.0) - gammaln(j + 1.0) - gammaln(beta_p + 1.0)
        f = (np.exp(gammaln(ell + 1.0) + gammaln(beta_p + 1.0) - gammaln(beta_p + 1.0 + ell))
             * jacobi_sequence(ell, beta_p, j - ell, 2.0 * u - 1.0)[..., ell])
        out[..., j] = (np.exp(lognorm + logbin) * z ** (j - ell)
                       * one_minus_u ** (-ell) * f)
    return out


@pytest.mark.parametrize("nu, ell", [(3.0, 2), (2.3, 1), (1.7, 0)])
def test_disk_eigen_running_powers_match_per_degree_powers(nu, ell):
    z = disk_rule(120, 256, 2.0 * nu - 2.0 - 2 * ell).nodes
    got = basis_matrix(disk_eigen(nu, ell), 64, z)[:, ell:]
    want = _disk_eigen_per_degree_powers(nu, ell, 64, z)[:, ell:]
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def _disk_eigen_per_degree_loop(nu, ell, jmax, z):
    """psi_j^{nu,ell}(z), j = 0..jmax, one degree at a time: the scalar
    log-Gamma normalizers, the terminating 2F1 as ell!/(beta+1)_ell
    P_ell^(beta, j - ell)(2u - 1) by ``jacobi_sequence``, and a running
    z^(j - ell) per degree, which the evaluator forms over all degrees at
    once."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape + (jmax + 1,), dtype=complex)
    beta_p = 2.0 * (nu - ell) - 1.0
    u = (z * np.conj(z)).real
    one_minus_u = 1.0 - u
    lg_bl = log_gamma(beta_p + 1.0 + ell)
    lg_l = log_gamma(ell + 1.0)
    fold = one_minus_u ** (-ell)
    zp = np.ones_like(z)
    for j in range(jmax + 1):
        lognorm = 0.5 * (np.log(beta_p / np.pi) + log_gamma(j + 1.0) + lg_bl - lg_l
                         - log_gamma(beta_p + 1.0 + j))
        if j >= ell:
            logbin = log_gamma(j + beta_p + 1.0) - log_gamma(j + 1.0) + lg_l - lg_bl
            f = jacobi_sequence(ell, beta_p, j - ell, 2.0 * u - 1.0)[..., ell]
            if j > ell:
                zp = zp * z
            out[..., j] = np.exp(lognorm + logbin) * zp * fold * f
        else:
            pj = jacobi_sequence(j, ell - j, beta_p, 1.0 - 2.0 * u)[..., j]
            out[..., j] = ((-1.0) ** j * np.exp(lognorm) * np.conj(z) ** (ell - j)
                           * fold * pj)
    return out


@pytest.mark.parametrize("nu, ell", [(3.0, 2), (2.3, 1), (1.7, 0), (2.6, 2), (4.0, 3)])
def test_disk_eigen_matrix_matches_per_degree_loop(nu, ell):
    rng = np.random.default_rng(31)
    seeded = np.sqrt(rng.uniform(0.0, 0.98, 40)) * np.exp(2j * np.pi * rng.uniform(size=40))
    points = np.concatenate(([0.0, 0.99 * np.exp(0.7j)], seeded))
    family = disk_eigen(nu, ell)
    for jmax in sorted({0, ell - 1, ell, ell + 1, 64, 110} - {-1}):
        for z in (*points[:3], points, points.reshape(6, 7)):
            z = np.asarray(z)
            got = basis_matrix(family, jmax, z)
            want = _disk_eigen_per_degree_loop(nu, ell, jmax, z)
            assert got.shape == want.shape == z.shape + (jmax + 1,)
            # relative per entry; where the loop gives 0 (z = 0), exactly 0
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (jmax, z.shape)


def _mp_disk_eigen(mp, nu, ell, j, z):
    """psi_j^{nu,ell}(z) in mpmath: the defining Jacobi form below ell, the
    terminating 2F1 from ell on."""
    z = mp.mpc(z)
    u = (z * mp.conj(z)).real
    b = 2 * (mp.mpf(nu) - ell) - 1
    norm = mp.sqrt(b / mp.pi * mp.gamma(j + 1) * mp.gamma(b + 1 + ell)
                   / (mp.gamma(ell + 1) * mp.gamma(b + 1 + j)))
    if j < ell:
        return ((-1) ** j * norm * mp.conj(z) ** (ell - j) * (1 - u) ** (-ell)
                * mp.jacobi(j, ell - j, b, 1 - 2 * u))
    return (norm * mp.binomial(j + b, j) * z ** (j - ell) * (1 - u) ** (-ell)
            * mp.hyp2f1(-ell, 1 + b + j, 1 + b, 1 - u))


@pytest.mark.parametrize("nu, ell", [(12.5, 10), (3.0, 2)])
def test_disk_eigen_meets_mpmath_at_a_high_level(nu, ell):
    # the terminating 2F1 summed as ell alternating terms was 8.6e-9 off at
    # (12.5, 10), z = 0.3 + 0.4i; the Jacobi recurrence reads ~6e-15
    mp = pytest.importorskip("mpmath")
    z = np.array([0.3 + 0.4j, 0.7 - 0.5j])
    got = basis_matrix(disk_eigen(nu, ell), 15, z)
    with mp.workdps(40):
        want = np.array([[complex(_mp_disk_eigen(mp, nu, ell, j, w)) for j in range(16)]
                         for w in z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_disk_bases_reject_points_off_the_open_disk():
    for z in (1.0 + 0j, np.nan + 0j, complex(0.1, np.inf)):
        with pytest.raises(ValueError):
            basis_matrix(bergman(1.5), 2, np.array([z]))


# n_j of psi_j = n_j z^j in closed log form, for the family whose form
# cancels nothing and whose log stays small
_LOG_PI = np.log(np.pi)
_CLOSED_LOG_NORMS = {
    "dirichlet": lambda j: -0.5 * (_LOG_PI + np.log(np.maximum(j, 1.0))),
}


def _mp_monomial_norms(family, J):
    """Fock and Bergman-type n_j, j = 0..J, from their Gamma-function forms
    at 40 digits (in log-Gamma form the Bergman types cancel to ~1e-12
    relative at J = 1100, and exp of a Fock log near -700 loses ~1e-13)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, fac = mp.gamma, mp.factorial
        if family.kind == "bargmann_fock":
            sq = [1 / (mp.pi * fac(j)) for j in range(J + 1)]
        elif family.kind == "bergman":
            (d,) = family.params
            sq = [g(j + d + 1) / (fac(j) * g(d + 1)) for j in range(J + 1)]
        else:
            a, m = family.params
            sq = [(g(j + a + 2) / fac(j) if j < m
                   else fac(j - m) * g(j - m + a + 2) / fac(j) ** 2)
                  / (mp.pi * g(a + 1)) for j in range(J + 1)]
        return np.array([float(mp.sqrt(v)) for v in sq])


@pytest.mark.parametrize("family, J", [
    (dirichlet(), 1100), (gen_dirichlet(0.5, 2), 1100), (bergman(1.5), 1100),
    (bargmann_fock(), 300),
], ids=str)
def test_monomial_normalizer_high_degree(family, J):
    # past j ~ 1,060 (Fock: 252) the norms were read off psi_j(0.5) / 0.5^j,
    # which underflows to zero; as exp(log n_j) the Fock norms then missed
    # by 1.65e-13 at J = 300
    rtol = 1e-14 if family.kind == "bargmann_fock" else 1e-13
    n = monomial_normalizer(family, J)
    assert np.all(np.isfinite(n)) and np.all(n > 0.0)
    if family.kind in _CLOSED_LOG_NORMS:
        want = np.exp(_CLOSED_LOG_NORMS[family.kind](np.arange(J + 1, dtype=float)))
    else:
        want = _mp_monomial_norms(family, J)
    assert_allclose(n, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("family", [bergman(1.5), gen_dirichlet(0.5, 2)], ids=str)
@pytest.mark.parametrize("J", [110, 1100])
def test_monomial_normalizer_sums_log_ratios(family, J):
    # as differences of log-Gamma values near 6,600 the norms missed by
    # 1e-12 (J = 1100) and 6e-14 / 1e-13 (J = 110)
    n = monomial_normalizer(family, J)
    assert_allclose(n, _mp_monomial_norms(family, J), rtol=2e-14, atol=0.0)


def test_monomial_normalizer_raises_past_float_range():
    with pytest.raises(ValueError):
        monomial_normalizer(bargmann_fock(), 400)
    with pytest.raises(ValueError):
        monomial_normalizer(disk_eigen(3.0, 2), 4)   # not diagonal in z^j


def test_unknown_kind_raises_and_every_constructor_names_a_table_kind():
    nope = BasisFamily("nope")
    for call in (lambda: basis_matrix(nope, 3, [0.1]),
                 lambda: monomial_normalizer(nope, 3),
                 lambda: reproducing_kernel(nope, 0.1, 0.2),
                 lambda: papadakis_sum(nope, 0.1, 0.2, 3)):
        with pytest.raises(ValueError, match="unknown basis family 'nope'"):
            call()
    built = (hermite_l2(), laguerre_l2(0.5), bargmann_fock(), bergman(1.5),
             disk_eigen(3.0, 2), dirichlet(), gen_dirichlet(0.5, 2))
    assert sorted(b.kind for b in built) == sorted(BASES)


def test_fock_basis_recursion_stays_finite_where_powers_overflow():
    # 14^300 overflows; the ratio recursion reaches psi_300(14) ~ 2.2e36
    row = basis_matrix(bargmann_fock(), 300, np.array([14.0 + 0j]))[0]
    assert np.all(np.isfinite(row))
    assert_allclose(abs(row[300]), 2.2e36, rtol=0.05)
