"""Kernel evaluation: closed forms vs truncated basis series vs integral
representations, the convolution weight and its Laplace identity, and
reproducing-kernel structure (symmetry, positivity, basis sums)."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from bargmann import (
    KernelFamily,
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
    laguerre_l2,
    make_transform,
)
from bargmann import kernels, quadrature, transforms

# one weight shared by the generalized-kernel tests below, passed explicitly
# so that they exercise the kernel's weight argument
W_HALF = omega(0.5, 2)


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
        assert_allclose(gen_dirichlet_kernel(alpha, 2, 0.0, x, weight=W_HALF),
                        gen_want, rtol=1e-12)


def test_gen_dirichlet_integral_agrees_with_series():
    z = _disk_points(8, 0.6)
    for x in (0.4, 1.9, 4.2):
        series = kernel_series(KernelFamily("gen_bergman_dirichlet", (0.5, 2)),
                               z, x, J=120)[:, 0]
        integral = gen_dirichlet_kernel(0.5, 2, z, x, weight=W_HALF)
        assert np.max(np.abs(integral - series)) < 1e-6


# ---------------------------------------------------------------------------
# the omega t-integral against its trapezoid in u = sqrt(t)
# ---------------------------------------------------------------------------

def _trapezoid_rule(weight):
    """The trapezoid in u = sqrt(t) of a weight as a rule in s = e^-t, formed
    here: masses 2 h_u u_k omega(u_k^2) at the 316 atoms e^(-u_k^2)."""
    h = kernels._OMEGA_U_STEP
    u = h * np.arange(1, weight.values.shape[0] + 1)
    return QuadratureRule("omega_s", np.exp(-u * u), 2.0 * h * u * weight.values)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_omega_s_rule_reproduces_trapezoid(m):
    # the kernel past the last rung integrates on the weight's rule in
    # s = e^-t (``OmegaWeight.measure``), which is the trapezoid formed here,
    # at point-queries' (alpha, m) pairs; angle 0 puts the singularity
    # s = 1/z nearest the atoms
    z = np.array([0.5, 0.75 * np.exp(2.2j), 0.95, 0.99, 0.999])
    x = np.array([0.0, 3.0, 30.0])
    for alpha in (0.0, 0.5, 1.5, 3.0):
        weight = omega(alpha, m)
        trapezoid = _trapezoid_rule(weight)
        assert trapezoid.nodes.shape == (316,)
        assert np.array_equal(weight.measure.nodes, trapezoid.nodes)
        want = kernels._dirichlet_type_kernel(alpha, m, z[:, None], x[None, :],
                                              trapezoid.nodes, trapezoid.weights)
        got = gen_dirichlet_kernel(alpha, m, z[:, None], x[None, :], weight=weight)
        err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
        assert err.max() <= 1e-15, (alpha, m, z[err.argmax()])


def test_forward_map_rows_match_trapezoid_route():
    # circle-map rows: the rule the kernel takes at r = 0.75 (the 24-node
    # rung), against the same integrand run on the u-trapezoid
    op = make_transform("gen_bergman_dirichlet", 0.5, 2)
    trapezoid = _trapezoid_rule(kernels._default_omega(0.5, 2))
    z = np.array([0.75 * np.exp(2.9j)])
    got = forward_map(op, z)
    x = op.source_rule.nodes
    want = kernels._dirichlet_type_kernel(0.5, 2, z[:, None], x[None, :], trapezoid.nodes,
                                          trapezoid.weights) * op.source_rule.weights
    err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    assert err.max() < 1e-13


def _count_calls(monkeypatch, *names):
    """Count the calls of the named ``kernels`` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    return calls


def test_omega_s_rule_is_built_once_per_weight(monkeypatch):
    # the weight's rules in s = e^-t: the rungs (one Stieltjes pass) where
    # |z| <= 0.9, once; past it the whole measure, built once and read-only
    calls = _count_calls(monkeypatch, "_stieltjes")
    weight = omega(0.5, 2)
    first = gen_dirichlet_kernel(0.5, 2, 0.3 + 0.2j, 1.5, weight=weight)
    second = gen_dirichlet_kernel(0.5, 2, 0.3 + 0.2j, 1.5, weight=weight)
    assert calls == {"_stieltjes": 1}
    assert first == second
    first = gen_dirichlet_kernel(0.5, 2, 0.95j, 1.5, weight=weight)
    second = gen_dirichlet_kernel(0.5, 2, 0.95j, 1.5, weight=weight)
    assert calls == {"_stieltjes": 1}
    assert first == second
    assert weight.measure is weight.measure
    assert weight.rungs is weight.rungs
    assert weight.measure.nodes is kernels._OMEGA_S
    assert not weight.measure.weights.flags.writeable
    # a call past the last rung builds no rung
    fresh = omega(0.5, 2)
    gen_dirichlet_kernel(0.5, 2, 0.95j, 1.5, weight=fresh)
    assert "rungs" not in vars(fresh)


# point-queries' twelve (alpha, m) pairs
_GBD_PAIRS = [(alpha, m) for m in (2, 3, 4) for alpha in (0.0, 0.5, 1.5, 3.0)]


def test_default_omega_cache_holds_point_queries_pairs(monkeypatch):
    # two walks through the twelve pairs in different orders build each
    # weight's rungs once (one Stieltjes pass each)
    calls = _count_calls(monkeypatch, "_stieltjes")
    kernels._default_omega.cache_clear()
    rng = np.random.default_rng(12)
    orders = [rng.permutation(len(_GBD_PAIRS)) for _ in range(2)]
    assert not np.array_equal(*orders)
    for order in orders:
        for i in order:
            alpha, m = _GBD_PAIRS[i]
            gen_dirichlet_kernel(alpha, m, 0.3 + 0.2j, 1.5)
    assert calls["_stieltjes"] == len(_GBD_PAIRS)


def test_omega_rule_moments_meet_closed_laplace():
    # the moments sum_k masses_k s_k^j of the measure the kernel integrates
    # on past the last rung, against the Gamma-product closed form the weight
    # is inverted from: this checks the inversion and the trapezoid, not the
    # formula (the long-series test below does that)
    for alpha, m in _GBD_PAIRS:
        rule = kernels._default_omega(alpha, m).measure
        for j in range(61):
            got = rule.nodes**j @ rule.weights
            want = omega_laplace_closed(alpha, m, j)
            assert abs(got - want) / want <= (1e-13 if j <= 5 else 1e-11), (alpha, m, j)


_LONG_SERIES_Z = np.array([0.5, 0.9 * np.exp(1.3j), 0.9, 0.95 * np.exp(2.2j), -0.95])
_LONG_SERIES_X = np.array([0.0, 3.0, 12.0, 30.0])
# where the series' head and tail cancel (up to ~150-fold at (0, 2), z = 0.9):
# there the float64 series is itself 7e-13 to 7e-11 off, by summation order
_CANCELLING = (np.abs(_LONG_SERIES_Z)[:, None] >= 0.9) & (_LONG_SERIES_X[None, :] == 30.0)


def test_gen_dirichlet_kernel_meets_long_series():
    # at J = 3000 the series' tail is below rounding for |z| <= 0.95; the
    # series goes through the basis norms, not the omega weight.  The
    # cancelling points are measured against the mpmath series below.
    z, x = _LONG_SERIES_Z, _LONG_SERIES_X
    for alpha, m in _GBD_PAIRS + [(3.0, 8), (0.0, 10)]:
        got = gen_dirichlet_kernel(alpha, m, z[:, None], x[None, :])
        want = kernel_series(KernelFamily("gen_bergman_dirichlet", (alpha, m)), z, x,
                             J=3000)
        err = np.max((np.abs(got - want) / np.abs(want))[~_CANCELLING])
        assert err <= 1e-12, (alpha, m, err)


def _gen_dirichlet_series_coefficients(mp, alpha, m, x, J):
    """c_j = n_j phi_j(x), j = 0..J, at mpmath's working precision, so that
    K(z, x) = sum_j c_j z^j.  Written out from the norms
    pi n_j^2 = Gamma(j+alpha+2) / (j! Gamma(alpha+1)) below j = m and
    Gamma(j-m+alpha+2) (j-m)! / ((j!)^2 Gamma(alpha+1)) from j = m on, and
    phi_j = sqrt(j! / Gamma(alpha+j+1)) L_j^(alpha); not read from the
    library."""
    a, x = mp.mpf(alpha), mp.mpf(x)
    lag_prev, lag = mp.mpf(0), mp.mpf(1)
    # s = (n_j phi_j / L_j)^2 = (j+alpha+1) / (pi Gamma(alpha+1)) below m
    s = (a + 1) / (mp.pi * mp.gamma(a + 1))
    out = []
    for j in range(J + 1):
        out.append(mp.sqrt(s) * lag)
        lag_prev, lag = lag, ((2 * j + 1 + a - x) * lag - (j + a) * lag_prev) / (j + 1)
        if j + 1 < m:
            s = (j + a + 2) / (mp.pi * mp.gamma(a + 1))
        elif j + 1 == m:
            s = (a + 1) / (mp.pi * mp.factorial(m) * mp.gamma(a + m + 1))
        else:
            k = j + 1 - m
            s *= (k + a + 1) * k / ((j + 1) * (a + j + 1))
    return out


def test_gen_dirichlet_kernel_meets_mpmath_series_where_it_cancels():
    # x = 30, |z| >= 0.9: a 40-digit series, whose tail past J = 1000 is below
    # 1e-20 relative there.  The kernel is at most 8.4e-14 off, at (0, 2),
    # z = 0.9; the bound leaves a margin of ~2.4x over that.
    mp = pytest.importorskip("mpmath")
    z, x = _LONG_SERIES_Z, _LONG_SERIES_X
    rows, cols = np.nonzero(_CANCELLING)
    J = 1000
    for alpha, m in _GBD_PAIRS + [(3.0, 8), (0.0, 10)]:
        got = gen_dirichlet_kernel(alpha, m, z[:, None], x[None, :])[rows, cols]
        with mp.workdps(40):
            coef = _gen_dirichlet_series_coefficients(mp, alpha, m, 30.0, J)
            for value, point in zip(got, z[rows]):
                want = mp.polyval(coef[::-1], mp.mpc(point))
                tail = max(abs(c) for c in coef[-20:]) * abs(point) ** J
                assert tail <= 1e-20 * abs(want), (alpha, m, point)
                err = abs(value - complex(want)) / abs(complex(want))
                assert err <= 2e-13, (alpha, m, point, err)


# ---------------------------------------------------------------------------
# the ladder of t-rules sized from |z|
# ---------------------------------------------------------------------------

def _measure(alpha, m):
    """(rungs, whole measure) of a Dirichlet-type kernel's discrete measure;
    the plain family is (alpha, m) = (0, 1)."""
    if m == 1:
        return kernels._dirichlet_rungs(), kernels._default_t_rule()
    weight = omega(alpha, m)
    return weight.rungs, weight.measure


def _gauss_rule(measure, n):
    """(nodes, weights) of the n-point Gauss rule of a discrete measure, from
    its own Stieltjes pass to order n."""
    return quadrature._tridiagonal_gauss(
        *kernels._stieltjes(measure.nodes, measure.weights, n), (n,))[0]


# a few points on each rung's largest circle, and x up to querygen.X_MAX = 30;
# the top of that range is where the head and the tail cancel most.  Near
# x = 28.77, a zero of the (0, 2) kernel at z = 0.9, every rule of the
# measure, the whole measure included, reads ~1e-12 relative, so no point
# sits there
_RUNG_ANGLES = np.array([0.0, 1.1, 2.5])
_RUNG_X = np.array([0.0, 1.0, 4.0, 12.0, 22.0, 28.5, 29.0, 30.0])


@pytest.mark.parametrize("alpha, m", [(0.0, 1), (0.5, 2), (0.0, 2), (3.0, 4)],
                         ids=["dirichlet", "omega-0.5-2", "omega-0-2", "omega-3-4"])
def test_rungs_meet_mpmath_series_at_their_largest_radius(alpha, m):
    # each rung at its rho against a 40-digit series, truncated at the J
    # where rho^J = 1e-25 and checked to leave a tail below 1e-20 relative;
    # each rung is also the Gauss rule of the measure that a Stieltjes pass
    # to its own order gives, bit for bit
    mp = pytest.importorskip("mpmath")
    rungs, measure = _measure(alpha, m)
    assert [(r.meta["rho"], r.nodes.shape[0]) for r in rungs] == list(kernels._T_RULE_LADDER)
    truncations = [int(np.ceil(-25.0 / np.log10(r.meta["rho"]))) for r in rungs]
    with mp.workdps(40):
        coef = [_gen_dirichlet_series_coefficients(mp, alpha, m, x, max(truncations))
                for x in _RUNG_X]
        for rule, J in zip(rungs, truncations):
            nodes, weights = _gauss_rule(measure, rule.nodes.shape[0])
            assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)
            z = rule.meta["rho"] * np.exp(1j * _RUNG_ANGLES)
            got = kernels._dirichlet_type_kernel(alpha, m, z[:, None], _RUNG_X[None, :],
                                                 rule.nodes, rule.weights)
            for j, c in enumerate(coef):
                c = c[:J + 1]
                for i, point in enumerate(z):
                    want = mp.polyval(c[::-1], mp.mpc(point.real, point.imag))
                    tail = max(abs(t) for t in c[-20:]) * abs(point) ** J
                    assert tail <= 1e-20 * abs(want), (point, _RUNG_X[j])
                    err = abs(got[i, j] - complex(want)) / abs(complex(want))
                    assert err <= 1e-12, (rule.meta["rho"], point, _RUNG_X[j], err)


def test_gen_dirichlet_kernel_past_the_last_rung_meets_mpmath_series():
    # past |z| = 0.9 the kernel sums omega's whole measure: against a 40-digit
    # series truncated where |z|^J = 1e-25, at the rungs' angles and x up to
    # 30.  The worst point read 5.8e-15
    mp = pytest.importorskip("mpmath")
    x = np.array([0.0, 12.0, 22.0, 28.5, 30.0])
    for r in (0.93, 0.97):
        z = r * np.exp(1j * _RUNG_ANGLES)
        got = gen_dirichlet_kernel(0.5, 2, z[:, None], x[None, :])
        J = int(np.ceil(-25.0 / np.log10(r)))
        with mp.workdps(40):
            for j, xv in enumerate(x):
                coef = _gen_dirichlet_series_coefficients(mp, 0.5, 2, xv, J)
                for i, point in enumerate(z):
                    want = mp.polyval(coef[::-1], mp.mpc(point.real, point.imag))
                    tail = max(abs(c) for c in coef[-20:]) * r ** J
                    assert tail <= 1e-20 * abs(want), (point, xv)
                    err = abs(got[i, j] - complex(want)) / abs(complex(want))
                    assert err <= 1e-14, (point, xv, err)


@pytest.mark.parametrize("alpha, m", [(0.0, 1), (0.0, 2), (0.5, 2), (0.0, 4), (3.0, 8),
                                      (1.5, 12)],
                         ids=["dirichlet", "omega-0-2", "omega-0.5-2", "omega-0-4", "omega-3-8",
                              "omega-1.5-12"])
def test_discrete_gauss_rules_integrate_exponentials_with_positive_weights(alpha, m):
    # every Gauss rule of a discrete measure (the rungs from 24 nodes, and
    # the measure's rules at 44, 48 and 64 nodes) against the measure's own
    # sum of e^(-c s), c = 5..50, with positive weights, though the masses
    # of omega(1.5, 12) underflow to 0 at its 28 atoms nearest s = 1
    rungs, measure = _measure(alpha, m)
    atoms, masses = measure.nodes, measure.weights
    rules = [(r.nodes, r.weights) for r in rungs if r.nodes.shape[0] >= 24]
    rules += [_gauss_rule(measure, n) for n in (44, 48, 64)]
    for nodes, weights in rules:
        assert np.all(weights > 0.0), weights.shape[0]
        for c in range(5, 51):
            want = math.fsum((masses * np.exp(-c * atoms)).tolist())
            got = math.fsum((weights * np.exp(-c * nodes)).tolist())
            assert abs(got - want) <= 3e-15 * abs(want), (nodes.shape[0], c)


@pytest.mark.parametrize("family", [KernelFamily("dirichlet"),
                                    KernelFamily("gen_bergman_dirichlet", (0.5, 2))],
                         ids=["dirichlet", "gen_bergman_dirichlet"])
def test_circle_maps_integrate_on_the_sized_rung(family, monkeypatch):
    # the transforms suite's |z| = 0.75 circle takes the 24-node rung, though
    # circle_points reaches |z| = 0.75 + 1.1e-16; a call with some |z| > 0.9
    # takes the whole measure, the plain one's 620 atoms or omega's 316
    sizes = []
    inner = kernels._dirichlet_type_kernel
    monkeypatch.setattr(kernels, "_dirichlet_type_kernel",
                        lambda alpha, m, z, x, s, w: sizes.append(s.shape[0])
                        or inner(alpha, m, z, x, s, w))
    transforms._circle_map.cache_clear()
    transforms._circle_map(family, 120, 256, 0.75)
    assert sizes == [24]
    sizes.clear()
    kernel_matrix(family, np.array([0.2, 0.91j]), np.array([1.0, 30.0]))
    kernel_matrix(family, np.array([0.2, 0.9j]), np.array([1.0, 30.0]))
    atoms = 620 if family.kind == "dirichlet" else 316
    assert sizes == [atoms, kernels._T_RULE_LADDER[-1][1]]


def test_kernel_matrix_strategies():
    fam = KernelFamily("second", (1.5,))
    z = np.array([0.2 + 0.1j, -0.3j])
    x = np.array([0.5, 2.0])
    primary = kernel_matrix(fam, z, x)
    series = kernel_matrix(fam, z, x, strategy="series")
    assert primary.shape == (2, 2)
    assert np.max(np.abs(primary - series)) < 1e-10
    with pytest.raises(ValueError):
        kernel_matrix(fam, z, x, strategy="monte_carlo")
    # the routes have two names only; a primary route's kind is not one
    for family in kernels.FAMILIES:
        params = {"second": (1.5,), "generalized_second": (3.0, 2),
                  "gen_bergman_dirichlet": (0.5, 2)}.get(family, ())
        for name in ("closed", "integral"):
            with pytest.raises(ValueError):
                kernel_matrix(KernelFamily(family, params), z, x, strategy=name)


# ---------------------------------------------------------------------------
# the plain Dirichlet t-integral against its u-trapezoid and against an
# mpmath quadrature
# ---------------------------------------------------------------------------

def _dirichlet_u_trapezoid(z, x, h=0.01, umax=6.2):
    """K(z[:, None], x[None, :]) with the t-integral on the trapezoid in
    u = sqrt(t), formed here: masses 2 h u^2 e^(-u^2) at u = h, 2h, ..."""
    u = np.arange(1, int(round(umax / h)) + 1) * h
    v = z[:, None, None] * np.exp(-u * u)
    xx = x[None, :, None]
    g = (1.0 - v) ** -2.0 * np.exp(-xx * v / (1.0 - v)) * (1.0 - xx / (1.0 - v))
    integral = g @ (2.0 * h * u * u * np.exp(-u * u))
    return (1.0 + z[:, None] * integral / np.exp(gammaln(1.5))) / np.sqrt(np.pi)


def test_dirichlet_kernel_matches_mpmath_quadrature():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
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
    assert kernels._default_t_rule().nodes.shape[0] == 620


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


@pytest.mark.parametrize("evaluate", [
    lambda z, x: dirichlet_kernel(z, x),
    lambda z, x: gen_dirichlet_kernel(0.5, 2, z, x, weight=W_HALF),
], ids=["dirichlet", "gen_bergman_dirichlet"])
def test_blocked_kernels_equal_one_whole_evaluation(evaluate, monkeypatch):
    rng = np.random.default_rng(19)
    z = _disk_points(150, 0.95, seed=19)
    x = rng.uniform(0.0, 30.0, 150)
    shapes = [
        (z[:7, None], x[None, :]),              # kernel_matrix's layout
        (z, 1.7),                               # 1-D z, scalar x
        (0.8 - 0.5j, x),                        # scalar z past the last rung, 1-D x
        (z[:120].reshape(3, 40), x[:40]),       # a 2-D broadcast, not a matrix
        (np.asarray(0.6 + 0.3j), np.asarray(2.5)),
    ]
    blocked = kernels._blocked
    calls = {"factors": 0, "block": 0}

    def counting(z, x, nt, factors, block):
        def count(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted
        return blocked(z, x, nt, count("factors", factors), count("block", block))

    monkeypatch.setattr(kernels, "_blocked", counting)
    for k, (zz, xx) in enumerate(shapes):
        calls.update(factors=0, block=0)
        tiled = evaluate(zz, xx)
        if k == 0:   # more than one tile along z, and along x
            assert 1 < calls["factors"] < calls["block"]
        else:
            assert calls["block"] > 1 or np.size(tiled) == 1, np.shape(tiled)
        with monkeypatch.context() as whole:
            whole.setattr(kernels, "_BLOCK_ENTRIES", 1 << 40)
            calls.update(factors=0, block=0)
            want = evaluate(zz, xx)
            assert calls["block"] == 1
        assert np.array_equal(tiled, want), np.shape(tiled)


@pytest.mark.parametrize("family", [KernelFamily("dirichlet"),
                                    KernelFamily("gen_bergman_dirichlet", (0.5, 2))],
                         ids=["dirichlet", "gen_bergman_dirichlet"])
def test_kernel_matrix_scratch_stays_small(family):
    # a circle of 129 z against 120 source nodes: evaluated whole, the
    # t-integral would need ~17 MB of temporaries on the 24-node rung
    z = 0.75 * np.exp(2j * np.pi * np.arange(129) / 256)
    x = make_transform(family.kind, *family.params).source_rule.nodes
    kernel_matrix(family, z, x)   # the cached rule and weight first
    tracemalloc.start()
    try:
        kernel_matrix(family, z, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, peak


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
                       lambda z, x: gen_dirichlet_kernel(0.5, 2, z, x, weight=W_HALF)):
            with pytest.raises(ValueError):
                kernel(0.3, bad)
    with pytest.raises(ValueError):
        dirichlet_kernel(0.3, 0.5, rule=gauss_halfline(40, 0.0))  # wrong measure
    # plane points: NaN and inf would flow through as NaN
    classical = make_transform("classical", source_order=12)
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
                 lambda: gen_dirichlet_kernel(0.5, 2.5, 0.3, 0.5, weight=W_HALF),
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
    for bad in ({"alpha": np.nan}, {"alpha": np.inf}):
        with pytest.raises(ValueError):
            omega(**{"alpha": 0.5, "m": 2, **bad})


@pytest.mark.parametrize("call", [
    pytest.param(lambda: omega_laplace_closed(np.nan, 2, 0.0), id="closed-alpha-nan"),
    pytest.param(lambda: omega_laplace_closed(-1.5, 2, 0.0), id="closed-alpha-low"),
    pytest.param(lambda: omega_laplace_closed(np.inf, 2, 0.0), id="closed-alpha-inf"),
    pytest.param(lambda: omega_laplace_closed(0.5, 2.5, 0.0), id="closed-m-fraction"),
    pytest.param(lambda: omega_laplace_closed(0.5, 1, 0.0), id="closed-m-low"),
    pytest.param(lambda: omega_laplace_closed(0.5, 2, np.nan), id="closed-j-nan"),
    pytest.param(lambda: omega_laplace_closed(0.5, 2, np.inf), id="closed-j-inf"),
    pytest.param(lambda: omega_laplace_closed(0.5, 2, -1.0), id="closed-j-negative"),
    pytest.param(lambda: omega_laplace(W_HALF, np.nan), id="rule-j-nan"),
    pytest.param(lambda: omega_laplace(W_HALF, np.inf), id="rule-j-inf"),
    pytest.param(lambda: omega_laplace(W_HALF, -1.0), id="rule-j-negative"),
    pytest.param(lambda: omega(0.5, np.nan), id="omega-m-nan"),
])
def test_omega_entry_points_refuse_what_omega_refuses(call):
    # finite alpha > -1, integral m >= 2 and finite j >= 0, or ValueError
    with pytest.raises(ValueError):
        call()


def _check_omega_against_mpmath(pairs):
    # the samples against mpmath's Laplace inversion of the Gamma-product
    # transform (written out here, not read from the library), at the atoms
    # nearest t = 0.01 ... 40; at t = 0.01 and 0.1 omega ~ t^(2m-3/2) is tiny
    # and the contour sum cancels
    mp = pytest.importorskip("mpmath")
    h = kernels._OMEGA_U_STEP
    k = np.rint(np.sqrt([0.01, 0.1, 0.5, 2.0, 5.0, 10.0, 20.0, 40.0]) / h).astype(int)
    with mp.workdps(30), warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        for alpha, m in pairs:
            def transform(p):
                out = mp.gamma(1.5) ** m * mp.gamma(0.5) ** (m - 1)
                for b in range(1, m + 1):
                    out /= (p + b) ** 1.5
                for b in range(2, m + 1):
                    out /= mp.sqrt(p + alpha + b)
                return out

            weight = omega(alpha, m)
            for kk in k:
                t = (kk * h) ** 2
                want = float(mp.invertlaplace(transform, t, method="talbot"))
                err = abs(weight.values[kk - 1] - want)
                assert err <= 1e-13 * weight.values.max(), (alpha, m, t, err)
            for j in range(6):
                want = float(transform(j))
                assert abs(omega_laplace(weight, j) - want) <= 1e-11 * want, (alpha, m, j)
                closed = omega_laplace_closed(alpha, m, j)
                assert type(closed) is float and abs(closed - want) <= 1e-14 * want, (alpha, m, j)


def test_omega_meets_mpmath_inversion():
    # the point-queries pairs m = 2, 3, 4 at four alpha, and orders past them
    _check_omega_against_mpmath(
        [(alpha, m) for m in (2, 3, 4) for alpha in (0.0, 0.5, 1.5, 3.0)]
        + [(3.0, 8), (0.0, 10), (0.5, 10), (0.5, 6)])


def test_omega_at_order_12_meets_mpmath_inversion():
    # on a 36-node contour omega(1.5, 12) was up to 2.6e-13 of max omega off
    # at t ~ 1-2, and omega_laplace_closed, then a log-sum, 1.7e-14 relative
    # at j = 2
    _check_omega_against_mpmath([(1.5, 11), (1.5, 12)])


@pytest.mark.parametrize("alpha, m", [(0.5, 2), (3.0, 4), (1.5, 12)])
def test_omega_build_memory_does_not_grow_with_m(alpha, m):
    # the Talbot sum holds a few (316, 19) float64 arrays (~48 KB each) and
    # no (2m - 1)-deep stack of them
    omega(alpha, m)
    tracemalloc.start()
    try:
        omega(alpha, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024, peak


def test_omega_grid_and_thinning():
    # the atoms t_k = (k h_u)^2, h_u = 0.02, k = 1..316 (t <= 40)
    assert_allclose(kernels._OMEGA_T, (0.02 * np.arange(1, 317)) ** 2, rtol=1e-15)
    assert kernels._OMEGA_T[-1] <= 40.0 < (0.02 * 317) ** 2
    w = omega(0.0, 2)
    assert w.values.shape == (316,)
    assert np.all(w.values >= 0.0)
    assert w.values[0] > 0.0
    assert w.measure.nodes.shape == (316,) and w.measure.meta == {"h_u": 0.02}


def test_omega_small_t_power_law():
    # Near t = 0 the weight behaves as C_m t^(2m - 3/2) e^(-t) (1 + O(t)) with
    # C_m = Gamma(3/2)^m Gamma(1/2)^(m-1) / Gamma(2m - 1/2): the chain of
    # Beta integrals collapses at the origin where every factor is a pure
    # power.  At the first atoms t = h_u^2, (2 h_u)^2 the O(t) profile drift
    # is all that is left, so the deviation must shrink linearly with t.
    for m in (2, 3):
        c = np.exp(m * gammaln(1.5) + (m - 1) * gammaln(0.5) - gammaln(2 * m - 0.5))
        w = omega(0.0, m)
        for k in (0, 1):
            t = kernels._OMEGA_T[k]
            want = c * t ** (2 * m - 1.5) * np.exp(-t)
            assert abs(w.values[k] - want) / want < 2.0 * t


def test_omega_laplace_identity():
    # int_0^inf omega(t) e^(-(1+j) t) dt has a Gamma-product closed form;
    # the numeric side takes the moments of the weight's discrete measure.
    for m in (2, 3):
        for alpha in (0.0, 1.5):
            w = omega(alpha, m)
            for j in range(4):
                got = omega_laplace(w, j)
                want = omega_laplace_closed(alpha, m, j)
                assert abs(got - want) / want < 1e-8


def test_omega_laplace_closed_is_positive_decreasing():
    vals = [omega_laplace_closed(0.5, 2, j) for j in range(8)]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("j", [1e30, 1e206, 1e300])
@pytest.mark.parametrize("m", [2, 12])
def test_omega_laplace_closed_underflows_at_large_rates(m, j):
    # every finite rate is accepted; (j + b)^(3/2) as a float ** overflows
    # past j ~ 3e205 and raises, where the transform is simply below the
    # smallest double
    closed = omega_laplace_closed(0.5, m, j)
    assert type(closed) is float
    want = math.gamma(1.5) ** m * math.gamma(0.5) ** (m - 1) * math.exp(
        -1.5 * m * math.log(j) - 0.5 * (m - 1) * math.log(j))
    assert closed == pytest.approx(want, rel=1e-12, abs=0.0) if want > 1e-290 else closed == 0.0


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


def test_closed_gen_dirichlet_kernel_meets_mpmath_or_raises():
    # 600 terms of its 3F2 series: the tail bound admits |u| = 0.9 and 0.96,
    # u = z conj(w), and refuses 0.99 and 0.999, where the sum was 6.2e-5
    # and 5.7e-2 off at (0, 1)
    mp = pytest.importorskip("mpmath")

    def oracle(alpha, m, u):
        with mp.workdps(40):
            u = mp.mpc(u)
            head = sum(mp.rf(alpha + 2, j) / mp.factorial(j) * u**j for j in range(m))
            tail = u**m * mp.hyp3f2(1, 1, alpha + 2, m + 1, m + 1, u) / mp.factorial(m) ** 2
            return complex((alpha + 1) / mp.pi * (head + tail))

    for alpha, m in ((0.0, 1), (0.5, 2)):
        for r in (0.9, 0.96):
            for angle in (0.0, 1.0):
                z, w = np.sqrt(r) * np.exp(1j * angle), complex(np.sqrt(r))
                got = reproducing_kernel(gen_dirichlet(alpha, m), z, w)
                want = oracle(alpha, m, z * np.conj(w))
                assert abs(got - want) <= 1e-12 * abs(want), (alpha, m, r, angle)
    for r in (0.99, 0.999):
        with pytest.raises(ValueError, match="3F2"):
            reproducing_kernel(gen_dirichlet(0.0, 1), np.sqrt(r), np.sqrt(r))
        with pytest.raises(ValueError, match="3F2"):   # one bad point of many
            reproducing_kernel(gen_dirichlet(0.0, 1), np.array([0.5, np.sqrt(r)]),
                               np.sqrt(r))


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
