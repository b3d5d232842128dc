"""Quadrature rules against Gamma-function moments, scipy's Gauss rules,
40-digit mpmath nodes and weights, and a couple of non-polynomial integrals
with known values."""

import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, roots_genlaguerre, roots_hermite

from bargmann import (
    disk_rule,
    gauss_halfline,
    gauss_line,
    gaussian_plane_rule,
    kernels,
    make_transform,
    omega,
)
from bargmann.quadrature import _gauss_jacobi01, _laguerre_rule, _newton_christoffel


def test_line_rule_matches_scipy():
    nodes, weights = roots_hermite(25)
    rule = gauss_line(25)
    assert_allclose(np.sort(rule.nodes.real), np.sort(nodes), atol=1e-13)
    assert_allclose(np.sort(rule.weights), np.sort(weights), rtol=1e-13)


def test_halfline_rule_matches_scipy():
    for alpha in (0.0, 0.5, 2.5):
        nodes, weights = roots_genlaguerre(25, alpha)
        rule = gauss_halfline(25, alpha)
        assert_allclose(np.sort(rule.nodes.real), np.sort(nodes), rtol=1e-12)
        assert_allclose(np.sort(rule.weights), np.sort(weights), rtol=1e-11)


def test_line_moments():
    # int x^(2k) e^(-x^2) dx = Gamma(k + 1/2); odd moments vanish.
    for n in (4, 16, 64):
        rule = gauss_line(n)
        for k in range(n):  # exact through degree 2n-1
            moment = np.sum(rule.weights * rule.nodes.real**k)
            if k % 2:
                # odd moments cancel; judge the residue against the unsigned sum
                scale = np.sum(rule.weights * np.abs(rule.nodes.real) ** k)
                assert abs(moment) < 1e-13 * scale
            else:
                want = np.exp(gammaln((k + 1.0) / 2.0))
                assert_allclose(moment, want, rtol=1e-12)


def test_halfline_moments():
    # int x^(k+alpha) e^(-x) dx = Gamma(k + alpha + 1)
    for alpha in (0.0, 0.5, 1.5):
        for n in (4, 16, 64):
            rule = gauss_halfline(n, alpha)
            for k in range(2 * n):
                moment = np.sum(rule.weights * rule.nodes.real**k)
                want = np.exp(gammaln(k + alpha + 1.0))
                assert_allclose(moment, want, rtol=1e-11)


def test_plane_monomial_moments():
    # int_C z^a conj(z)^b e^(-|z|^2) dA = pi a! delta_ab.  The polar rule,
    # Gauss-Laguerre in u = |z|^2 times the n_theta-point trapezoid, is exact
    # for a = b through 2 n_r - 1 and annihilates a != b for |a - b| < n_theta,
    # and no further
    n_r, n_theta = 6, 8
    rule = gaussian_plane_rule(n_r, n_theta)
    assert_allclose(rule.nodes[::n_theta].real ** 2, gauss_halfline(n_r, 0.0).nodes,
                    rtol=1e-15)

    def moment(a, b):
        return np.sum(rule.weights * rule.nodes**a * np.conj(rule.nodes) ** b)

    def scale(a, b):
        return np.pi * np.exp(0.5 * (gammaln(a + 1.0) + gammaln(b + 1.0)))

    for a in range(2 * n_r):
        assert_allclose(moment(a, a), scale(a, a), rtol=1e-12)
        for b in range(2 * n_r + n_theta):
            if 0 < abs(a - b) < n_theta:
                assert abs(moment(a, b)) < 1e-13 * scale(a, b), (a, b)
    assert abs(moment(2 * n_r, 2 * n_r) / scale(2 * n_r, 2 * n_r) - 1.0) > 1e-3
    assert abs(moment(n_theta, 0)) > 1e-3 * scale(n_theta, 0)


def test_disk_monomial_norms():
    # int_D |z|^(2j) (1-|z|^2)^gamma dA = pi B(j+1, gamma+1)
    #                                   = pi j! Gamma(gamma+1) / Gamma(j+gamma+2)
    for gamma in (0.0, 0.5, 2.0):
        rule = disk_rule(20, 48, gamma)
        for j in range(8):
            moment = np.sum(rule.weights * np.abs(rule.nodes) ** (2 * j))
            want = np.pi * np.exp(
                gammaln(j + 1.0) + gammaln(gamma + 1.0) - gammaln(j + gamma + 2.0)
            )
            assert_allclose(moment, want, rtol=1e-12)


def test_disk_off_diagonal_moments_vanish():
    rule = disk_rule(12, 32, 1.5)
    for a, b in ((1, 0), (2, 1), (5, 2)):
        moment = np.sum(rule.weights * rule.nodes**a * np.conj(rule.nodes) ** b)
        assert abs(moment) < 1e-14


def test_halfline_on_exponential():
    # Non-polynomial check: int_0^inf e^(-x/2) e^(-x) dx = 2/3.
    rule = gauss_halfline(40, 0.0)
    value = rule.weights @ np.exp(-0.5 * rule.nodes)
    assert_allclose(value, 2.0 / 3.0, rtol=1e-13)


def test_line_on_shifted_gaussian():
    # int e^(-x^2) e^x dx = sqrt(pi) e^(1/4)
    rule = gauss_line(40)
    value = rule.weights @ np.exp(rule.nodes)
    assert_allclose(value, np.sqrt(np.pi) * np.exp(0.25), rtol=1e-13)


def test_single_node_rules():
    rule = gauss_halfline(1, 0.0)
    assert_allclose(rule.nodes.real, [1.0])
    assert_allclose(rule.weights, [1.0])
    rule = gauss_line(1)
    assert_allclose(rule.nodes.real, [0.0], atol=1e-15)
    assert_allclose(rule.weights, [np.sqrt(np.pi)])


def test_positive_weights():
    for rule in (gauss_line(64), gauss_halfline(64, 0.5), disk_rule(30, 64, 1.0),
                 gaussian_plane_rule(20, 32)):
        assert np.all(rule.weights > 0.0)


def test_validation():
    with pytest.raises(ValueError):
        gauss_line(0)
    with pytest.raises(ValueError):
        gauss_halfline(4, -1.0)
    with pytest.raises(ValueError):
        disk_rule(4, 8, -1.5)
    for orders in ((0, 8), (4, 0)):
        with pytest.raises(ValueError):
            gaussian_plane_rule(*orders)
    # NaN compares false against "alpha <= -1"-style checks
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha"):
            gauss_halfline(4, bad)
        with pytest.raises(ValueError, match="gamma"):
            disk_rule(4, 8, bad)


def _second_target(*orders):
    return make_transform("second", 1.5, source_order=12, disk_orders=orders)


# an order is an integer: 2.5 was rounded up to 3 nodes (and labelled n=2.5),
# or raised TypeError from numpy; a target order only failed on first read
@pytest.mark.parametrize("build, bad, good", [
    (gauss_line, (2.5,), (2.0,)),
    (gauss_halfline, (3.5, 0.0), (3.0, 0.0)),
    (disk_rule, (2.5, 8, 0.0), (2.0, 8, 0.0)),
    (disk_rule, (3, 4.5, 0.0), (3, 4.0, 0.0)),
    (gaussian_plane_rule, (2.5, 8), (2.0, 8)),
    (gaussian_plane_rule, (3, 4.5), (3, 4.0)),
    (_second_target, (2.5, None), (2.0, None)),
    (_second_target, (None, 4.5), (None, 4.0)),
    (_second_target, (np.nan, None), (np.int64(2), None)),
])
def test_non_integral_orders_raise(build, bad, good):
    with pytest.raises(ValueError, match="integer"):
        build(*bad)
    built = build(*good)
    meta = built.meta if build is not _second_target else built.target.meta
    assert all(type(v) is int for k, v in meta.items() if k.startswith("n"))


def test_total_mass():
    rule = disk_rule(16, 32, 0.0)
    # area of the unit disk
    assert_allclose(np.sum(rule.weights), np.pi, rtol=1e-13)
    rule = gaussian_plane_rule(16, 32)
    assert_allclose(np.sum(rule.weights), np.pi, rtol=1e-13)


def test_one_dimensional_rules_are_cached_and_read_only():
    from bargmann.quadrature import _gauss_jacobi01

    for build, args in ((gauss_line, (24,)), (gauss_line, (1,)),
                        (gauss_halfline, (24, 0.5)), (gauss_halfline, (1, 2.0))):
        rule = build(*args)
        again = build(*args)
        assert again.nodes is rule.nodes and again.weights is rule.weights
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 1.0
    u, wu = _gauss_jacobi01(12, -0.5)
    assert _gauss_jacobi01(12, -0.5)[0] is u
    with pytest.raises(ValueError):
        wu *= 2.0
    # the disk rule is built afresh, from the shared radial rule
    a, b = disk_rule(12, 16, -0.5), disk_rule(12, 16, -0.5)
    assert a.nodes is not b.nodes
    assert_allclose(a.nodes[::16].real ** 2, u, rtol=1e-15)
    # failed builds are not cached: invalid orders and parameters still raise
    for _ in range(2):
        with pytest.raises(ValueError):
            gauss_line(0)
        with pytest.raises(ValueError):
            gauss_halfline(0, 0.5)
        with pytest.raises(ValueError):
            gauss_halfline(4, -1.0)


def _log_moment_error(rule, alpha, degrees):
    """Worst relative error of the moments int x^(alpha+k) exp(-x) dx (half
    line) or int x^k exp(-x^2) dx (line, k even), summed in log form: at
    these orders the moments and the far weights leave float64's range."""
    logw = np.log(rule.weights)
    logx = np.log(np.abs(rule.nodes))
    worst = 0.0
    for k in degrees:
        terms = logw + k * logx
        top = np.max(terms)
        logq = top + np.log(np.sum(np.exp(terms - top)))
        exact = gammaln((k + 1.0) / 2.0) if alpha is None else gammaln(k + alpha + 1.0)
        worst = max(worst, abs(np.expm1(logq - exact)))
    return worst


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.5])
def test_halfline_moments_past_the_recurrence_rescale(alpha):
    # at n = 150 the recurrence values pass 1e120, so the node polish and
    # the weights take their rescaled steps
    n = 150
    assert _log_moment_error(gauss_halfline(n, alpha), alpha, range(2 * n)) < 1e-11


def test_line_moments_past_the_recurrence_rescale():
    n = 300
    assert _log_moment_error(gauss_line(n), None, range(0, 2 * n - 1, 2)) < 1e-11


# ---------------------------------------------------------------------------
# nodes and weights against 40-digit references
# ---------------------------------------------------------------------------

# the weights come from a long-double step; where long double is plain
# double they keep float64's error (quadrature._gauss_jacobi01)
_EXTENDED = np.finfo(np.longdouble).eps < 1e-18
_NODE_BOUND = 1e-14
_WEIGHT_BOUND = 1e-14 if _EXTENDED else 1e-11


def _mp_rule(recurrence, mu0, start, picks):
    """40-digit nodes and weights near ``start[i]`` for i in ``picks``: two
    Newton steps on the orthonormal recurrence p_(k+1) = ((x - a_k) p_k -
    b_(k-1) p_(k-1)) / b_k, (a_k, b_k) = recurrence(k), and the Christoffel
    number 1 / sum_(k<n) p_k(x)^2 at the first step's node."""
    mp = pytest.importorskip("mpmath")
    n = len(start)
    with mp.workdps(40):
        coeffs = [recurrence(mp, k) for k in range(n)]
        out = {}
        for i in picks:
            x = mp.mpf(float(start[i]))
            for _ in range(2):
                p_prev, p, d_prev, d = 0, 1 / mp.sqrt(mu0(mp)), 0, 0
                total = p * p
                for k, (a, b) in enumerate(coeffs):
                    b_prev = coeffs[k - 1][1] if k else 0
                    p_prev, p, d_prev, d = (p, ((x - a) * p - b_prev * p_prev) / b,
                                            d, (p + (x - a) * d - b_prev * d_prev) / b)
                    if k < n - 1:
                        total += p * p
                x, weight = x - p / d, 1 / total
            out[i] = (x, weight)
        return out


def _picks(n):
    """Every node of a small rule; else the four smallest, the four largest
    and four between, where the errors of each route concentrate."""
    if n <= 16:
        return range(n)
    return sorted({*range(4), *range(n - 4, n), *range(n // 5, n, n // 5)})


def _worst(nodes, weights, reference):
    """Largest relative node and weight errors; weights below float64's
    normal range (the far nodes of large half-line rules) are left out."""
    node = max(abs(float(nodes[i]) - x) / abs(x) for i, (x, _) in reference.items())
    weight = max(abs(float(weights[i]) - w) / w
                 for i, (_, w) in reference.items() if w > 1e-290)
    return float(node), float(weight)


@pytest.mark.parametrize("n", [12, 120, 200, 300])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.37, 2.5])
def test_halfline_rule_meets_mpmath(n, alpha):
    rule = gauss_halfline(n, alpha)

    def recurrence(mp, k):
        a = mp.mpf(alpha)
        return 2 * k + a + 1, mp.sqrt((k + 1) * (k + 1 + a))

    reference = _mp_rule(recurrence, lambda mp: mp.gamma(mp.mpf(alpha) + 1),
                         rule.nodes, _picks(n))
    node, weight = _worst(rule.nodes, rule.weights, reference)
    assert node <= _NODE_BOUND and weight <= _WEIGHT_BOUND, (node, weight)


@pytest.mark.parametrize("alpha", [29.0, 120.5, 170.5])
def test_halfline_total_mass_at_large_alpha(alpha):
    # every weight carries the mass Gamma(alpha + 1); a float64 log Gamma of
    # ~700 would put 1e-13 on all of them
    mp = pytest.importorskip("mpmath")
    weights = gauss_halfline(40, alpha).weights
    with mp.workdps(30):
        assert abs(math.fsum(weights) / mp.gamma(mp.mpf(alpha) + 1) - 1) <= 2e-15
    with pytest.raises(ValueError, match="alpha"):
        gauss_halfline(4, 171.0)        # Gamma(172) overflows float64


def test_non_finite_weights_are_refused(monkeypatch):
    # where np.longdouble is float64 (emulated here), the Christoffel sums of
    # the 40-point rule at alpha = 170.5 overflow and every weight comes out
    # NaN or inf: the build raises rather than return them
    monkeypatch.setattr(np, "longdouble", np.float64)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="40-point Gauss-Laguerre rule at alpha = 170.5"):
            gauss_halfline.__wrapped__(40, 170.5)


def test_underflowed_weights_are_kept():
    # the far weights of a large half-line rule underflow to zero, which is
    # what they are in float64, not a lost value
    weights = gauss_halfline(480, 0.0).weights
    assert np.all(weights >= 0.0) and np.count_nonzero(weights == 0.0) > 0


def _traced_peak(build):
    """Peak traced allocation of a second call of ``build``."""
    build()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build, bound", [
    # the dense 300 x 300 bidiagonal for the SVD (720 KB) is what is left
    pytest.param(partial(_laguerre_rule, 300, 0.37), 1024 * 1024, id="laguerre-300"),
    pytest.param(partial(_gauss_jacobi01.__wrapped__, 60, 0.7), 128 * 1024, id="jacobi-60"),
    pytest.param(partial(kernels._gauss_ladder, omega(0.5, 2).measure), 128 * 1024,
                 id="omega-ladder"),
])
def test_rule_builds_hold_no_table_of_every_order(build, bound):
    # the Newton-Christoffel step keeps three recurrence rows and running
    # sums, O(m) long doubles; a table of p_k for every k was 5.9 MB at
    # n = 300, 353 KB for the Jacobi rule and 588 KB for a ladder
    peak = _traced_peak(build)
    assert peak <= bound, peak


def _table_newton_christoffel(x, diag, b, p0, orders=None):
    """The Newton-Christoffel step as a table of (p_k, p_k') for every k,
    summed along k: the reference the running sums must reproduce."""
    n, m = diag.shape[0], x.shape[0]
    orders = np.full(m, n) if orders is None else orders
    inv_b = 1.0 / b
    vals = np.zeros((n + 1, 2, m), dtype=x.dtype)
    vals[0, 0] = p0
    for k in range(n):
        vals[k + 1] = (x - diag[k]) * vals[k]
        vals[k + 1, 1] += vals[k, 0]
        if k:
            vals[k + 1] -= vals[k - 1] * b[k - 1]
        vals[k + 1] *= inv_b[k]
    last = vals[orders, :, np.arange(m)].T
    p, dp = np.where(np.arange(n)[:, None, None] < orders, vals[:n], 0.0).transpose(1, 0, 2)
    step = -last[0] / last[1]
    s = (p * p).sum(axis=0)
    return x + step, np.exp(-2.0 * step * (p * dp).sum(axis=0) / s) / s


def _laguerre_recurrence(n, alpha):
    ld = np.longdouble
    k = np.arange(n, dtype=ld)
    return 2.0 * k + ld(alpha) + 1.0, np.sqrt((k + 1.0) * (k + 1.0 + ld(alpha)))


@pytest.mark.parametrize("orders", [(1,), (2,), (16,), (120,), (200,), (16, 24, 32, 40)],
                         ids=["n1", "n2", "n16", "n120", "n200", "ladder-orders"])
def test_running_sums_are_the_table_bit_for_bit(orders):
    # nodes and weights of the O(m) step equal, to the last bit of long
    # double, those of the table of every p_k, for one order and for the
    # ladder's stacked orders
    ld, alpha = np.longdouble, 0.37
    diag, off = _laguerre_recurrence(orders[-1], alpha)
    x = np.concatenate([gauss_halfline(n, alpha).nodes for n in orders]).astype(ld)
    p0 = np.exp(-0.5 * x) / np.sqrt(ld(math.gamma(alpha + 1.0)))
    per_node = None if len(orders) == 1 else np.repeat(orders, orders)
    args = (x, diag, off, p0, per_node)
    for got, want in zip(_newton_christoffel(*args), _table_newton_christoffel(*args)):
        assert np.array_equal(got, want)


def test_stacked_orders_are_each_order_alone():
    # one call on blocks of orders 1, 3, 3 and 7 (a Laguerre recurrence, one
    # p_0 per node): each block's nodes and weights are, bit for bit, those
    # of a call on that block alone
    ld, alpha = np.longdouble, 0.37
    diag, off = _laguerre_recurrence(7, alpha)
    orders = (1, 3, 3, 7)
    blocks = [gauss_halfline(n, alpha).nodes.astype(ld) * (1.0 + ld(1e-9) * (i + 1))
              for i, n in enumerate(orders)]

    def p0(x):
        return np.exp(-0.5 * x) / np.sqrt(ld(math.gamma(alpha + 1.0)))

    x = np.concatenate(blocks)
    stacked = _newton_christoffel(x, diag, off, p0(x), np.repeat(orders, orders))
    at = 0
    for n, block in zip(orders, blocks):
        alone = _newton_christoffel(block, diag[:n], off[:n], p0(block))
        for got, want in zip(stacked, alone):
            assert np.array_equal(got[at:at + n], want), n
        at += n


@pytest.mark.parametrize("n", [2, 3, 60, 61])
def test_line_rule_meets_mpmath(n):
    rule = gauss_line(n)
    picks = [i for i in _picks(n) if i != n // 2 or n % 2 == 0]
    reference = _mp_rule(lambda mp, k: (0, mp.sqrt(mp.mpf(k + 1) / 2)),
                         lambda mp: mp.sqrt(mp.pi), rule.nodes, picks)
    node, weight = _worst(rule.nodes, rule.weights, reference)
    assert node <= _NODE_BOUND and weight <= _WEIGHT_BOUND, (node, weight)
    if n % 2:  # the center node is exactly 0; its weight is checked alone
        assert rule.nodes[n // 2] == 0.0
        zero = np.zeros(n)
        (_, center), = _mp_rule(lambda mp, k: (0, mp.sqrt(mp.mpf(k + 1) / 2)),
                                lambda mp: mp.sqrt(mp.pi), zero, [n // 2]).values()
        assert abs(rule.weights[n // 2] - float(center)) <= _WEIGHT_BOUND * float(center)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])


@pytest.mark.parametrize("n", [40, 80, 120])
@pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.0, 2.0])
def test_radial_jacobi_rule_meets_mpmath(n, gamma):
    from bargmann.quadrature import _gauss_jacobi01

    u, wu = _gauss_jacobi01(n, gamma)

    def recurrence(mp, k):
        # (1-u)^gamma du on [0, 1] through its chain sequence:
        # a_k = zeta_2k + zeta_(2k+1), b_k = sqrt(zeta_(2k+1) zeta_(2k+2))
        g = mp.mpf(gamma)

        def zeta(j):
            if j == 0:
                return 0
            if j % 2:
                i = (j - 1) // 2
                return (i + 1) * (i + g + 1) / ((2 * i + g + 1) * (2 * i + g + 2))
            i = j // 2
            return i * (i + g) / ((2 * i + g) * (2 * i + g + 1))

        return zeta(2 * k) + zeta(2 * k + 1), mp.sqrt(zeta(2 * k + 1) * zeta(2 * k + 2))

    reference = _mp_rule(recurrence, lambda mp: 1 / (mp.mpf(gamma) + 1), u, _picks(n))
    node, weight = _worst(u, wu, reference)
    assert node <= _NODE_BOUND and weight <= _WEIGHT_BOUND, (node, weight)
    # the four nodes at each end to the ulp: near u = 1, 1 - u is right to
    # its last bit with no factor of I - J (the largest read <= 0.50 ulp;
    # the smallest, at n = 120 and gamma = -0.9, 0.91)
    ends = [*range(4), *range(n - 4, n)]
    ulps = max(abs(float(u[i]) - reference[i][0]) / np.spacing(float(reference[i][0]))
               for i in ends)
    assert ulps <= 1.0, ulps
