"""Quadrature rules against Gamma-function moments, scipy's Golub-Welsch
routines, and a couple of non-polynomial integrals with known values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, roots_genlaguerre, roots_hermite

from bargmann import (
    disk_rule,
    gauss_halfline,
    gauss_line,
    gaussian_plane_rule,
)


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
    # int_C z^a conj(z)^b e^(-|z|^2) dA = pi a! delta_ab
    rule = gaussian_plane_rule(12)
    for a in range(6):
        for b in range(6):
            moment = np.sum(rule.weights * rule.nodes**a * np.conj(rule.nodes) ** b)
            if a == b:
                want = np.pi * np.exp(gammaln(a + 1.0))
                assert_allclose(moment, want, rtol=1e-12)
            else:
                assert abs(moment) < 1e-12


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
                 gaussian_plane_rule(20)):
        assert np.all(rule.weights > 0.0)


def test_validation():
    with pytest.raises(ValueError):
        gauss_line(0)
    with pytest.raises(ValueError):
        gauss_halfline(4, -1.0)
    with pytest.raises(ValueError):
        disk_rule(4, 8, -1.5)
    with pytest.raises(ValueError):
        gaussian_plane_rule(0)
    # NaN compares false against "alpha <= -1"-style checks
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha"):
            gauss_halfline(4, bad)
        with pytest.raises(ValueError, match="gamma"):
            disk_rule(4, 8, bad)


def test_total_mass():
    rule = disk_rule(16, 32, 0.0)
    # area of the unit disk
    assert_allclose(np.sum(rule.weights), np.pi, rtol=1e-13)
    rule = gaussian_plane_rule(16)
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


def _newton_polish_per_node(nodes, diag, b):
    """The plain per-node Newton loop, rescaling on every step; the stacked
    recurrence of ``_newton_polish`` must agree with it to the last bit."""
    x = nodes.copy()
    n = len(diag)
    peak = 0.0
    for _ in range(3):
        p_prev, p = np.zeros_like(x), np.ones_like(x)
        d_prev, d = np.zeros_like(x), np.zeros_like(x)
        for k in range(n):
            p_next = ((x - diag[k]) * p - (b[k - 1] * p_prev if k else 0.0)) / b[k]
            d_next = (p + (x - diag[k]) * d - (b[k - 1] * d_prev if k else 0.0)) / b[k]
            peak = max(peak, float(np.max(np.abs(p_next))))
            rescale = np.where(np.abs(p_next) > 1e120, 1e-120, 1.0)
            p_prev, p = p * rescale, p_next * rescale
            d_prev, d = d * rescale, d_next * rescale
        x = x - p / d
    return x, peak


@pytest.mark.parametrize("n, alpha", [(2, None), (25, None), (300, None), (4, 0.0),
                                      (64, 0.5), (120, 2.5), (150, 0.0), (400, 0.5)])
def test_newton_polish_matches_the_per_node_loop(n, alpha):
    from scipy.linalg import eigh_tridiagonal

    from bargmann.quadrature import _newton_polish

    if alpha is None:  # Gauss-Hermite
        diag, b = np.zeros(n), np.sqrt(np.arange(1, n + 1) / 2.0)
    else:
        k = np.arange(n, dtype=float)
        j = k + 1.0
        diag, b = 2.0 * k + alpha + 1.0, np.sqrt(j * (j + alpha))
    nodes = eigh_tridiagonal(diag, b[:-1], eigvals_only=True)
    want, peak = _newton_polish_per_node(nodes, diag, b)
    assert np.array_equal(_newton_polish(nodes, diag, b), want)
    # the largest orders reach the rescale branch; at n = 400 the values
    # would overflow without it
    assert (peak > 1e120) == (n >= 150)
