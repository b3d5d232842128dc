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
    integrate,
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
    value = integrate(rule, lambda x: np.exp(-0.5 * x))
    assert_allclose(value, 2.0 / 3.0, rtol=1e-13)


def test_line_on_shifted_gaussian():
    # int e^(-x^2) e^x dx = sqrt(pi) e^(1/4)
    rule = gauss_line(40)
    value = integrate(rule, np.exp)
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
