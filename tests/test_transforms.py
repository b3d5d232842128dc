"""Transform operators: pairing, isometry, Gram orthonormality, inverses,
and the coefficient machinery they are built from.

The Dirichlet-type targets have no practical quadrature, so their inner
products go through the weighted Taylor coefficients; the structural tests
here pin the monomial weights and normalizers those routines rely on.
"""

import dataclasses
from functools import cache

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from bargmann import (
    CoefficientVector,
    bargmann_fock,
    basis_matrix,
    circle_points,
    dirichlet,
    forward,
    forward_gram,
    forward_map,
    gauss_halfline,
    gauss_line,
    gen_dirichlet,
    inverse_integral,
    isometry_norms,
    kernel_matrix,
    laguerre_l2,
    make_transform,
    monomial_normalizer,
    pairing_residuals,
    reverse_pairing_residual,
    round_trip_integral,
    round_trip_series,
    series_transform,
    target_coefficients,
    taylor_from_circle,
)
from bargmann import kernels
from bargmann.cli import main
from bargmann.transforms import _circle_taylor, _target_contract, _target_values

# Cheap operators for the structural tests: a degree-8 input only needs the
# source rule to integrate degree <= 23 exactly.
OPS = {
    "classical": make_transform("classical", source_order=24, plane_order=40,
                                series_truncation=24),
    "second": make_transform("second", 1.5, source_order=24,
                             disk_orders=(60, 128), series_truncation=24),
    "generalized_second": make_transform("generalized_second", 3.0, 2,
                                         source_order=24, disk_orders=(60, 128),
                                         series_truncation=24),
    "dirichlet": make_transform("dirichlet", source_order=24,
                                series_truncation=24),
    "gen_bergman_dirichlet": make_transform("gen_bergman_dirichlet", 0.5, 2,
                                            source_order=24,
                                            series_truncation=24),
}


def test_make_transform_validation():
    with pytest.raises(ValueError):
        make_transform("laplace")
    with pytest.raises(ValueError):
        make_transform("second")  # missing delta
    with pytest.raises(ValueError):
        make_transform("generalized_second", 1.0, 2)  # ell above floor(nu-1/2)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError):
            make_transform("second", value)  # range checks compare false on NaN
    with pytest.raises(ValueError):
        make_transform("generalized_second", 3.0, 1.5)  # once built ell = 1


def test_operator_rejects_a_foreign_source_rule():
    # the source rule must be the Gauss rule of the source basis' measure
    op = make_transform("second", 1.5, source_order=24, disk_orders=(60, 128))
    for rule in (gauss_halfline(24, 0.0), gauss_line(24)):
        with pytest.raises(ValueError):
            dataclasses.replace(op, source_rule=rule)
    with pytest.raises(ValueError):
        dataclasses.replace(OPS["classical"], source_rule=gauss_halfline(24, 0.0))
    # its own rule at another order is accepted
    assert dataclasses.replace(op, source_rule=gauss_halfline(12, 1.5)).source_rule.meta == {
        "n": 12, "alpha": 1.5}


def test_pairing_on_plane_target():
    # B[phi_j] = psi_j pointwise; classical maps onto the Fock family.
    op = OPS["classical"]
    z = np.array([0.3 + 0.4j, -0.8 + 0.2j, 1.1 - 0.5j])
    res = pairing_residuals(op, 6, z)
    assert res.shape == (7,)
    assert np.max(res) < 1e-9


def test_pairing_on_disk_targets():
    z = np.array([0.3 + 0.2j, -0.4 - 0.1j, 0.05 + 0.45j])
    for kind in ("second", "generalized_second", "dirichlet",
                 "gen_bergman_dirichlet"):
        res = np.max(pairing_residuals(OPS[kind], 6, z))
        assert res < 1e-7, kind


def test_reverse_pairing_l2_targets():
    # the inverse integral is evaluated at the source nodes, so the source
    # rule must stay small enough that the far nodes remain inside the
    # region the truncated inverse resolves
    for kind, params in (("classical", ()), ("second", (1.5,)),
                         ("generalized_second", (3.0, 2))):
        op = make_transform(kind, *params, source_order=12,
                            disk_orders=(120, 256), plane_order=60,
                            series_truncation=15, inverse_truncation=40)
        res = max(reverse_pairing_residual(op, j) for j in range(7))
        assert res < 1e-6, kind


@pytest.mark.parametrize("nu, ell", [(1.55, 1), (2.6, 2)])
def test_round_trip_with_boundary_heavy_folded_rule(nu, ell):
    # 2 nu - 2 - 2 ell < 0 puts radial nodes within ~1e-5 of the boundary;
    # there the fold (1-|z|^2)^(-ell) in psi_j and (1-|z|^2)^(2 ell) in the
    # target weights cancel only when both take |z|^2 the same way (with
    # np.abs(z)**2 in the weights: 6.2e-4 and 4.6e-4)
    op = make_transform("generalized_second", nu, ell, source_order=12,
                        series_truncation=15, inverse_truncation=40)
    rng = np.random.default_rng(5)
    values = np.zeros(16, dtype=complex)
    values[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c = CoefficientVector(values, op.kernel.source_basis(), 15)
    assert round_trip_integral(op, c) <= 1e-4


def test_reverse_pairing_rejected_for_coefficient_targets():
    with pytest.raises(ValueError):
        reverse_pairing_residual(OPS["dirichlet"], 0)
    with pytest.raises(ValueError):
        reverse_pairing_residual(OPS["gen_bergman_dirichlet"], 0)


def test_isometry_on_random_vectors():
    # the plane-target norm integrates |Bf|^2 out to radius ~sqrt(plane
    # order), where the forward integrand's saddle sits near x = Re(z)/sqrt(2);
    # the source rule must reach past it, hence full order for the classical
    # case while the bounded disk targets get by with the cheap operators
    rng = np.random.default_rng(42)
    C = rng.standard_normal((10, 7)) + 1j * rng.standard_normal((10, 7))
    ops = dict(OPS)
    ops["classical"] = make_transform("classical")
    for kind, op in ops.items():
        src, tgt = isometry_norms(op, C.astype(complex))
        assert np.max(np.abs(src - tgt)) < 1e-6, kind


def test_isometry_check_reports_unit_basis_vector():
    op = OPS["second"]
    values = np.zeros(8, dtype=complex)
    values[3] = 1.0
    src, tgt = isometry_norms(op, values)
    assert src[0] == pytest.approx(1.0, abs=1e-10)
    assert tgt[0] == pytest.approx(1.0, abs=1e-8)
    assert abs(src[0] - tgt[0]) < 1e-8


def test_forward_gram_is_identity():
    for kind in ("classical", "dirichlet"):
        gram = forward_gram(OPS[kind], 10)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-9, kind


def test_round_trip_integral_l2_targets():
    rng = np.random.default_rng(3)
    for kind in ("classical", "second", "generalized_second"):
        op = make_transform(kind, *{"classical": (), "second": (1.5,),
                                    "generalized_second": (3.0, 2)}[kind],
                            source_order=12, disk_orders=(120, 256),
                            plane_order=60, series_truncation=15,
                            inverse_truncation=40)
        values = np.zeros(16, dtype=complex)
        values[:7] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c = CoefficientVector(values, op.kernel.source_basis(), 15)
        assert round_trip_integral(op, c) < 1e-4, kind


def test_round_trip_series_dirichlet_targets():
    rng = np.random.default_rng(4)
    for kind in ("dirichlet", "gen_bergman_dirichlet"):
        op = OPS[kind]
        values = np.zeros(10, dtype=complex)
        values[:7] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c = CoefficientVector(values, op.kernel.source_basis(), 9)
        assert round_trip_series(op, c) < 1e-8, kind


CIRCLE_CASES = [("dirichlet", ()), ("gen_bergman_dirichlet", (0.5, 2))]


@pytest.mark.parametrize("kind, params", CIRCLE_CASES)
def test_circle_taylor_matches_full_circle_route(kind, params):
    # half the circle plus conjugates, through the operator's Taylor map,
    # against forward at every point of the same circle and an FFT per call
    op = make_transform(kind, *params)
    rng = np.random.default_rng(11)
    for J in (8, 15, 24):   # all sample N = 256 points
        C = rng.standard_normal((J + 1, 4)) + 1j * rng.standard_normal((J + 1, 4))
        fv = basis_matrix(op.kernel.source_basis(), J, op.source_rule.nodes) @ C
        got = _circle_taylor(op, fv, J)
        want = taylor_from_circle(forward(op, fv, circle_points(0.75, 256)), J, 0.75, 256)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), J
        assert_allclose(_circle_taylor(op, fv[:, 0], J), got[:, 0], rtol=1e-14)


def test_circle_extraction_evaluates_the_kernel_on_one_half_circle(monkeypatch):
    # isometry (J_t = 16), Gram (J = 24) and series round trip (J = 15) used
    # to sample 138, 146 and 137 full-circle points; now they share the 129
    # points k = 0..128 of one 256-point circle
    op = make_transform("dirichlet")
    rows = []
    kernel = kernels.dirichlet_kernel

    def counting(z, x, rule=None):
        rows.append(np.size(z))
        return kernel(z, x, rule=rule)

    monkeypatch.setattr(kernels, "dirichlet_kernel", counting)
    rng = np.random.default_rng(12)
    isometry_norms(op, rng.standard_normal((9, 3)) + 0j)
    forward_gram(op, 24)
    values = np.zeros(16, dtype=complex)
    values[:9] = rng.standard_normal(9)
    round_trip_series(op, CoefficientVector(values, op.kernel.source_basis(), 15))
    assert sum(rows) == 129


def test_circle_maps_are_per_operator_and_read_only():
    op = make_transform("dirichlet", source_order=24, series_truncation=24)
    forward_gram(op, 8)
    assert list(op._circle_maps) == [256]
    taylor = op._circle_maps[256]
    assert taylor.shape == (256, 24) and not taylor.flags.writeable
    with pytest.raises(ValueError):
        taylor[0, 0] = 0.0
    assert dataclasses.replace(op)._circle_maps == {}
    assert dataclasses.replace(op, series_truncation=16)._circle_maps == {}


def test_forward_evaluates_series_consistently():
    op = OPS["second"]
    rng = np.random.default_rng(9)
    values = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    c = CoefficientVector(values, op.kernel.source_basis(), 7)

    def f(x):
        return basis_matrix(op.kernel.source_basis(), 7, x) @ values

    z = np.array([0.2 + 0.3j, -0.35j])
    primary = forward(op, f, z)
    series = forward(op, f, z, strategy="series")
    assert np.max(np.abs(primary - series)) < 1e-9
    # and both match the image series evaluated directly
    direct = series_transform(c, op.kernel.target_basis(), z)
    assert np.max(np.abs(primary - direct)) < 1e-9


# The series routes contract through basis coefficients; these pin them to
# the target x source kernel matrix they replace, on the default operators'
# full target rules.
SERIES_CASES = [("second", (1.5,)), ("generalized_second", (3.0, 2)),
                ("generalized_second", (2.3, 1)), ("classical", ())]


@cache
def default_op(kind, params):
    return make_transform(kind, *params)


@pytest.mark.parametrize("kind, params", SERIES_CASES)
def test_series_forward_matches_forward_map(kind, params):
    op = default_op(kind, params)
    z = op.target.rule.nodes
    rng = np.random.default_rng(21)
    V = rng.standard_normal((120, 9)) + 1j * rng.standard_normal((120, 9))
    got = forward(op, V, z, strategy="series")
    want = forward_map(op, z, strategy="series") @ V
    assert got.shape == want.shape == (z.shape[0], 9)
    err = np.max(np.abs(got - want), axis=0)
    assert np.all(err <= 1e-13 * np.max(np.abs(want), axis=0)), err
    # a single column and a single point keep their shapes
    assert_allclose(forward(op, V[:, 3], z[:5], strategy="series"), want[:5, 3],
                    rtol=0, atol=1e-13 * np.max(np.abs(want[:, 3])))
    assert forward(op, V, z[0], strategy="series").shape == (9,)


@pytest.mark.parametrize("kind, params", SERIES_CASES)
def test_inverse_integral_matches_series_kernel_matrix(kind, params):
    op = default_op(kind, params)
    z = op.target.rule.nodes
    alpha = op.kernel.source_basis().params
    # points of modest magnitude, as reverse_pairing_residual documents
    x = gauss_line(12).nodes if kind == "classical" else gauss_halfline(12, *alpha).nodes
    rng = np.random.default_rng(22)
    F = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
    got = inverse_integral(op, F, x)
    kmat = kernel_matrix(op.kernel, z, x, strategy="series", J=op.inverse_truncation)
    want = (op.target.node_weights * F) @ np.conj(kmat)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# On disk targets the whole-rule routes run in polar form: radial products
# and one FFT per radius.  These pin them to the basis matrix on the rule's
# flat nodes, at weights with gamma < 0 (second(0.6): -0.4; (1.55, 1): -0.9;
# (2.6, 2): -0.8) as well as gamma >= 0.
POLAR_CASES = [("second", (0.6,)), ("second", (1.5,)),
               ("generalized_second", (3.0, 2)), ("generalized_second", (1.55, 1)),
               ("generalized_second", (2.6, 2)), ("generalized_second", (1.7, 0))]


@pytest.mark.parametrize("kind, params", POLAR_CASES)
def test_polar_routes_match_basis_matrix_on_flat_nodes(kind, params):
    op = make_transform(kind, *params, source_order=12)
    t = op.target
    J = op.inverse_truncation
    rng = np.random.default_rng(23)
    C = rng.standard_normal((J + 1, 3)) + 1j * rng.standard_normal((J + 1, 3))
    F = rng.standard_normal((t.rule.nodes.shape[0], 3)) + 1j * rng.standard_normal(
        (t.rule.nodes.shape[0], 3))
    psi = basis_matrix(op.kernel.target_basis(), J, t.rule.nodes)
    # evaluation, compared without the eigenspace fold (1-|z|^2)^(-ell): near
    # the boundary a flat node's |z|^2 and its radius' r^2 differ by an ulp,
    # which the fold alone amplifies to ~1e-11 relative
    want = (1.0 - (t.rule.nodes * np.conj(t.rule.nodes)).real)[:, None] ** t.shift * (psi @ C)
    got = np.repeat(1.0 - t.radii ** 2, t.n_theta)[:, None] ** t.shift * _target_values(op, C)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # contraction
    want = np.conj(psi).T @ (t.node_weights[:, None] * F)
    got = _target_contract(op, F, J)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # a single column keeps its shape
    assert_allclose(_target_contract(op, F[:, 1], J), got[:, 1],
                    rtol=0, atol=1e-15 * np.max(np.abs(got)))
    assert_allclose(_target_values(op, C[:, 1]), _target_values(op, C)[:, 1], rtol=0, atol=0)


@pytest.mark.parametrize("nu, ell", [(1.55, 1), (2.6, 2)])
def test_polar_routes_take_one_minus_u_once_per_radius(nu, ell):
    # psi's fold and the weights' fold share 1 - r^2 per radius; with the fold
    # of the weights taken per node instead, the isometry rose to 1.5e-11 and
    # the reverse pairing at j = 5 to 5.1e-6 at (1.55, 1)
    op = make_transform("generalized_second", nu, ell)
    rng = np.random.default_rng(3)
    C = rng.standard_normal((9, 20)) + 1j * rng.standard_normal((9, 20))
    src, tgt = isometry_norms(op, C)
    assert np.max(np.abs(src - tgt)) <= 1e-13
    small = make_transform("generalized_second", nu, ell, source_order=12,
                           series_truncation=15, inverse_truncation=40)
    assert max(reverse_pairing_residual(small, j) for j in range(9)) <= 1e-7


def test_polar_routes_reject_aliasing_truncations(capsys):
    # J + 1 > n_theta would put two degrees in one angular bin
    op = make_transform("second", 1.5, source_order=12, disk_orders=(120, 64))
    F = np.ones(op.target.rule.nodes.shape[0], dtype=complex)
    with pytest.raises(ValueError, match="alias"):
        inverse_integral(op, F, 1.0, J=110)
    with pytest.raises(ValueError, match="alias"):
        forward_gram(op, 24)          # the series truncation, 64, needs 65 bins
    assert inverse_integral(op, F, 1.0, J=63) is not None
    assert main(["verify", "transforms", "--disk-angular", "64"]) == 2
    assert "alias" in capsys.readouterr().err


def test_forward_rejects_wrong_leading_dimension():
    op = OPS["second"]
    n = op.source_rule.nodes.shape[0]
    z = np.array([0.1 + 0.2j])
    for values in (np.ones(n + 1), np.ones((n - 1, 3)), np.ones((3, n)), np.array(1.0)):
        for strategy in ("primary", "series"):
            with pytest.raises(ValueError):
                forward(op, values, z, strategy=strategy)


# ---------------------------------------------------------------------------
# coefficient machinery
# ---------------------------------------------------------------------------

def test_taylor_from_circle_recovers_polynomial():
    a = np.array([1.0, 2.0 - 1.0j, 0.0, 3.5j, -0.25])
    pts = circle_points(0.5, 64)
    F = sum(a[k] * pts**k for k in range(5))
    got = taylor_from_circle(F, 8, 0.5, 64)
    assert_allclose(got[:5], a, atol=1e-13)
    assert np.max(np.abs(got[5:])) < 1e-13


@pytest.mark.parametrize("radius, n_points", [
    (0.0, 8), (-0.5, 8), (float("nan"), 4), (float("inf"), 4), (0.5, 0)])
def test_sample_circle_rejects_bad_radius_or_count(radius, n_points):
    with pytest.raises(ValueError):
        circle_points(radius, n_points)
    with pytest.raises(ValueError):
        taylor_from_circle(lambda z: 1 + z, min(3, n_points - 1), radius, n_points)


def test_dirichlet_monomial_weights_closed_form():
    # ||1||^2 = pi and ||z^j||^2 = pi j for the Dirichlet inner product:
    # the weights n_j^(-2) of psi_j = n_j z^j
    w = monomial_normalizer(dirichlet(), 5) ** -2.0
    assert_allclose(w[0], np.pi, rtol=1e-14)
    assert_allclose(w[1:], np.pi * np.arange(1, 6), rtol=1e-14)
    # generalized: Bergman head below the split index m, derivative tail above
    alpha, m = 0.5, 2
    w = monomial_normalizer(gen_dirichlet(alpha, m), 4) ** -2.0
    head = [np.pi * np.exp(gammaln(j + 1.0) + gammaln(alpha + 1.0)
                           - gammaln(j + alpha + 2.0)) for j in range(m)]
    assert_allclose(w[:m], head, rtol=1e-13)
    assert np.all(w[m:] > 0.0)


def test_monomial_normalizer_fock():
    # psi_j = z^j / sqrt(pi j!) for the Gaussian-weighted plane
    n = monomial_normalizer(bargmann_fock(), 5)
    j = np.arange(6)
    assert_allclose(n, np.exp(-0.5 * (np.log(np.pi) + gammaln(j + 1.0))), rtol=1e-13)


def test_target_coefficients_of_forward_image():
    # the forward image of phi_2 has target coefficients e_2 (pairing)
    op = OPS["dirichlet"]

    def f(x):
        return basis_matrix(op.kernel.source_basis(), 2, x)[:, 2]

    c = target_coefficients(op, f, J=6)
    want = np.zeros(7)
    want[2] = 1.0
    assert np.max(np.abs(c.values - want)) < 1e-9


def test_inverse_series_undoes_forward():
    op = OPS["dirichlet"]
    rng = np.random.default_rng(8)
    values = rng.standard_normal(6) + 1j * rng.standard_normal(6)

    def f(x):
        return basis_matrix(op.kernel.source_basis(), 5, x) @ values

    # B carries phi_j to psi_j, so the target coefficients are the source ones
    F = target_coefficients(op, f, J=5)
    assert np.max(np.abs(F.values - values)) < 1e-9
    # sanity: the extracted image evaluates like the forward transform
    z = np.array([0.2 - 0.3j])
    image = forward(op, f, z, strategy="series")
    assert np.max(np.abs(series_transform(F, op.kernel.target_basis(), z) - image)) < 1e-9


def test_coefficient_vector_validation():
    fam = laguerre_l2(0.0)
    with pytest.raises(ValueError):
        CoefficientVector(np.ones(3), fam, 5)
