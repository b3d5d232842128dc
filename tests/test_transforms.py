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
    bergman,
    circle_points,
    dirichlet,
    disk_rule,
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
)
from bargmann import kernels, special, transforms, verify
from bargmann.cli import main
from bargmann.transforms import (_circle_coefficients, _extraction_circle,
                                 _target_contract, _target_values)

# Cheap operators for the structural tests: a degree-8 input only needs the
# source rule to integrate degree <= 23 exactly.
OPS = {
    "classical": make_transform("classical", source_order=24,
                                disk_orders=(60, 128), series_truncation=24),
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


def test_closed_classical_kernel_pairs_far_out_on_the_plane():
    # every whole-rule image takes the series route, so this keeps the closed
    # classical kernel covered beyond the verify suite's |z| <= 1.2: B[phi_j]
    # = psi_j on circles out to |z| = 10, relative to e^(|z|^2 / 2), the
    # growth of a unit vector of the Fock space
    op = make_transform("classical")
    theta = 2.0 * np.pi * (np.arange(16) + 0.3) / 16
    for r in (1.2, 2.0, 4.0, 6.0, 8.0, 10.0):
        res = pairing_residuals(op, 24, r * np.exp(1j * theta))
        assert np.max(res) * np.exp(-r * r / 2.0) <= 1e-13, r


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
                            disk_orders=(120, 256),
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
    # a Dirichlet-type target basis has no measure, so its operator has no
    # target space, and every integral inverse leg refuses alike
    for kind, params in (("dirichlet", ()), ("gen_bergman_dirichlet", (0.5, 2))):
        op = make_transform(kind, *params, source_order=12, series_truncation=15,
                            inverse_truncation=40)
        assert op.target is None
        c = CoefficientVector(np.ones(16, dtype=complex), op.kernel.source_basis(), 15)
        F = np.ones(64, dtype=complex)
        for leg in (lambda: inverse_integral(op, F, 0.5),
                    lambda: reverse_pairing_residual(op, 0),
                    lambda: round_trip_integral(op, c)):
            with pytest.raises(ValueError, match="target_coefficients"):
                leg()


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
                            series_truncation=15, inverse_truncation=40)
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
    # half the circle plus conjugates, through the cached circle map, against
    # forward at every point of the same circle and an FFT per call: for
    # psi_j = n_j z^j the extracted <B f, psi_j> is the Taylor coefficient
    # a_j over n_j
    op = make_transform(kind, *params)
    rng = np.random.default_rng(11)
    for J in (8, 15, 24):   # all sample N = 256 points
        C = rng.standard_normal((J + 1, 4)) + 1j * rng.standard_normal((J + 1, 4))
        fv = basis_matrix(op.kernel.source_basis(), J, op.source_rule.nodes) @ C
        n = monomial_normalizer(op.kernel.target_basis(), J)[:, None]
        got = _circle_coefficients(op, fv, J) * n
        values = forward(op, fv, circle_points(0.75, 256))
        want = np.fft.fft(values, axis=0)[:J + 1] / 256 / 0.75 ** np.arange(J + 1)[:, None]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), J
        assert_allclose(_circle_coefficients(op, fv[:, 0], J) * n[:, 0], got[:, 0],
                        rtol=1e-14)


def test_circle_extraction_evaluates_the_kernel_on_one_half_circle(monkeypatch):
    # isometry (J_t = 16), Gram (J = 24) and series round trip (J = 15) used
    # to sample 138, 146 and 137 full-circle points; now they share the 129
    # points k = 0..128 of one 256-point circle, and a second equal operator
    # reads the same map without evaluating the kernel again
    transforms._circle_map.cache_clear()
    rows = []
    kernel = kernels.dirichlet_kernel

    def counting(z, x, rule=None):
        rows.append(np.size(z))
        return kernel(z, x, rule=rule)

    monkeypatch.setattr(kernels, "dirichlet_kernel", counting)
    for want in (129, 0):
        rows.clear()
        op = make_transform("dirichlet")
        rng = np.random.default_rng(12)
        isometry_norms(op, rng.standard_normal((9, 3)) + 0j)
        forward_gram(op, 24)
        values = np.zeros(16, dtype=complex)
        values[:9] = rng.standard_normal(9)
        round_trip_series(op, CoefficientVector(values, op.kernel.source_basis(), 15))
        assert sum(rows) == want


def test_target_is_built_on_first_read(monkeypatch):
    # a point forward reads only the kernel and the source rule
    builds = []
    disk_rule = special.disk_rule
    monkeypatch.setattr(special, "disk_rule", lambda *a: builds.append(a) or disk_rule(*a))
    op = make_transform("second", 1.5, source_order=12, disk_orders=(20, 32))
    fv = basis_matrix(op.kernel.source_basis(), 3, op.source_rule.nodes) @ np.ones(4)
    for strategy in ("primary", "series"):
        forward(op, fv, 0.3 + 0.1j, strategy)
    assert builds == []
    target = op.target
    assert builds == [(20, 32, 0.5)] and op.target is target
    # a replaced operator builds its own
    other = dataclasses.replace(op, series_truncation=16)
    assert len(builds) == 1 and other.target is not target and len(builds) == 2
    want = kernels._target_space(bergman(1.5), (20, 32))
    assert np.array_equal(target.rule.nodes, want.rule.nodes)
    assert np.array_equal(target.radial_weights, want.radial_weights)
    # the orders are still checked when the operator is made
    for kind, params in (("second", (1.5,)), ("classical", ())):
        for orders in ((0, 32), (20, 0)):
            with pytest.raises(ValueError, match="orders"):
                make_transform(kind, *params, source_order=12, disk_orders=orders)


# Default operators whose target rule is sized from their truncations: the
# verify cases, a second weight above 2, and eigenspace levels with the
# reduced weight exponent 2 nu - 2 - 2 ell at 1.8, 0.8, -0.9 and -0.8.
SIZED_CASES = [("classical", ()), ("second", (1.5,)), ("second", (2.9,)),
               ("generalized_second", (3.0, 2)), ("generalized_second", (3.9, 3)),
               ("generalized_second", (1.55, 1)), ("generalized_second", (2.6, 2))]


def _least_power_of_two_above(J):
    n = 1
    while n < J + 1:
        n *= 2
    return n


@pytest.mark.parametrize("kind, params", SIZED_CASES)
def test_derived_target_rule_integrates_the_gram_matrix_exactly(kind, params):
    op = make_transform(kind, *params)
    J = op.inverse_truncation
    assert op.target.n_theta == _least_power_of_two_above(
        max(op.series_truncation, J)) == 128
    # psi_0..psi_J through the polar routes the whole-rule checks use
    eye = np.eye(J + 1)
    gram = _target_contract(op, _target_values(op, eye), J)
    assert np.max(np.abs(gram - eye)) <= 1e-12
    small = make_transform(kind, *params, source_order=12,
                           series_truncation=15, inverse_truncation=40)
    assert small.target.n_theta == 64


def test_target_orders_are_derived_lazily_and_overridden_entry_by_entry():
    op = make_transform("generalized_second", 3.0, 2)
    assert "target" not in vars(op)
    forward_map(op, np.array([0.3 + 0.1j, -0.2j]))
    assert "target" not in vars(op)
    assert (op.target.rule.meta["n_r"], op.target.n_theta) == (57, 128)
    # one entry overridden, the other still derived
    coarse = make_transform("generalized_second", 3.0, 2, disk_orders=(8, None))
    assert (coarse.target.rule.meta["n_r"], coarse.target.n_theta) == (8, 128)
    wide = make_transform("second", 1.5, disk_orders=(None, 256))
    assert (wide.target.rule.meta["n_r"], wide.target.n_theta) == (56, 256)
    # both overridden: exactly that rule
    fixed = make_transform("second", 1.5, disk_orders=(120, 256))
    want = disk_rule(120, 256, 0.5)
    assert np.array_equal(fixed.target.rule.nodes, want.nodes)
    assert np.array_equal(fixed.target.rule.weights, want.weights)


def test_source_rule_builders_are_looked_up_at_call_time(monkeypatch):
    # a wrapper bound to special's name, as a tracer binds one, sees every
    # source-rule build of make_transform (both its own and the operator's check)
    for name, kind, params, args in (("gauss_halfline", "second", (1.5,), (12, 1.5)),
                                     ("gauss_line", "classical", (), (12,))):
        builds = []
        build = getattr(special, name)
        monkeypatch.setattr(special, name, lambda *a, build=build: builds.append(a) or build(*a))
        op = make_transform(kind, *params, source_order=12)
        assert builds == [args, args]
        assert op.source_rule is build(*args)


# the module-level name of each family's primary kernel, which FAMILIES
# looks up at call time
PRIMARY_KERNELS = {"classical": "classical_kernel", "second": "second_kernel",
                   "generalized_second": "generalized_second_kernel",
                   "dirichlet": "dirichlet_kernel",
                   "gen_bergman_dirichlet": "gen_dirichlet_kernel"}


@pytest.fixture
def fresh_circle_maps():
    # a map built by a rebound kernel must not outlive the test
    transforms._circle_map.cache_clear()
    yield
    transforms._circle_map.cache_clear()


def test_isometry_and_gram_run_the_primary_kernel(monkeypatch, fresh_circle_maps):
    # every family's isometry and Gram routes evaluate its primary kernel,
    # so a wrong closed kernel reaches the checks: with delta off by one part
    # in 1e6 inside second_kernel, transforms.gram.second leaves its 1e-8
    entries = {}
    for kind, name in PRIMARY_KERNELS.items():
        def counting(*args, kernel=getattr(kernels, name), kind=kind):
            entries[kind] += np.broadcast(*args[-2:]).size
            return kernel(*args)
        monkeypatch.setattr(kernels, name, counting)
    rng = np.random.default_rng(5)
    C = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    for kind, params, *_ in verify._TRANSFORM_CASES:
        op = make_transform(kind, *params)
        for route in (lambda: isometry_norms(op, C), lambda: forward_gram(op, 24)):
            transforms._circle_map.cache_clear()
            entries.update(dict.fromkeys(PRIMARY_KERNELS, 0))
            route()
            assert entries[kind] > 0 and sum(entries.values()) == entries[kind], kind

    def gram_second():
        transforms._circle_map.cache_clear()
        report = verify.run_suite("transforms")
        return {c.id: c.measured for c in report.checks}["transforms.gram.second"]

    assert gram_second() <= 1e-13
    second = kernels.second_kernel
    monkeypatch.setattr(kernels, "second_kernel",
                        lambda delta, z, x: second(delta * (1.0 + 1e-6), z, x))
    assert gram_second() > 1e-8


def test_circle_extraction_steps_off_a_zero_of_psi_j(fresh_circle_maps):
    # psi_6 of disk_eigen(10/3, 1) vanishes on |z| = 0.75, where dividing by
    # it put the Gram matrix 1.4 off (6e-7 at nu = 10/3 + 1e-9); the basis'
    # second circle, 0.6, takes over
    for nu in (10.0 / 3.0, 10.0 / 3.0 + 1e-9):
        op = make_transform("generalized_second", nu, 1)
        basis = op.kernel.target_basis()
        assert abs(basis_matrix(basis, 24, np.array([0.75]))[0, 6]) < 1e-8
        assert _extraction_circle(basis, 24)[0] == 0.6
        gram = forward_gram(op, 24)
        assert np.max(np.abs(gram - np.eye(25))) <= 1e-12, nu
    # where every circle has some psi_j too small to divide by, ValueError:
    # psi_120 of the Fock basis is 3.9e-43 on |z| = 3 and 1.6e-16 on |z| = 5
    with pytest.raises(ValueError, match="extraction circle"):
        forward_gram(make_transform("classical"), 120)


def test_isometry_and_gram_over_the_eigenspace_parameters(fresh_circle_maps):
    # nu on a grid over [1, 4], every level ell < nu - 1/2: the forward
    # checks hold off the zeros of psi_j too (worst measured: Gram 2.1e-13
    # at nu = 3.4, ell = 2, and isometry 4.0e-13 at nu = 3.6, ell = 3)
    rng = np.random.default_rng(21)
    C = rng.standard_normal((20, 9)) + 1j * rng.standard_normal((20, 9))
    worst_gram = worst_iso = 0.0
    for nu in np.linspace(1.0, 4.0, 61):
        for ell in range(int(np.ceil(nu - 0.5))):
            op = make_transform("generalized_second", nu, ell)
            gram = forward_gram(op, 24)
            worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(25)))))
            src, tgt = isometry_norms(op, C)
            worst_iso = max(worst_iso, float(np.max(np.abs(src - tgt))))
    assert worst_gram <= 1e-12 and worst_iso <= 2e-12, (worst_gram, worst_iso)


def test_verify_transforms_builds_only_the_round_trip_rules(monkeypatch):
    # no check reads the default operators' 51-57 x 128 target rules, so the
    # suite builds only the 64-angle rules its round trips integrate over
    orders = []
    for name in ("disk_rule", "gaussian_plane_rule"):
        build = getattr(special, name)
        monkeypatch.setattr(special, name,
                            lambda *a, build=build: orders.append(a[:2]) or build(*a))
    assert verify.run_suite("transforms").passed
    assert sorted(orders) == [(21, 64), (21, 64), (22, 64)]


def test_circle_maps_are_shared_per_key_and_read_only(monkeypatch):
    # one Taylor map per (kernel, source order, sample count, radius) for
    # the process
    cached = transforms._circle_map
    assert 0 < cached.cache_info().maxsize <= 8
    cached.cache_clear()
    read = []
    monkeypatch.setattr(transforms, "_circle_map",
                        lambda *key: read.append((key, cached(*key))) or read[-1][1])
    op = make_transform("dirichlet", source_order=24, series_truncation=24)
    ops = [op, make_transform("dirichlet", source_order=24, series_truncation=24),
           dataclasses.replace(op, series_truncation=16),
           make_transform("dirichlet", source_order=12),
           make_transform("gen_bergman_dirichlet", 0.5, 2, source_order=24),
           make_transform("classical", source_order=24)]
    for each in ops:
        forward_gram(each, 8)
    # the key takes the radius of the target basis' circle: 0.75 on the
    # disk, 3 for the Fock space, whose circle needs 64 samples, not 256
    assert [key for key, _ in read] == [(op.kernel, 24, 256, 0.75)] * 3 + [
        (op.kernel, 12, 256, 0.75), (ops[4].kernel, 24, 256, 0.75),
        (ops[5].kernel, 24, 64, 3.0)]
    maps = [taylor for _, taylor in read]
    assert maps[0] is maps[1] is maps[2]
    assert len({id(taylor) for taylor in maps}) == 4
    assert cached.cache_info().currsize == 4
    assert maps[0].shape == (256, 24) and maps[3].shape == (256, 12)
    assert maps[5].shape == (64, 24)
    for taylor in maps:
        assert not taylor.flags.writeable
        with pytest.raises(ValueError):
            taylor[0, 0] = 0.0


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
    want = (np.repeat(op.target.radial_weights, op.target.n_theta) * F) @ np.conj(kmat)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# On every target rule the whole-rule routes run in polar form: radial
# products and one FFT per radius.  These pin them to the basis matrix on the
# rule's flat nodes: on the Gaussian plane rule, and on disk rules at weights
# with gamma < 0 (second(0.6): -0.4; (1.55, 1): -0.9; (2.6, 2): -0.8) as well
# as gamma >= 0.
POLAR_CASES = [("second", (0.6,)), ("second", (1.5,)),
               ("generalized_second", (3.0, 2)), ("generalized_second", (1.55, 1)),
               ("generalized_second", (2.6, 2)), ("generalized_second", (1.7, 0)),
               ("classical", ())]


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
    ell = op.kernel.target_basis().shift
    want = (1.0 - (t.rule.nodes * np.conj(t.rule.nodes)).real)[:, None] ** ell * (psi @ C)
    got = np.repeat(1.0 - t.radii ** 2, t.n_theta)[:, None] ** ell * _target_values(op, C)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # contraction
    want = np.conj(psi).T @ (np.repeat(t.radial_weights, t.n_theta)[:, None] * F)
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
    # J + 1 > n_theta would put two degrees in one angular bin; the forward
    # checks read a circle, not the rule, so only the inverse legs can alias
    op = make_transform("second", 1.5, source_order=12, disk_orders=(120, 64))
    F = np.ones(op.target.rule.nodes.shape[0], dtype=complex)
    with pytest.raises(ValueError, match="alias"):
        inverse_integral(op, F, 1.0, J=110)
    assert inverse_integral(op, F, 1.0, J=63) is not None
    # the round-trip operators invert at J = 40, which 32 angles cannot carry
    assert main(["verify", "transforms", "--disk-angular", "32"]) == 2
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

@pytest.mark.parametrize("radius, n_points", [
    (0.0, 8), (-0.5, 8), (float("nan"), 4), (float("inf"), 4), (0.5, 0)])
def test_sample_circle_rejects_bad_radius_or_count(radius, n_points):
    with pytest.raises(ValueError):
        circle_points(radius, n_points)


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
