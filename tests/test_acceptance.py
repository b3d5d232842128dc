"""Acceptance gate: ten cross-cutting criteria, one test (and one printed
pass/fail line) each.

Criteria 1-3 and 8 drive the packaged verification suites and re-assert
their stated tolerances and wall budgets here; the remaining criteria are
computed directly so that each carries its own tolerance, configuration,
and timing rather than inheriting them from a shared run.
"""

import time

import numpy as np
import pytest

from bargmann import (
    CoefficientVector,
    bergman,
    disk_rule,
    isometry_norms,
    make_transform,
    omega,
    omega_laplace,
    omega_laplace_closed,
    pairing_residuals,
    reproducing_kernel,
    reverse_pairing_residual,
    round_trip_integral,
    round_trip_series,
    run_suite,
)
from bargmann.cli import main as cli_main
from bargmann.verify import SUITES, _TRANSFORM_CASES

CASES = [
    ("classical", ()),
    ("second", (1.5,)),
    ("generalized_second", (3.0, 2)),
    ("dirichlet", ()),
    ("gen_bergman_dirichlet", (0.5, 2)),
]

L2_KINDS = ("classical", "second", "generalized_second")


def _report(name):
    report = run_suite(name)
    failing = [c for c in report.checks if not c.passed]
    return report, failing


def _sample_disk(radii, per_circle, rmax):
    pts = []
    for k, r in enumerate(radii):
        angles = 2.0 * np.pi * (np.arange(per_circle) + 0.15 * (k + 1)) / per_circle
        pts.append(r * rmax * np.exp(1j * angles))
    return np.concatenate(pts)


@pytest.fixture(scope="module")
def default_ops():
    return {kind: make_transform(kind, *params) for kind, params in CASES}


@pytest.fixture(scope="module")
def roundtrip_ops():
    return {
        kind: make_transform(kind, *params, source_order=12,
                             series_truncation=15, inverse_truncation=40)
        for kind, params in CASES if kind in L2_KINDS
    }


def test_criterion_1_generating_functions():
    report, failing = _report("special")
    wall = report.metadata["wall_time_s"]
    assert not failing, [c.id for c in failing]
    assert all(c.tolerance <= 1e-8 for c in report.checks)
    assert wall < 2.0, wall
    worst = max(c.measured for c in report.checks)
    print(f"criterion 1 PASS: 4 generating-function families, "
          f"worst rel err {worst:.2e} <= 1e-8, {wall:.2f}s")


def test_criterion_2_quadrature_exactness():
    report, failing = _report("quadrature")
    wall = report.metadata["wall_time_s"]
    assert not failing, [c.id for c in failing]
    assert all(c.tolerance <= 1e-11 for c in report.checks)
    assert wall < 2.0, wall
    worst = max(c.measured for c in report.checks)
    print(f"criterion 2 PASS: moment exactness at n in (4, 16, 64) plus disk "
          f"norms, worst rel err {worst:.2e} <= 1e-11, {wall:.2f}s")


@pytest.fixture(scope="module")
def kernels_report():
    return run_suite("kernels")


def test_criterion_3_kernel_dual_paths(kernels_report):
    report = kernels_report
    wall = report.metadata["wall_time_s"]
    dual = [c for c in report.checks if c.id.startswith("kernels.dual_path.")]
    assert len(dual) == 5
    tolerances = {
        "kernels.dual_path.classical": 1e-10,
        "kernels.dual_path.second": 1e-10,
        "kernels.dual_path.generalized_second": 1e-10,
        "kernels.dual_path.dirichlet": 1e-7,
        "kernels.dual_path.gen_bergman_dirichlet": 1e-5,
    }
    for check in dual:
        assert check.tolerance == tolerances[check.id]
        assert check.measured <= check.tolerance, check.id
    assert wall < 30.0, wall
    worst = max(c.measured for c in dual)
    print(f"criterion 3 PASS: five kernel families, 20 points each, worst "
          f"dual-path error {worst:.2e}, suite {wall:.2f}s")


def test_criterion_4_omega_laplace_identity():
    start = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        for alpha in (0.0, 0.5, 1.5):
            w = omega(alpha, m)
            for j in range(6):
                got = omega_laplace(w, j)
                want = omega_laplace_closed(alpha, m, j)
                worst = max(worst, abs(got - want) / want)
    wall = time.perf_counter() - start
    assert worst <= 1e-4, worst
    assert wall < 20.0, wall
    print(f"criterion 4 PASS: Laplace transform of the convolution weight, "
          f"m in (2,3) x alpha in (0,0.5,1.5) x j <= 5, worst rel err "
          f"{worst:.2e} <= 1e-4, {wall:.2f}s")


def test_criterion_5_pairing(default_ops, roundtrip_ops):
    start = time.perf_counter()
    # the verify suite's sample reach per family
    reach = {kind: reach for kind, *_, reach in _TRANSFORM_CASES}
    worst_forward = 0.0
    for kind, op in default_ops.items():
        z = _sample_disk((0.5, 1.0), per_circle=5, rmax=reach[kind])
        worst_forward = max(worst_forward, float(np.max(pairing_residuals(op, 8, z))))
    assert worst_forward <= 1e-7, worst_forward
    worst_reverse = 0.0
    for kind, op in roundtrip_ops.items():
        worst_reverse = max(worst_reverse,
                            max(reverse_pairing_residual(op, j) for j in range(9)))
    wall = time.perf_counter() - start
    assert worst_reverse <= 1e-6, worst_reverse
    assert wall < 30.0, wall
    print(f"criterion 5 PASS: pairing {worst_forward:.2e} <= 1e-7 (5 transforms, "
          f"j <= 8, 10 points), reverse {worst_reverse:.2e} <= 1e-6, {wall:.2f}s")


def test_criterion_6_isometry(default_ops):
    rng = np.random.default_rng(20250815)
    worst = 0.0
    for kind, op in default_ops.items():
        C = rng.standard_normal((20, 9)) + 1j * rng.standard_normal((20, 9))
        src, tgt = isometry_norms(op, C)
        worst = max(worst, float(np.max(np.abs(src - tgt))))
    assert worst <= 1e-6, worst
    print(f"criterion 6 PASS: isometry on 9 random degree-19 vectors per "
          f"transform, worst norm discrepancy {worst:.2e} <= 1e-6")


def test_criterion_7_round_trips(default_ops, roundtrip_ops):
    rng = np.random.default_rng(7)
    worst_integral = 0.0
    for kind, op in roundtrip_ops.items():
        values = np.zeros(16, dtype=complex)
        values[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c = CoefficientVector(values, op.kernel.source_basis(), 15)
        worst_integral = max(worst_integral, round_trip_integral(op, c))
    assert worst_integral <= 1e-4, worst_integral
    worst_series = 0.0
    for kind in ("dirichlet", "gen_bergman_dirichlet"):
        op = default_ops[kind]
        values = np.zeros(16, dtype=complex)
        values[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c = CoefficientVector(values, op.kernel.source_basis(), 15)
        worst_series = max(worst_series, round_trip_series(op, c))
    assert worst_series <= 1e-8, worst_series
    print(f"criterion 7 PASS: integral round trip {worst_integral:.2e} <= 1e-4, "
          f"coefficient round trip {worst_series:.2e} <= 1e-8")


def test_criterion_8_operators():
    report, failing = _report("operators")
    assert not failing, [c.id for c in failing]
    by_id = {c.id: c for c in report.checks}
    # the symbolic claims are exact, not merely small
    for cid in ("operators.holomorphic_annihilation",
                "operators.antiholomorphic_example",
                "operators.casimir_constant",
                "operators.specialization",
                "operators.point_spectrum"):
        assert by_id[cid].measured == 0.0, cid
    assert by_id["operators.eigen_residuals"].measured <= 1e-4
    print(f"criterion 8 PASS: exact symbolic checks at 0, eigen residuals "
          f"{by_id['operators.eigen_residuals'].measured:.2e} <= 1e-4, "
          f"spectra enumerations exact")


def test_criterion_9_reproducing_and_basis_sums(kernels_report):
    papadakis = next(c for c in kernels_report.checks if c.id == "kernels.papadakis")
    assert papadakis.tolerance == 1e-6
    assert papadakis.measured <= papadakis.tolerance
    rng = np.random.default_rng(9)
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
    assert worst <= 1e-8, worst
    print(f"criterion 9 PASS: basis sums vs closed kernels "
          f"{papadakis.measured:.2e} <= 1e-6, reproducing identity "
          f"{worst:.2e} <= 1e-8")


def test_criterion_10_cli_verify_all(capsys):
    start = time.perf_counter()
    code = cli_main(["verify", "all"])
    wall = time.perf_counter() - start
    capsys.readouterr()  # swallow the JSON report
    assert code == 0
    assert wall < 180.0, wall
    print(f"criterion 10 PASS: 'verify all' exit 0 in {wall:.1f}s < 180s")


# the ids of `verify all` in report order, each with its tolerance
_VERIFY_ALL_CHECKS = [
    ("special.hermite_gf", 1e-08),
    ("special.laguerre_gf", 1e-08),
    ("special.shifted_laguerre_gf", 1e-08),
    ("special.bilateral_gf", 1e-08),
    ("quadrature.line_moments", 1e-11),
    ("quadrature.halfline_moments", 1e-11),
    ("quadrature.disk_norms", 1e-11),
    ("quadrature.plane_moments", 1e-11),
    ("kernels.dual_path.classical", 1e-10),
    ("kernels.dual_path.second", 1e-10),
    ("kernels.dual_path.generalized_second", 1e-10),
    ("kernels.dual_path.dirichlet", 1e-07),
    ("kernels.dual_path.gen_bergman_dirichlet", 1e-05),
    ("kernels.omega_laplace", 0.0001),
    ("kernels.papadakis", 1e-06),
    ("transforms.pairing.classical", 1e-07),
    ("transforms.pairing.second", 1e-07),
    ("transforms.pairing.generalized_second", 1e-07),
    ("transforms.pairing.dirichlet", 1e-07),
    ("transforms.pairing.gen_bergman_dirichlet", 1e-07),
    ("transforms.reverse_pairing.classical", 1e-06),
    ("transforms.reverse_pairing.second", 1e-06),
    ("transforms.reverse_pairing.generalized_second", 1e-06),
    ("transforms.isometry.classical", 1e-06),
    ("transforms.isometry.second", 1e-06),
    ("transforms.isometry.generalized_second", 1e-06),
    ("transforms.isometry.dirichlet", 1e-06),
    ("transforms.isometry.gen_bergman_dirichlet", 1e-06),
    ("transforms.gram.classical", 1e-08),
    ("transforms.gram.second", 1e-08),
    ("transforms.gram.generalized_second", 1e-08),
    ("transforms.gram.dirichlet", 1e-08),
    ("transforms.gram.gen_bergman_dirichlet", 1e-08),
    ("transforms.round_trip.classical", 0.0001),
    ("transforms.round_trip.second", 0.0001),
    ("transforms.round_trip.generalized_second", 0.0001),
    ("transforms.round_trip_series.dirichlet", 1e-08),
    ("transforms.round_trip_series.gen_bergman_dirichlet", 1e-08),
    ("transforms.reproducing.weighted_bergman", 1e-08),
    ("operators.holomorphic_annihilation", 0.0),
    ("operators.antiholomorphic_example", 0.0),
    ("operators.casimir_constant", 0.0),
    ("operators.fd_order", 0.1),
    ("operators.fd_richardson", 1e-08),
    ("operators.eigen_residuals", 0.0001),
    ("operators.specialization", 0.0),
    ("operators.point_spectrum", 0.0),
    ("operators.membership_verdicts", 0.0),
    ("operators.membership_residual", 1e-10),
]


@pytest.fixture(scope="module")
def all_report():
    return run_suite("all")


def test_verify_all_ids_order_and_tolerances(all_report):
    # every check keeps its id, its place and its fixed tolerance
    assert [(c.id, c.tolerance) for c in all_report.checks] == _VERIFY_ALL_CHECKS


def test_verify_all_reports_each_suites_wall_time(all_report):
    meta = all_report.metadata
    suite_wall = meta["suite_wall_s"]
    assert tuple(suite_wall) == tuple(SUITES)
    assert all(seconds >= 0.0 for seconds in suite_wall.values())
    assert sum(suite_wall.values()) <= meta["wall_time_s"]
