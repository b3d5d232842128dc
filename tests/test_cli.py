"""Command-line interface: output formats, exit codes, and the config
precedence chain (flags over file over defaults), all run in-process."""

import json

import numpy as np
import pytest

from bargmann import basis_matrix, forward, make_transform
from bargmann.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nodes_halfline_single_point(capsys):
    code, out, _ = run_cli(capsys, ["nodes", "--rule", "halfline", "--n", "1"])
    assert code == 0
    assert out.strip() == "1, 0, 1"


def test_nodes_line_single_point(capsys):
    code, out, _ = run_cli(capsys, ["nodes", "--rule", "line", "--n", "1"])
    assert code == 0
    re, im, w = (float(part) for part in out.strip().split(","))
    assert (re, im) == (0.0, 0.0)
    assert w == pytest.approx(np.sqrt(np.pi), rel=1e-16)


def test_nodes_disk_row_count(capsys):
    code, out, _ = run_cli(capsys, ["nodes", "--rule", "disk", "--radial", "4",
                                    "--angular", "8", "--gamma", "1.0"])
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 32
    total = sum(float(row.split(",")[2]) for row in rows)
    # total mass of (1-|z|^2) dA over the disk
    assert total == pytest.approx(np.pi / 2.0, rel=1e-12)


def test_nodes_missing_order_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["nodes", "--rule", "line"])
    assert code == 2
    assert "error:" in err


def test_kernel_eval_dirichlet_origin(capsys):
    code, out, _ = run_cli(capsys, ["kernel-eval", "--family", "dirichlet",
                                    "--z", "0,0", "--x", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "dirichlet"
    assert payload["value_re"] == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-12)
    assert payload["value_im"] == pytest.approx(0.0, abs=1e-15)


def test_kernel_eval_cross_check(capsys):
    code, out, _ = run_cli(capsys, ["kernel-eval", "--family", "second",
                                    "--delta", "1.5", "--z", "0.2,0.1",
                                    "--x", "0.7", "--cross-check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["discrepancy"] < 1e-10
    assert payload["cross_check_re"] == pytest.approx(payload["value_re"], rel=1e-9)


def test_kernel_eval_missing_parameter(capsys):
    code, _, err = run_cli(capsys, ["kernel-eval", "--family", "second",
                                    "--z", "0.2,0.1", "--x", "0.7"])
    assert code == 2
    assert "--delta" in err


def test_transform_matches_library(tmp_path, capsys):
    coeffs = [1.0, [0.0, 0.5], -0.25]
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs))
    code, out, _ = run_cli(capsys, ["transform", "--family", "classical",
                                    "--input", str(path), "--at", "0.3,-0.2"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value_re", "value_im", "truncation", "est_error"}

    op = make_transform("classical")
    values = np.array([1.0, 0.5j, -0.25])
    fv = basis_matrix(op.kernel.source_basis(), 2, op.source_rule.nodes) @ values
    want = complex(forward(op, fv, complex(0.3, -0.2)))
    assert payload["value_re"] == pytest.approx(want.real, rel=1e-12)
    assert payload["value_im"] == pytest.approx(want.imag, rel=1e-12)
    assert payload["est_error"] < 1e-9


def test_transform_rejects_degree_above_truncation(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([1.0] * 80))
    code, _, err = run_cli(capsys, ["transform", "--family", "classical",
                                    "--input", str(path), "--at", "0,0"])
    assert code == 2
    assert "truncation" in err


def test_transform_rejects_bad_coefficients(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"not": "a list"}))
    code, _, _ = run_cli(capsys, ["transform", "--family", "classical",
                                  "--input", str(path), "--at", "0,0"])
    assert code == 2


@pytest.mark.parametrize("text", ["[1.0, NaN]", "[1.0, [Infinity, 0]]"])
def test_transform_rejects_non_finite_coefficients(tmp_path, capsys, text):
    # json reads NaN and Infinity, which would come back as a NaN value
    path = tmp_path / "c.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["transform", "--family", "classical",
                                      "--input", str(path), "--at", "0,0"])
    assert code == 2
    assert out == "" and "finite" in err


@pytest.mark.parametrize("extra", [[], ["--fd", "--at", "0.1,0.1"]])
def test_operator_rejects_non_finite_terms(tmp_path, capsys, extra):
    path = tmp_path / "g.json"
    path.write_text('{"1,1": [NaN, 0]}')
    code, out, err = run_cli(capsys, ["operator", "--gamma", "2",
                                      "--apply", str(path)] + extra)
    assert code == 2
    assert out == "" and "finite" in err


def test_operator_exact_action(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"0,1": [1.0, 0.0]}))
    code, out, _ = run_cli(capsys, ["operator", "--gamma", "2.0",
                                    "--apply", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"0,1": [8.0, 0.0], "1,2": [-8.0, 0.0]}


def test_operator_fd_close_to_exact(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"0,1": [1.0, 0.0]}))
    code, out, _ = run_cli(capsys, ["operator", "--gamma", "2.0",
                                    "--apply", str(path), "--fd",
                                    "--at", "0.3,0.2"])
    assert code == 0
    payload = json.loads(out)
    z = complex(0.3, 0.2)
    want = 8.0 * np.conj(z) * (1.0 - abs(z) ** 2)
    assert payload["value_re"] == pytest.approx(want.real, abs=1e-6)
    assert payload["value_im"] == pytest.approx(want.imag, abs=1e-6)


def test_operator_fd_requires_point(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"0,1": [1.0, 0.0]}))
    code, _, err = run_cli(capsys, ["operator", "--gamma", "2.0",
                                    "--apply", str(path), "--fd"])
    assert code == 2
    assert "--at" in err


def test_verify_quadrature_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "quadrature"])
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "quadrature"
    assert payload["passed"] is True
    assert all(c["measured"] <= c["tolerance"] for c in payload["checks"])
    assert payload["metadata"]["config"]["source_order"] == 120


def test_verify_report_records_environment(capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    code, out, _ = run_cli(capsys, ["verify", "special"])
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert {"config", "wall_time_s", "python", "numpy", "scipy", "platform",
            "cpu_count", "blas_threads"} <= set(meta)
    assert meta["numpy"] == np.__version__
    assert meta["cpu_count"] >= 1
    assert meta["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(meta["blas_threads"]) >= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS"}


def test_verify_flag_overrides_config_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# narrow run\nsource_order = 80\nplane_order = 30\n")
    monkeypatch.setenv("BARGMANN_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, ["verify", "quadrature",
                                    "--plane-order", "24"])
    assert code == 0
    payload = json.loads(out)
    # flag beats file beats default
    assert payload["metadata"]["config"]["plane_order"] == 24
    assert payload["metadata"]["config"]["source_order"] == 80
    assert payload["metadata"]["config"]["disk_radial"] == 120


def test_verify_explicit_config_path(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fd_step = 0.002\n")
    code, out, _ = run_cli(capsys, ["verify", "operators", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["config"]["fd_step"] == 0.002


def test_verify_detects_failure_with_coarse_disk_rule(capsys):
    # an 8-radius disk rule cannot integrate the degree-24 Gram matrix of
    # the disk targets exactly, so their isometry and Gram checks fail
    code, out, _ = run_cli(capsys, ["verify", "transforms", "--disk-radial", "8"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failing = {c["id"] for c in payload["checks"] if c["measured"] > c["tolerance"]}
    assert failing == {f"transforms.{check}.{kind}" for check in ("isometry", "gram")
                       for kind in ("second", "generalized_second")}


def test_verify_bad_config_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fd_step = -0.5\n")
    code, _, err = run_cli(capsys, ["verify", "quadrature", "--config", str(cfg)])
    assert code == 2
    assert "error:" in err

    cfg.write_text("no_such_knob = 3\n")
    code, _, _ = run_cli(capsys, ["verify", "quadrature", "--config", str(cfg)])
    assert code == 2

    # NaN compares false against every range check and would reach the
    # report as the non-JSON token NaN
    cfg.write_text("tolerance_scale = nan\n")
    code, _, _ = run_cli(capsys, ["verify", "quadrature", "--config", str(cfg)])
    assert code == 2
    for flag in ("--fd-step", "--tolerance-scale"):
        for value in ("nan", "inf"):
            code, out, err = run_cli(capsys, ["verify", "quadrature", flag, value])
            assert code == 2, (flag, value)
            assert out == "" and "error:" in err


def test_verify_missing_config_file(capsys):
    code, _, err = run_cli(capsys, ["verify", "quadrature",
                                    "--config", "/no/such/file.cfg"])
    assert code == 2
    assert "error:" in err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "everything"])
    assert info.value.code == 2


def test_bad_point_syntax_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["kernel-eval", "--family", "classical", "--z", "0.3", "--x", "1"])
    assert info.value.code == 2


def test_non_finite_input_is_usage_error(capsys):
    # json.dump would print a NaN result as the non-JSON token NaN
    for argv in (["--family", "dirichlet", "--z", "nan,0", "--x", "1"],
                 ["--family", "classical", "--z", "0.1,inf", "--x", "1"],
                 ["--family", "classical", "--z", "0.1,0", "--x", "-inf"],
                 ["--family", "second", "--delta", "nan", "--z", "0.1,0", "--x", "1"]):
        with pytest.raises(SystemExit) as info:
            main(["kernel-eval"] + argv)
        assert info.value.code == 2, argv
    with pytest.raises(SystemExit) as info:
        main(["operator", "--gamma", "nan", "--apply", "unread.json"])
    assert info.value.code == 2
