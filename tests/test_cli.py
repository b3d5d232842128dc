"""Command-line interface: output formats, exit codes, and the one verify
setting (the target-rule orders), all run in-process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bargmann
from bargmann import basis_matrix, cli, forward, kernels, make_transform, verify
from bargmann.cli import build_parser, main


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


def test_nodes_plane_row_count(capsys):
    code, out, _ = run_cli(capsys, ["nodes", "--rule", "plane", "--radial", "5",
                                    "--angular", "12"])
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 60
    total = sum(float(row.split(",")[2]) for row in rows)
    # total mass of exp(-|z|^2) dA over the plane
    assert total == pytest.approx(np.pi, rel=1e-12)


def test_nodes_missing_order_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["nodes", "--rule", "line"])
    assert code == 2
    assert "error:" in err


def test_nodes_plane_takes_polar_orders_not_n(capsys):
    # the plane rule is polar, sized like the disk rule
    code, out, err = run_cli(capsys, ["nodes", "--rule", "plane", "--n", "4"])
    assert code == 2
    assert out == ""
    assert "--radial and --angular" in err


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


# the classical kernel at z = 40i, x = 1 is pi^(-3/4) e^800 in modulus, past
# float64: the overflow's warnings must reach the CLI, which refuses the NaN
_LET_OVERFLOW = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


@_LET_OVERFLOW
def test_kernel_eval_refuses_a_non_finite_value(capsys):
    code, out, err = run_cli(capsys, ["kernel-eval", "--family", "classical",
                                      "--z", "0,40", "--x", "1", "--cross-check"])
    assert code == 2
    assert out == "" and err.startswith("error:") and "not finite" in err


@_LET_OVERFLOW
def test_transform_refuses_a_non_finite_value(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text("[1.0, 0.5]")
    code, out, err = run_cli(capsys, ["transform", "--family", "classical",
                                      "--input", str(path), "--at", "0,40"])
    assert code == 2
    assert out == "" and err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize("m", ["14", "17", "200"])
def test_kernel_eval_refuses_omega_past_its_last_order(m, capsys):
    # past m = 13 the Talbot sum leaves omega's 1e-13 bound; at m = 17 it
    # raised RuntimeError (exit 1), and at m = 200 every sample was 0, the
    # t-rule's SVD failed and the kernel past |z| = 0.9 was NaN: a usage
    # error now, with nothing printed
    code, out, err = run_cli(capsys, ["kernel-eval", "--family", "gen_bergman_dirichlet",
                                      "--alpha", "0.5", "--m", m, "--z", "0.3,0.1",
                                      "--x", "0.5"])
    assert code == 2
    assert out == "" and err.startswith("error:") and "m <= 13" in err


def test_kernel_eval_refuses_level_at_nu_minus_ell_one_half(capsys):
    # at nu - ell = 1/2 the kernel's norm constant is 0; the level is
    # outside the eigenspace family, a usage error, not a printed 0
    code, out, err = run_cli(capsys, ["kernel-eval", "--family", "generalized_second",
                                      "--nu", "1.5", "--ell", "1", "--z", "0.3,0.1",
                                      "--x", "0.5"])
    assert code == 2
    assert out == "" and "ell < nu - 1/2" in err


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


@pytest.mark.parametrize("terms", [{"1,1": 2}, {"1,1": [1, 0, 5]}, {"1,1": [True, 0]},
                                   {"1,1": [1]}, {"1,1": ["1", 0]}, [[1, 0]]])
def test_operator_rejects_malformed_terms(tmp_path, capsys, terms):
    # each value must be exactly two real numbers, not bools; anything else
    # is a usage error
    path = tmp_path / "g.json"
    path.write_text(json.dumps(terms))
    code, out, err = run_cli(capsys, ["operator", "--gamma", "2",
                                      "--apply", str(path)])
    assert code == 2
    assert out == "" and err


@pytest.mark.parametrize("coeffs", [[[True, False]], [True], [1.0, [0.5, 0.0, 1.0]]])
def test_transform_rejects_boolean_or_long_coefficients(tmp_path, capsys, coeffs):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(coeffs))
    code, out, err = run_cli(capsys, ["transform", "--family", "classical",
                                      "--input", str(path), "--at", "0,0"])
    assert code == 2
    assert out == "" and err


def test_kernel_eval_and_transform_share_one_weight(tmp_path, capsys, monkeypatch):
    # one omega weight per (alpha, m), its rungs (one Stieltjes pass) built
    # once across both commands
    kernels._default_omega.cache_clear()
    calls = []
    build = kernels._stieltjes
    monkeypatch.setattr(kernels, "_stieltjes",
                        lambda *args: calls.append(1) or build(*args))
    params = ["--family", "gen_bergman_dirichlet", "--alpha", "1.5", "--m", "3"]
    code, _, _ = run_cli(capsys, ["kernel-eval", *params, "--z", "0.4,0.3", "--x", "2.0"])
    assert code == 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps([1.0, [0.0, 0.5]]))
    code, _, _ = run_cli(capsys, ["transform", *params, "--input", str(path),
                                  "--at", "0.2,-0.1"])
    assert code == 0
    assert len(calls) == 1
    # the operator builds the weight and its rungs, the ones its kernel looks
    # up where |z| <= 0.9
    kernels._default_omega.cache_clear()
    make_transform("gen_bergman_dirichlet", 1.5, 3)
    assert "rungs" in vars(kernels._default_omega(1.5, 3))


@pytest.mark.parametrize("text", ['{"1,1": [1, 0], "01,1": [2, 0]}',
                                  '{" 1 , 1 ": [1, 0], "1,1": [2, 0]}',
                                  '{"1,1": [1, 0], "1,1": [2, 0]}'])
def test_operator_refuses_a_repeated_monomial(tmp_path, capsys, text):
    # two keys naming one (a, b), or one key written twice, would otherwise
    # keep only the last coefficient and exit 0
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["operator", "--gamma=2", f"--apply={path}"])
    assert code == 2
    assert out == "" and ("two terms name z^1 zbar^1" in err or "more than once" in err)


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
    assert payload["metadata"]["config"] == {"disk_radial": None, "disk_angular": None}


_WITHOUT_SCIPY = """
import json, sys
import bargmann, bargmann.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
sys.modules["scipy"] = None          # any import of scipy now raises
code = bargmann.cli.main(["verify", "special"])
metadata = "importlib.metadata" in sys.modules
print(json.dumps({"loaded": loaded, "code": code, "metadata": metadata}))
"""


def test_package_runs_without_scipy(tmp_path):
    # a fresh process: the import graph loads no scipy module, and a verify
    # suite runs with every scipy import made to fail; its report records
    # no scipy version and loads no importlib.metadata (~25 ms to import)
    src = Path(bargmann.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result == {"loaded": [], "code": 0, "metadata": False}
    report = json.loads("\n".join(lines[:-1]))
    assert report["passed"] is True
    assert "scipy" not in report["metadata"]


_SPAWNS = """
import json, sys
started = []
events = ("subprocess.Popen", "os.posix_spawn", "os.fork", "os.exec", "os.spawn", "os.system")
sys.addaudithook(lambda event, args: started.append([event, repr(args)[:80]])
                 if event in events else None)
import bargmann.cli
code = bargmann.cli.main(["verify", "special"])
print(json.dumps({"code": code, "started": started}))
"""


def test_verify_report_starts_no_process(tmp_path):
    # a fresh process's first report: platform.platform() would start
    # ``uname -p`` (~1.4 ms) for a processor field the report does not need
    src = Path(bargmann.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _SPAWNS], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1]) == {"code": 0, "started": []}
    assert json.loads("\n".join(lines[:-1]))["metadata"]["platform"]


def test_verify_report_records_environment(capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    code, out, _ = run_cli(capsys, ["verify", "special"])
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert {"config", "wall_time_s", "python", "numpy", "platform",
            "cpu_count", "blas_threads"} <= set(meta)
    assert meta["numpy"] == np.__version__
    assert meta["cpu_count"] >= 1
    assert meta["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(meta["blas_threads"]) >= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS"}


def test_verify_detects_failure_with_coarse_disk_rule(capsys):
    # a 4-radius polar rule cannot integrate the degree-40 inverse of the
    # round-trip operators exactly, so the checks that integrate over a rule
    # fail (12.9 to 1.4e6); the forward checks read a circle and pass;
    # --disk-radial sizes the Gaussian plane rule of the classical target too
    code, out, _ = run_cli(capsys, ["verify", "transforms", "--disk-radial", "4"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failing = {c["id"] for c in payload["checks"] if c["measured"] > c["tolerance"]}
    assert failing == {f"transforms.{check}.{kind}" for check in ("reverse_pairing", "round_trip")
                       for kind in ("classical", "second", "generalized_second")}


def test_verify_transforms_reports_its_target_orders(capsys):
    # (n_r, n_theta) of each round-trip operator's target rule, derived from
    # its truncations (J = 40) unless a flag overrides an entry; no check
    # reads the default operators' rules, so they are neither built nor
    # reported, and the Dirichlet-type targets have no rule
    orders = verify.run_suite("transforms").metadata["target_orders"]
    assert orders == {"classical": [21, 64], "second": [21, 64],
                      "generalized_second": [22, 64]}
    code, out, _ = run_cli(capsys, ["verify", "transforms", "--disk-radial", "8"])
    assert code == 0
    orders = json.loads(out)["metadata"]["target_orders"]
    assert orders == {kind: [8, 64] for kind in ("classical", "second", "generalized_second")}


def test_verify_bad_config_values(capsys):
    # RunConfig.validate refuses an order below 1: exit 2, nothing on stdout
    for flag, value in (("--disk-radial", "0"), ("--disk-angular", "-3")):
        code, out, err = run_cli(capsys, ["verify", "quadrature", flag, value])
        assert code == 2, (flag, value)
        assert out == "" and "error:" in err
    # the int parser refuses a NaN, and the settings that are constants are
    # not options: each is a usage error
    for argv in (["--disk-radial", "nan"], ["--tolerance-scale", "2"],
                 ["--fd-step", "0.002"], ["--config", "f"]):
        with pytest.raises(SystemExit) as stop:
            main(["verify", "quadrature", *argv])
        assert stop.value.code == 2, argv
        assert capsys.readouterr().out == ""


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


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main reuses one parser per process; a sequence of calls through it
    # prints what a fresh parser per call prints
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps([1.0, [0.0, 0.5], -0.25]))
    terms = tmp_path / "f.json"
    terms.write_text(json.dumps({"0,1": [1.0, 0.0], "2,1": [0.5, -1.0]}))
    sequence = [
        ["verify", "everything"],                      # argparse usage error
        ["nodes", "--rule", "line"],                   # ValueError, exit 2
        ["nodes", "--rule", "halfline", "--n", "3", "--alpha", "0.5"],
        ["nodes", "--rule", "line", "--n", "2"],       # --alpha left at its default
        ["kernel-eval", "--family", "second", "--delta", "1.5", "--z", "0.2,0.1",
         "--x", "0.7", "--cross-check", "--truncation", "40"],
        ["kernel-eval", "--family", "dirichlet", "--z", "0.3,-0.2", "--x", "1.5"],
        ["transform", "--family", "generalized_second", "--nu", "3", "--ell", "1",
         "--input", str(coeffs), "--at", "0.1,0.4"],
        ["operator", "--gamma", "2", "--casimir", "--apply", str(terms)],
        ["operator", "--gamma", "1.5", "--apply", str(terms), "--fd", "--at", "0.2,0.1"],
        ["verify", "special", "--disk-radial", "40"],
        ["verify", "special"],
    ]

    def run_all():
        results = []
        for argv in sequence:
            try:
                code = main(list(argv))
            except SystemExit as stop:
                code = ("exit", stop.code)
            out = capsys.readouterr()
            if argv[0] == "verify" and code == 0:  # the wall time differs per run
                report = json.loads(out.out)
                del report["metadata"]["wall_time_s"]
                del report["metadata"]["suite_wall_s"]
                results.append((code, report, out.err))
            else:
                results.append((code, out.out, out.err))
        return results

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    reused = run_all()
    assert len(built) == 1
    assert [r[0] for r in reused] == [("exit", 2), 2] + [0] * (len(sequence) - 2)
    assert reused[-2][1]["metadata"]["config"]["disk_radial"] == 40
    assert reused[-1][1]["metadata"]["config"]["disk_radial"] is None
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert run_all() == reused
    assert build_parser() is not build_parser()
