"""Self-tests of the benchmark: the request generator and a tiny run of
every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from querygen import (BLOCK, FAMILIES, FD_STEP, GBD_PAIRS, X_MAX, Z_MAX,  # noqa: E402
                      RequestStream)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def blocks(seed, count=4):
    stream = RequestStream(seed, "w")
    return [stream.block() for _ in range(count)]


def test_stream_is_deterministic_per_seed():
    argv = [[r.argv for r in b] for b in blocks(7)]
    assert argv == [[r.argv for r in b] for b in blocks(7)]
    assert argv != [[r.argv for r in b] for b in blocks(8)]


def test_block_mix_is_fixed():
    for block in blocks(3):
        assert len(block) == BLOCK
        for command in ("kernel-eval", "transform"):
            assert sorted(r.family for r in block if r.command == command) == sorted(FAMILIES)
        assert sum(r.command == "operator" for r in block) == 2
        assert sum(r.command == "operator-fd" for r in block) == 2


def test_stream_keeps_inputs_in_domain():
    from bargmann.cli import build_parser

    parser = build_parser()
    for seed in range(40):
        for block in blocks(seed):
            for r in block:
                # every option carries its value after '=', so argparse never
                # mistakes a negative coordinate for a flag
                assert all(a.startswith("--") for a in r.argv[1:]), r.argv
                parser.parse_args(list(r.argv))
                assert abs(r.z) <= Z_MAX < 1.0
                if r.command == "operator-fd":
                    assert abs(r.z) + 2.0 * FD_STEP < 1.0
                if r.command == "kernel-eval":
                    assert abs(r.x) <= X_MAX
                    assert r.family == "classical" or r.x >= 0.0
                if r.command == "transform":
                    assert 1 <= len(r.payload) <= 16
                if r.family == "second":
                    assert r.params[0] > 0.0
                if r.family == "generalized_second":
                    nu, ell = r.params
                    assert nu > 0.5 and 0 <= ell <= math.floor(nu - 0.5)
                if r.family == "gen_bergman_dirichlet":
                    alpha, m = r.params
                    assert alpha > -1.0 and m >= 2


def test_operation_count_depends_only_on_run_length():
    # a seed must run and check the same operations on every run
    for workload in WORKLOADS.values():
        assert workload.operations(0) == 1
        assert workload.operations(20.0) == workload.operations(20.0) >= 1
        assert workload.operations(60.0) > workload.operations(20.0)
    # point-queries runs whole cycles through the (alpha, m) pairs
    assert WORKLOADS["point-queries"].operations(20 / 3) % (BLOCK * len(GBD_PAIRS)) == 0


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "disk-batch", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
