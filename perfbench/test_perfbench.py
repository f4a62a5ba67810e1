"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Smoke runs of every workload on reduced inputs must pass all their
checks and print exactly the metric names BENCHMARK.json declares; the
independent checker must reject deliberately wrong designs, grids and
certificates with the violation counts the package's verifiers report.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from hmols import compose, cyclotomic, designs, formats  # noqa: E402
from hmols.fixtures import hmols_pair_2_4  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_passes_checks_and_names_every_metric(workload, trace):
    res = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--smoke")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_the_package_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench("--workload", "plan-exec", "--seed", "1", "--seconds", "1",
                    cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()


def htd_of(design):
    return (design.blocks, design.group_size, design.index, design.holes)


def test_checker_accepts_valid_and_counts_like_the_package():
    htd = designs.hmols_to_htd(hmols_pair_2_4())
    assert check.htd_problems(htd.blocks, 4, 2, 4, *htd_of(htd)[1:]) == []
    rng = random.Random(0)
    for _ in range(20):
        blocks = np.array(htd.blocks)
        b, i = rng.randrange(len(blocks)), rng.randrange(htd.k)
        blocks[b, i] = (blocks[b, i] + rng.randrange(1, htd.group_size)) % htd.group_size
        bad = designs.BlockDesign.new(htd.k, htd.group_size, 1, blocks,
                                      hole_kind=htd.hole_kind, holes=htd.holes)
        count = check.design_violations(*htd_of(bad))
        assert count == len(designs.verify_design(bad).violations) > 0
        assert check.htd_problems(bad.blocks, 4, 2, 4, *htd_of(bad)[1:])
        assert check.design_digest(*htd_of(bad)) != check.design_digest(*htd_of(htd))


def test_checker_rejects_wrong_grid_with_the_package_count(tmp_path):
    good = tmp_path / "h.grid"
    good.write_text(formats.grid_dumps(hmols_pair_2_4()))
    grid = check.load_hmols_grid(good)
    assert check.hmols_violations(grid["squares"], grid["holes"], 8) == 0
    rng = random.Random(1)
    for _ in range(20):
        check.corrupt_grid(good, tmp_path / "bad.grid", rng)
        bad = check.load_hmols_grid(tmp_path / "bad.grid")
        count = check.hmols_violations(bad["squares"], bad["holes"], 8)
        obj = formats.grid_loads((tmp_path / "bad.grid").read_text())
        assert count == len(designs.verify_hmols(obj).violations) > 0


def test_checker_rejects_wrong_htd_parameters():
    htd = designs.hmols_to_htd(hmols_pair_2_4())
    assert check.htd_problems(htd.blocks, 4, 2, 5, *htd_of(htd)[1:])
    assert check.htd_problems(htd.blocks, 3, 2, 4, *htd_of(htd)[1:])
    assert check.htd_problems(htd.blocks[:-1], 4, 2, 4, *htd_of(htd)[1:])


def test_checker_rejects_wrong_certificate():
    sol = cyclotomic.search_uvectors(2, 3, list(range(6)), 37, seed=0)
    cert = sol.to_cert()
    assert check.cert_problems(cert, 2, 3, 37, list(range(6))) == []
    assert check.cert_problems(cert, 2, 3, 37, list(range(1, 7)))
    for i, r in [(0, 1), (1, 0), (1, 5)]:
        bad = json.loads(json.dumps(cert))
        bad["u_vectors"][i][r] = bad["u_vectors"][i][(r + 1) % 6]
        assert check.cert_problems(bad, 2, 3, 37, list(range(6)))
    bad = dict(cert, omega=cert["omega"] ** 2 % 37)
    assert check.cert_problems(bad, 2, 3, 37, list(range(6)))


def test_tracer_wraps_cross_module_bindings_and_restores_them():
    original = designs.verify_design
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert compose.verify_design is designs.verify_design is not original
        compose.td_product(designs.td_from_field(3, 3), designs.td_from_field(3, 4))
    finally:
        tracer.uninstall()
    assert compose.verify_design is designs.verify_design is original
    assert cyclotomic.verify_design is original
    layer = tracer.layer_metrics()
    assert layer["designs.verify_design.calls"] == 3
    assert layer["designs.verify.distinct_ratio"] == 1.0
    assert layer["compose.blocks_out"] == 144
    assert layer["gf.FieldSpec.add.calls"] > 0
    assert set(layer) == {name for name, _ in spans.METRICS} - {"trace.overhead_ratio"}
