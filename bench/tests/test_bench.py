"""Tests of the benchmark's own code: inputs, tracer, and whole runs.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import json
import random
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import inputs
import spans
import workloads
from conftest import BENCH

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_inputs():
    import cylrsk

    assert inputs.perm_cases(7, cylrsk) == inputs.perm_cases(7, cylrsk)
    assert inputs.fill_cases(7) == inputs.fill_cases(7)
    assert inputs.count_cases(7) == inputs.count_cases(7)
    assert inputs.fill_cases(7) != inputs.fill_cases(8)
    assert inputs.perm_cases(7, cylrsk) != inputs.perm_cases(8, cylrsk)


def test_sampled_pairs_are_bounded_standard_chains():
    from cylrsk import SemistandardTableau

    rng = random.Random(0)
    for d, L in ((2, 3), (3, 4), (5, 5)):
        p, q = inputs.sample_standard_pair(rng, 30, d, L)
        assert p[-1] == q[-1] and sum(p[-1]) == 30
        for chain in (p, q):
            t = SemistandardTableau(chain)
            assert t.is_standard() and t.is_cylindric(d, L)


def test_degree_is_one_past_the_plain_boundary():
    from cylrsk import Filling, rsk

    rng = random.Random(1)
    for _ in range(20):
        grid = inputs.dense_filling(rng, rng.randint(1, 9), rng.randint(1, 9))
        f = Filling((len(grid[0]),) * len(grid), tuple(tuple(r) for r in grid))
        assert inputs.longest_descending_chain(grid) == rsk(f).max_length()


def test_reference_counts_match_stored_digests():
    expected = json.loads((BENCH / "expected_counts.json").read_text())
    for d, L, n_max, _ in inputs.COUNT_TABLES:
        ref = inputs.reference_pairs(d, L, n_max)
        assert workloads._digest(ref) == expected[f"{d},{L},{n_max}"]


def test_self_times_on_a_synthetic_tree():
    # root [0,10]; children [1,4] and [3.5,6] overlap, [9,12] leaves the root
    parent = array("i", [-1, 0, 1, 0, 0])
    start = array("d", [0.0, 1.0, 2.0, 3.5, 9.0])
    end = array("d", [10.0, 4.0, 3.0, 6.0, 12.0])
    assert list(spans.self_times(parent, start, end)) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_summary_counts_recursion_once():
    names = ["a", "b"]
    name = array("i", [0, 1, 0, 0])
    parent = array("i", [-1, 0, 1, -1])
    start = array("d", [0.0, 1.0, 2.0, 10.0])
    end = array("d", [5.0, 4.0, 3.0, 11.0])
    out = spans.summarize(names, name, parent, start, end, total_names=["a", "b"])
    assert out["a"] == {"calls": 3, "self_s": pytest.approx(4.0), "total_s": pytest.approx(6.0)}
    assert out["b"] == {"calls": 1, "self_s": pytest.approx(2.0), "total_s": pytest.approx(3.0)}


def _snapshot():
    """Every function and class reachable from a cylrsk module, by identity."""
    snap = {}
    for m in spans._cylrsk_modules():
        for key, value in vars(m).items():
            if callable(value):
                snap[m.__name__, key] = value
            if isinstance(value, type):
                snap[m.__name__, key, "__init__"] = vars(value).get("__init__")
            if type(value) is dict:
                for k, v in value.items():
                    if callable(v):
                        snap[m.__name__, key, k] = v
    return snap


def test_tracer_restores_every_cylrsk_function(tmp_path):
    import run
    from cylrsk import cli, correspond, counting, growth, partitions

    before = _snapshot()
    tracer = spans.Tracer(run.TRACED)
    tracer.install()
    try:
        assert growth.interlaces is not partitions.interlaces.__wrapped__
        assert counting.ROUTES["pairs"] is counting.tableau_pair_count
        correspond.wilf_bijection((3, 4, 1, 2), 2, 3)
        counting.count_table(2, 3, 5)
        src = tmp_path / "f.txt"
        src.write_text("[2,2]\n0 1\n1 0\n")  # an increasing pair: order-1 pattern
        assert cli.main(["grow", "--rule", "drsk", "--d", "1", str(src)]) == 2
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    summary = tracer.summary()
    assert summary["correspond.wilf_bijection"]["calls"] == 1
    assert summary["partitions.interlaces"]["calls"] > 0
    assert summary["counting.trig_count"]["calls"] == 5
    assert tracer.errors == {"growth": 1}  # PatternContainment crossed into cli


def test_spans_file_round_trip(tmp_path):
    from cylrsk import correspond

    tracer = spans.Tracer(["correspond.cylindric_rs", "partitions.interlaces"])
    tracer.install()
    try:
        correspond.cylindric_rs((3, 4, 1, 2), 2, 3)
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.bin.gz"
    tracer.write(path)
    names, arrays = spans.read(path)
    assert names == tracer.names
    for field, _ in spans.FIELDS:
        assert arrays[field] == getattr(tracer, field)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["perm_rs", "fill_cli", "count"])
def test_smoke_run(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] is True
    if workload == "count":
        # one table per pass sits in the trig route's known drift range
        assert result["failed"] * len(inputs.COUNT_TABLES) == result["attempted"]
    else:
        assert result["failed"] == 0
        assert result["metrics"]["ok_rate"]["value"] == 1.0


def test_traced_run_reports_every_layer_metric():
    proc = _run("count", 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["counting.brute_count.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("count", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
