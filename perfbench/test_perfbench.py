"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_runs_every_workload_in_seconds(workload, trace):
    start = time.perf_counter()
    code, result = _main("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
    assert time.perf_counter() - start < 30
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_wrong_reference_is_counted_as_failed():
    bench = run.Bench("family-sweep", 2, smoke=True)
    bench.ref["family-sweep"]["dmax star 3"]["expect"]["results.d_max"] = 2
    run.end_to_end(bench, 0.0)
    assert bench.failed == 1
    assert bench.failures[0]["query"] == "dmax star 3"

    bench = run.Bench("oracle-xcheck", 2, smoke=True)
    bench.plan[0]["member"] = not bench.plan[0]["member"]
    run.end_to_end(bench, 0.0)
    assert bench.failed == 1
    assert bench.failures[0]["query"] == "oracle 0"


def test_crash_and_exit_code_are_failures():
    bench = run.Bench("toric-cset", 0, smoke=True)
    bench.setup()
    bench.run_query(workloads.Query("bad family", ["dmax", "nosuch", "3"], expect={"exit": 0}))
    bench.run_query(workloads.Query("raises", call=lambda mods: 1 // 0, expect={"exit": 0}))
    assert bench.failed == 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_answers_and_counts_repeat(workload):
    counts = []
    for _ in range(2):
        bench = run.Bench(workload, 4, smoke=True)
        metrics = run.traced(bench)
        assert bench.failures == []  # traced and counted answers equal untraced
        counts.append({name: value for name, value in metrics.items()
                       if name.endswith((".calls", ".made", ".ops", ".probes",
                                         "operators_checked", "hit_frac"))})
    assert counts[0] == counts[1]
    # the warm-up touches every layer, so no count or time reads 0
    assert all(counts[0].values())
    assert all(value for name, value in metrics.items() if name.endswith("s"))


def test_brute_force_reference_matches_program_on_small_graphs():
    mods = run.import_program()
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randint(4, 7)
        edges = workloads.random_connected_graph(rng, n)
        g = mods.graphs.Graph.from_edges(n, edges)
        for d in (2, 3):
            got = mods.analysis.c_set(mods.analysis.SetQuery(g, d))
            assert workloads.brute_c_set(n, edges, d) == [b.bits for b in got.members]


def test_relabeling_keeps_reference_answers():
    bench = run.Bench("toric-cset", 9, smoke=True)
    bench.setup()
    path = bench.queries[0].argv[3]
    with open(path) as fh:
        relabeled = fh.read()
    assert relabeled != bench.mods.graphs.format_edge_list(bench.mods.graphs.toric(3))
    bench.run_pass()
    assert bench.failed == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toric-cset",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
