"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once with tracing off and once with tracing on; every
run must print every metric ``BENCHMARK.json`` names, with its unit, and
no operation may fail.  The last test reproduces the engine defect that
keeps ``-excluded`` terms out of the benchmark's query mix.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(bench_dir: str, *args: str):
    return subprocess.run(
        [sys.executable, os.path.join(bench_dir, "run.py"), *args],
        capture_output=True, text=True, timeout=900, cwd="/")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = _run(BENCH, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert res["failed"] == 0           # fail_frac == 0
    assert res["correct"] is True
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    # every metric is measured on every workload: none reads 0
    assert all(v["value"] != 0 for v in res["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_engine(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run must fail without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(BENCH, name), bench)
    out = _run(str(bench), "--workload", "serve_read", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.xfail(strict=True, reason="a range owner raises IndexError "
                   "when an excluded term has no posting in its range")
def test_query_exclusion_on_range_pool(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    sys.path.insert(0, ROOT)
    from hadoopsearchengine_ray.pipelines.build_index import build_index
    from hadoopsearchengine_ray.pipelines.serve import SearchServer

    # "gamma" occurs only in docs 0-4, i.e. only in the first of 2 ranges
    texts = [f"alpha beta doc{i:04d}" + (" gamma" if i < 5 else "")
             for i in range(10)]
    pq.write_table(pa.table({"doc_id": pa.array(range(10), pa.int64()),
                             "text": texts}), str(tmp_path / "c.parquet"))
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    try:
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"),
                    id_mode="column", text_col="text")
        srv = SearchServer(str(tmp_path / "idx"), num_ranges=2)
        try:
            r = srv.handle({"op": "query", "q": "alpha -gamma", "k": 10})
        finally:
            srv.close()
    finally:
        ray.shutdown()
    assert r["ok"], r.get("error", "")[-300:]
    assert sorted(h["doc_id"] for h in r["hits"]) == list(range(5, 10))
