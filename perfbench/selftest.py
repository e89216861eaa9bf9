"""Self-tests of the benchmark, at a tiny scale.

Run from the repository root::

    python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import machine
import run
import workloads

run._import_program()

BENCH = run.load_json(run.ROOT / "BENCHMARK.json")
SPEC = run.load_json(run.HERE / "spec.json")
TINY = 0.02


@pytest.fixture(autouse=True)
def small_triad(monkeypatch):
    # The real triad streams three arrays of 4x the LLC; 1 MiB is enough here.
    monkeypatch.setattr(machine, "llc_bytes", lambda: 1 << 18)


def _run(name, trace, seconds=0.3):
    result = run.run_workload(name, seed=3, seconds=seconds, trace=trace, scale=TINY)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    return run._emit(result, declared, seconds)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    final = _run(name, trace)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert {m: v["unit"] for m, v in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric, value in final["metrics"].items():
        assert np.isfinite(value["value"]), metric
        target = SPEC["per_layer"].get(metric)
        if target and name not in target["on"]:
            assert value["value"] == 0.0, metric
    if not trace:
        assert all(value["value"] > 0 for value in final["metrics"].values())


def test_zeroed_owner_row_window_is_a_failed_op(monkeypatch):
    """A whole worker's row window coming back zero must not pass."""
    original = workloads.EmbedWorkload.run_op

    def run_op(self, y, ledger):
        result = original(self, y, ledger)
        if run_op.calls == 1:
            lo, hi = self.plan.fused_row_ranges(self.n_workers)[-1]
            result.embedding[lo:hi] = 0.0
        run_op.calls += 1
        return result

    run_op.calls = 0
    monkeypatch.setattr(workloads.EmbedWorkload, "run_op", run_op)
    final = _run("embed-parallel", trace=False)
    assert final["attempted"] >= 2
    assert final["failed"] == 1
    assert not final["correct"]


def test_column_mass_check_catches_a_zeroed_window():
    rng = np.random.default_rng(0)
    n, k = 200, 4
    src, dst = rng.integers(0, n, 1000), rng.integers(0, n, 1000)
    y = rng.integers(-1, k, n)
    Z = np.zeros((n, k))
    np.add.at(Z, (src[y[dst] >= 0], y[dst][y[dst] >= 0]), 1.0)
    np.add.at(Z, (dst[y[src] >= 0], y[src][y[src] >= 0]), 1.0)
    Z /= np.maximum(np.bincount(y[y >= 0], minlength=k), 1)
    wdeg = workloads.weighted_degrees(src, dst, None, n)
    assert workloads.column_mass_error(Z, y, wdeg, k) is None
    Z[100:150] = 0.0
    assert "column mass" in workloads.column_mass_error(Z, y, wdeg, k)


def test_traffic_model_is_bench_native_s():
    bench_native = pytest.importorskip("bench_native")
    from repro import Graph
    from repro.graph.generators import rmat

    plan = Graph.coerce(rmat(8, edge_factor=8, seed=0)).plan(5, layout="sorted")
    y = np.arange(plan.n_vertices, dtype=np.int64) % 5
    assert workloads.edge_pass_traffic_bytes(plan, y) == bench_native.edge_pass_traffic_bytes(plan, y)


def test_inputs_depend_only_on_the_seed():
    a = workloads.EmbedWorkload(seed=5, scale=TINY, n_workers=1, parallel=False)
    b = workloads.EmbedWorkload(seed=5, scale=TINY, n_workers=1, parallel=False)
    a.generate()
    b.generate()
    assert np.array_equal(a.edges.src, b.edges.src)
    assert np.array_equal(a.labels(7), b.labels(7))
    assert not np.array_equal(a.labels(7), a.labels(8))


def test_benchmark_json_and_spec_agree():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(SPEC["per_layer"])
    for target in SPEC["per_layer"].values():
        assert set(target["on"]) <= set(names)
        assert set(target["moves"]) <= {m["name"] for m in BENCH["end_to_end"]} | set(run.PRINTED_ONLY)
    assert SPEC["seeds"]["default"] != SPEC["seeds"]["held_out"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "embed-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
