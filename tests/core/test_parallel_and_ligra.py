"""Behavioural tests specific to the parallel kernel and the Ligra wrapper."""

import gc
import weakref

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import gee_ligra, gee_parallel, gee_python
from repro.core.gee_parallel import run_fused_ranges, shutdown_workers
from repro.core.gee_vectorized import scatter_add
from repro.graph import EdgeList, Graph, erdos_renyi, rmat
from repro.labels import random_partial_labels


class TestScatterAdd:
    def test_dense_and_sparse_paths_agree(self):
        rng = np.random.default_rng(0)
        out_dense = np.zeros(50)
        out_sparse = np.zeros(50)
        idx = rng.integers(0, 50, size=40)
        w = rng.standard_normal(40)
        # Force dense (many updates relative to output size).
        scatter_add(out_dense, idx, w)
        # Force sparse by growing the output: same indices into a larger array.
        big_dense = np.zeros(5000)
        big_sparse = np.zeros(5000)
        scatter_add(big_dense, idx, w)  # sparse path (40 << 5000/4)
        big_dense2 = np.zeros(5000)
        big_dense2 += np.bincount(idx, weights=w, minlength=5000)
        np.testing.assert_allclose(big_dense, big_dense2, atol=1e-12)
        out_ref = np.zeros(50)
        np.add.at(out_ref, idx, w)
        np.testing.assert_allclose(out_dense, out_ref, atol=1e-12)
        del out_sparse, big_sparse

    def test_empty_input_noop(self):
        out = np.zeros(5)
        scatter_add(out, np.empty(0, dtype=np.int64), np.empty(0))
        assert np.all(out == 0)


class TestOwnerRangeExecutor:
    def test_blocks_tile_the_full_embedding(self):
        edges = rmat(7, edge_factor=6, seed=3)
        y = random_partial_labels(edges.n_vertices, 6, 0.4, seed=1)
        plan = Graph.coerce(edges).plan(6, layout="sorted")
        ref = gee_python(edges, y, 6).embedding
        # An arbitrary 3-way split must tile to the full matrix.
        n = plan.n_vertices
        cuts = [0, n // 3, 2 * n // 3, n]
        out = np.full(n * 6, np.nan)
        workers, _ = run_fused_ranges(
            plan,
            plan.validate_labels(y),
            list(zip(cuts[:-1], cuts[1:])),
            out,
            n_workers=1,
            backend="test",
        )
        assert workers == 1
        np.testing.assert_allclose(out.reshape(n, 6), ref, atol=1e-9)

    def test_fused_row_ranges_cover_all_vertices(self):
        edges = rmat(9, edge_factor=10, seed=5)
        plan = Graph.coerce(edges).plan(4, layout="sorted")
        ranges = plan.fused_row_ranges(7)
        assert len(ranges) == 7
        assert ranges[0][0] == 0 and ranges[-1][1] == plan.n_vertices
        assert all(lo == prev_hi for (_, prev_hi), (lo, _) in zip(ranges, ranges[1:]))
        degrees = plan.total_degrees
        works = [int(degrees[lo:hi].sum()) for lo, hi in ranges]
        assert sum(works) == 2 * edges.n_edges


class TestGeeParallelBehaviour:
    def test_worker_count_reported(self):
        edges = erdos_renyi(60, 300, seed=1)
        y = random_partial_labels(60, 4, 0.5, seed=1)
        assert gee_parallel(edges, y, 4, n_workers=1).n_workers == 1
        assert gee_parallel(edges, y, 4, n_workers=3).n_workers == 3

    def test_oversubscribed_request_is_honored(self):
        # Explicit requests are honored exactly, even beyond the CPU count
        # (reproducing a worker sweep on a smaller machine is legitimate).
        edges = erdos_renyi(30, 100, seed=2)
        y = random_partial_labels(30, 3, 0.5, seed=2)
        res = gee_parallel(edges, y, 3, n_workers=2)
        assert res.n_workers == 2

    def test_absurd_worker_count_rejected(self):
        # ... but an absurd request raises instead of silently degrading.
        edges = erdos_renyi(30, 100, seed=2)
        y = random_partial_labels(30, 3, 0.5, seed=2)
        with pytest.raises(ValueError, match="n_workers=10000"):
            gee_parallel(edges, y, 3, n_workers=10_000)

    def test_negative_worker_count_rejected(self):
        # Regression: resolve_worker_count used to treat any requested <= 0
        # as "all CPUs", so a typo like n_workers=-3 silently succeeded
        # despite the documented None/0 contract.
        from repro.parallel import resolve_worker_count

        edges = erdos_renyi(30, 100, seed=2)
        y = random_partial_labels(30, 3, 0.5, seed=2)
        with pytest.raises(ValueError, match="negative"):
            resolve_worker_count(-3)
        with pytest.raises(ValueError, match="negative"):
            gee_parallel(edges, y, 3, n_workers=-3)

    def test_negative_worker_count_rejected_by_ligra_processes(self):
        # The Ligra process backend resolves its worker count at embed time
        # (the engine is built inside gee_ligra), so the regression check
        # must go through .embed, not just backend construction.
        from repro.backends import get_backend
        from repro.graph import Graph

        edges = erdos_renyi(30, 100, seed=2)
        y = random_partial_labels(30, 3, 0.5, seed=2)
        backend = get_backend("ligra-processes", n_workers=-2)
        with pytest.raises(ValueError, match="negative"):
            backend.embed(Graph.coerce(edges), y, 3)

    def test_timings_contain_phases(self):
        edges = erdos_renyi(50, 200, seed=3)
        y = random_partial_labels(50, 3, 0.5, seed=3)
        res = gee_parallel(edges, y, 3, n_workers=2)
        for key in ("preprocess", "projection", "edge_pass", "total"):
            assert key in res.timings
            assert res.timings[key] >= 0

    def test_empty_edge_list(self):
        edges = EdgeList([], [], n_vertices=5)
        y = np.array([0, 1, -1, 0, 1])
        res = gee_parallel(edges, y, n_workers=4)
        assert res.embedding.shape == (5, 2)
        assert np.all(res.embedding == 0)

    def test_repeated_calls_reuse_cached_graph(self):
        edges = erdos_renyi(80, 400, seed=4)
        csr = edges.to_csr()
        y = random_partial_labels(80, 4, 0.5, seed=4)
        first = gee_parallel(csr, y, 4, n_workers=2)
        second = gee_parallel(csr, y, 4, n_workers=2)
        np.testing.assert_allclose(first.embedding, second.embedding)
        # A raw CSR is a one-shot input (only a Graph keeps its plan warm);
        # the second call must not be slower by more than the noise floor
        # of a tiny run; mostly this asserts the second call still works.
        assert second.timings["preprocess"] <= first.timings["preprocess"] + 0.05

    def test_calls_on_one_graph_keep_distinct_results(self):
        # Both calls run on the Graph's one cached sorted plan; each result
        # must own its embedding rather than view that plan's buffer.
        edges = erdos_renyi(80, 400, seed=4)
        g = Graph.coerce(edges)
        y1 = random_partial_labels(80, 4, 0.5, seed=4)
        y2 = random_partial_labels(80, 4, 0.5, seed=5)
        first = gee_parallel(g, y1, 4, n_workers=2)
        second = gee_parallel(g, y2, 4, n_workers=2)
        for result, y in ((first, y1), (second, y2)):
            reference = gee_python(edges, y, 4).embedding
            np.testing.assert_allclose(result.embedding, reference, atol=1e-10)
        assert not np.shares_memory(first.embedding, second.embedding)

    def test_unsorted_plan_result_survives_sorted_plan_calls(self):
        # A layout="none" plan runs on the graph's sorted plan but must write
        # into its own buffer: a later call on the sorted plan leaves it be.
        edges = erdos_renyi(80, 400, seed=6)
        g = Graph.coerce(edges)
        y1 = random_partial_labels(80, 4, 0.5, seed=6)
        y2 = random_partial_labels(80, 4, 0.5, seed=7)
        result = get_backend("parallel", n_workers=2).embed_with_plan(g.plan(4), y1)
        kept = result.embedding.copy()
        get_backend("vectorized").embed_with_plan(g.plan(4, layout="sorted"), y2)
        np.testing.assert_array_equal(result.embedding, kept)
        reference = gee_python(edges, y1, 4).embedding
        np.testing.assert_allclose(kept, reference, atol=1e-10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda e, y: gee_parallel(e, y, 4, n_workers=2),
            lambda e, y: get_backend("parallel", n_workers=2).embed(e, y, 4),
        ],
        ids=["gee_parallel", "backend.embed"],
    )
    def test_one_shot_call_releases_its_graph(self, monkeypatch, call):
        # A one-shot input is compiled for this call alone; nothing may tie
        # the internal Graph into a reference cycle that outlives the call.
        edges = erdos_renyi(80, 400, seed=8)
        y = random_partial_labels(80, 4, 0.5, seed=8)
        made = []
        real_init = Graph.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(Graph, "__init__", recording_init)
        gc.disable()
        try:
            call(edges, y)
            assert made
            assert all(ref() is None for ref in made)
        finally:
            gc.enable()

    def test_shutdown_and_recreate(self):
        edges = erdos_renyi(40, 150, seed=5)
        y = random_partial_labels(40, 3, 0.5, seed=5)
        before = gee_parallel(edges, y, 3, n_workers=2).embedding
        shutdown_workers()
        after = gee_parallel(edges, y, 3, n_workers=2).embedding
        np.testing.assert_allclose(before, after)


class TestGeeLigraBehaviour:
    def test_method_name_includes_backend(self):
        edges = erdos_renyi(40, 150, seed=6)
        y = random_partial_labels(40, 3, 0.5, seed=6)
        assert gee_ligra(edges, y, backend="serial").method == "gee-ligra[serial]"
        assert gee_ligra(edges, y, backend="vectorized").method == "gee-ligra[vectorized]"

    def test_engine_reuse(self):
        from repro.ligra import LigraEngine

        edges = erdos_renyi(50, 200, seed=7)
        csr = edges.to_csr()
        y = random_partial_labels(50, 4, 0.5, seed=7)
        engine = LigraEngine(csr, backend="vectorized")
        a = gee_ligra(csr, y, 4, engine=engine).embedding
        b = gee_ligra(csr, y, 4, engine=engine).embedding
        np.testing.assert_allclose(a, b)

    def test_engine_graph_mismatch_rejected(self):
        from repro.ligra import LigraEngine

        edges = erdos_renyi(50, 200, seed=8)
        other = erdos_renyi(60, 200, seed=8)
        y = random_partial_labels(50, 4, 0.5, seed=8)
        engine = LigraEngine(other.to_csr())
        with pytest.raises(ValueError, match="different graph"):
            gee_ligra(edges, y, 4, engine=engine)

    def test_projection_timing_reported(self):
        edges = erdos_renyi(40, 100, seed=9)
        y = random_partial_labels(40, 3, 0.5, seed=9)
        res = gee_ligra(edges, y, backend="serial")
        assert res.timings["projection"] >= 0
        assert res.timings["edge_pass"] >= 0
