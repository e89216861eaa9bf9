"""Locality-optimized layouts: permutation invariance, narrowing, memory.

The fused sorted/blocked layouts only *reorder commutative additions* (and
hoist the per-edge projection scale into a per-column rescale), so every
``supports_layout`` backend × layout combination must reproduce the
unpermuted pure-Python reference on the conformance-matrix edge cases to
1e-12.  The suite also pins the int32 index-narrowing boundary at
``n*K = 2^31`` and the plan-buffer reuse property (no fresh ``(n*K,)``
output temporary on the layout plan path — the satellite bugfix).
"""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

from repro.backends import backend_capabilities, get_backend, list_backends
from repro.core import gee_python
from repro.core.plan import (
    LAYOUTS,
    ChunkedPlan,
    EmbedPlan,
    choose_index_dtype,
    compile_fused_layout,
)
from repro.graph import Graph
from repro.graph.edgelist import EdgeList

ATOL = 1e-12
K = 5

LAYOUT_BACKENDS = sorted(
    n for n in list_backends() if backend_capabilities(n).supports_layout
)
PERMUTING_LAYOUTS = [l for l in LAYOUTS if l != "none"]


def _labels(n, rng, labelled="partial"):
    y = rng.integers(0, K, size=n).astype(np.int64)
    if labelled == "partial":
        y[rng.random(n) < 0.35] = -1
        if np.all(y == -1):
            y[0] = 0
    return y


def _case(name, labelled):
    """Conformance-matrix structural edge cases (small, reference-checkable)."""
    rng = np.random.default_rng(hash(name) % (2**32))
    if name == "weighted":
        src = rng.integers(0, 40, 120)
        dst = rng.integers(0, 40, 120)
        w = rng.uniform(0.1, 4.0, 120)
        edges = EdgeList(src, dst, w, 40)
    elif name == "unweighted":
        src = rng.integers(0, 40, 120)
        dst = rng.integers(0, 40, 120)
        edges = EdgeList(src, dst, None, 40)
    elif name == "self-loops":
        src = rng.integers(0, 30, 90)
        dst = rng.integers(0, 30, 90)
        src[:15] = dst[:15]
        edges = EdgeList(src, dst, rng.uniform(0.5, 2.0, 90), 30)
    elif name == "duplicate-edges":
        src = rng.integers(0, 20, 30)
        dst = rng.integers(0, 20, 30)
        src = np.concatenate([src, src, src])
        dst = np.concatenate([dst, dst, dst])
        edges = EdgeList(src, dst, rng.uniform(0.1, 2.0, src.size), 20)
    elif name == "isolated-vertices":
        src = rng.integers(0, 25, 60)
        dst = rng.integers(0, 25, 60)
        edges = EdgeList(src, dst, None, 45)  # vertices 25..44 isolated
    else:  # pragma: no cover - guard against typos in parametrize
        raise AssertionError(name)
    return edges, _labels(edges.n_vertices, rng, labelled)


CASES = ["weighted", "unweighted", "self-loops", "duplicate-edges", "isolated-vertices"]


class TestPermutationInvariance:
    """All supports_layout backends × layouts × structural edge cases."""

    @pytest.mark.parametrize("backend_name", LAYOUT_BACKENDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("labelled", ["partial", "full"])
    def test_matches_unpermuted_reference(self, backend_name, layout, case, labelled):
        edges, y = _case(case, labelled)
        reference = gee_python(edges, y, K).embedding
        graph = Graph.coerce(edges)
        plan = graph.plan(K, layout=layout)
        caps = backend_capabilities(backend_name)
        # The blocked kernel is inherently serial (buckets cannot be split
        # into single-writer row ranges), so an explicit worker count is
        # only legal for the sorted layout and for arrival-order plans,
        # which the parallel backend runs on the graph's sorted plan.
        workers = 2 if caps.supports_n_workers and layout != "blocked" else None
        backend = get_backend(backend_name, n_workers=workers)
        result = backend.embed_with_plan(plan, y)
        np.testing.assert_allclose(result.embedding, reference, atol=ATOL)
        if caps.supports_sharding or (backend_name == "parallel" and layout == "none"):
            # Sharded execution, and parallel execution of an arrival-order
            # plan, run the graph's owner-sorted incidence regardless of the
            # plan's layout, and say so.
            assert result.layout == "sorted"
        elif backend_name == "auto" and layout == "none":
            assert result.layout in LAYOUTS  # a "none" plan leaves auto free
        else:
            assert result.layout in (layout, "none")  # auto may re-choose

    def test_parallel_blocked_rejects_explicit_workers(self):
        edges, y = _case("weighted", "partial")
        plan = Graph.coerce(edges).plan(K, layout="blocked")
        with pytest.raises(RuntimeError, match="blocked"):
            get_backend("parallel", n_workers=2).embed_with_plan(plan, y)

    @pytest.mark.parametrize("chunk_edges", [1, 17, 10_000])
    def test_chunked_sorted_incidence(self, chunk_edges):
        edges, y = _case("weighted", "partial")
        reference = gee_python(edges, y, K).embedding
        graph = Graph.coerce(edges)
        plan = graph.plan(K, chunk_edges=chunk_edges, layout="sorted")
        assert isinstance(plan, ChunkedPlan) and plan.layout == "sorted"
        for backend_name in ("vectorized", "parallel"):
            result = get_backend(backend_name).embed_with_plan(plan, y)
            np.testing.assert_allclose(result.embedding, reference, atol=ATOL)

    def test_sparse_rejects_sorted_incidence_chunked_plan(self):
        """The two-sided A+Aᵀ matmul would double-count incidence blocks
        (each edge appears twice) — the sparse backend must refuse, not
        silently return a wrong embedding."""
        edges, y = _case("weighted", "partial")
        plan = Graph.coerce(edges).plan(K, chunk_edges=32, layout="sorted")
        with pytest.raises(ValueError, match="sorted-incidence"):
            get_backend("sparse").embed_with_plan(plan, y)

    def test_chunked_incidence_plan_reports_true_edge_count(self):
        edges, _ = _case("weighted", "partial")
        g = Graph.coerce(edges)
        plain = g.plan(K, chunk_edges=32)
        incidence = g.plan(K, chunk_edges=32, layout="sorted")
        assert incidence.n_edges == plain.n_edges == edges.n_edges
        assert incidence.source.n_edges == 2 * edges.n_edges

    def test_layout_plan_equals_default_plan(self):
        edges, y = _case("weighted", "partial")
        graph = Graph.coerce(edges)
        backend = get_backend("vectorized")
        base = backend.embed_with_plan(graph.plan(K), y).detached()
        for layout in PERMUTING_LAYOUTS:
            other = backend.embed_with_plan(graph.plan(K, layout=layout), y)
            np.testing.assert_allclose(other.embedding, base.embedding, atol=ATOL)


class TestPlanLayoutCaching:
    def test_default_plan_stays_layout_preserving(self):
        edges, _ = _case("unweighted", "partial")
        g = Graph.coerce(edges)
        plan = g.plan(K)
        assert plan.layout == "none"
        assert g.plan(K) is plan  # bare-K cache key unchanged

    def test_each_layout_is_a_separate_cached_plan(self):
        edges, _ = _case("unweighted", "partial")
        g = Graph.coerce(edges)
        base = g.plan(K)
        sorted_plan = g.plan(K, layout="sorted")
        blocked_plan = g.plan(K, layout="blocked")
        assert base is not sorted_plan is not blocked_plan
        assert g.plan(K, layout="sorted") is sorted_plan
        assert sorted_plan.layout == "sorted"
        assert blocked_plan.layout == "blocked"

    def test_unknown_layout_rejected(self):
        edges, _ = _case("unweighted", "partial")
        g = Graph.coerce(edges)
        with pytest.raises(ValueError, match="layout"):
            g.plan(K, layout="zorted")

    def test_chunked_blocked_rejected(self):
        edges, _ = _case("unweighted", "partial")
        g = Graph.coerce(edges)
        with pytest.raises(ValueError, match="chunked plans support"):
            g.plan(K, chunk_edges=16, layout="blocked")

    def test_fused_on_none_plan_raises(self):
        edges, _ = _case("unweighted", "partial")
        plan = Graph.coerce(edges).plan(K)
        with pytest.raises(ValueError, match="layout-preserving"):
            plan.fused

    def test_auto_layout_resolves_to_concrete(self):
        edges, y = _case("weighted", "full")
        g = Graph.coerce(edges)
        plan = g.plan(K, layout="auto")
        assert plan.layout in LAYOUTS
        result = get_backend("vectorized").embed_with_plan(plan, y)
        reference = gee_python(edges, y, K).embedding
        np.testing.assert_allclose(result.embedding, reference, atol=ATOL)


class TestIndexNarrowing:
    def test_dtype_boundary_fuzzed(self):
        """``n*K < 2^31`` → int32, else int64 — fuzzed around the boundary."""
        rng = np.random.default_rng(0)
        limit = 2**31
        for _ in range(300):
            k = int(rng.integers(1, 1 << 12))
            # Aim n*K near the boundary, both sides, plus random magnitudes.
            near = limit // k + int(rng.integers(-2, 3))
            n = max(1, near if rng.random() < 0.7 else int(rng.integers(1, 1 << 24)))
            expected = np.int32 if n * k < limit else np.int64
            assert choose_index_dtype(n, k) is expected, (n, k)
        # Exact boundary: 2^31 - 1 cells is the last int32-safe size.
        assert choose_index_dtype(limit - 1, 1) is np.int32
        assert choose_index_dtype(limit, 1) is np.int64

    @pytest.mark.parametrize("layout", PERMUTING_LAYOUTS)
    def test_int64_fallback_is_exact(self, layout):
        """Force the int64 path via a tiny limit; results must not change."""
        edges, y = _case("weighted", "partial")
        reference = gee_python(edges, y, K).embedding
        graph = Graph.coerce(edges)
        plan = graph.plan(K, layout=layout)
        narrow = plan.fused
        assert narrow.index_dtype is np.int32
        wide = compile_fused_layout(
            plan.src,
            plan.dst,
            plan.weights,
            plan.n_vertices,
            K,
            layout,
            int32_limit=1,  # every graph is now "too big" for int32
        )
        assert wide.index_dtype is np.int64
        plan._fused = wide  # swap the compiled artifact under the kernel
        result = get_backend("vectorized").embed_with_plan(plan, y)
        np.testing.assert_allclose(result.embedding, reference, atol=ATOL)
        np.testing.assert_array_equal(
            np.sort(narrow.owner_flat.astype(np.int64)),
            np.sort(wide.owner_flat),
        )


class TestPlanBufferReuse:
    """The satellite bugfix: layout plan paths must not allocate a fresh
    ``(n*K,)`` output temporary — the block-local segment sums write into
    the plan's reused buffer with only L2-sized temporaries."""

    def _peak_during_embed(self, backend, plan, y):
        backend.embed_with_plan(plan, y)  # warm: compile layout, buffers
        tracemalloc.start()
        backend.embed_with_plan(plan, y)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_sorted_plan_path_avoids_output_temporary(self):
        rng = np.random.default_rng(3)
        n, e, k = 6000, 20000, 40
        edges = EdgeList(rng.integers(0, n, e), rng.integers(0, n, e), None, n)
        y = rng.integers(0, k, n)
        graph = Graph.coerce(edges)
        backend = get_backend("vectorized")
        out_bytes = n * k * 8

        peak_sorted = self._peak_during_embed(backend, graph.plan(k, layout="sorted"), y)
        peak_none = self._peak_during_embed(backend, graph.plan(k), y)
        # The arrival-order dense path allocates a full output-sized
        # bincount temporary; the fused path must stay well under one.
        assert peak_none >= out_bytes
        assert peak_sorted < out_bytes
        assert peak_sorted < peak_none

    def test_layout_result_views_plan_buffer(self):
        edges, y = _case("weighted", "full")
        g = Graph.coerce(edges)
        plan = g.plan(K, layout="sorted")
        backend = get_backend("vectorized")
        first = backend.embed_with_plan(plan, y)
        assert first.buffer_view
        kept = first.detached()
        second = backend.embed_with_plan(plan, np.roll(y, 1))
        assert second.embedding is not kept.embedding
        np.testing.assert_allclose(
            kept.embedding, gee_python(edges, y, K).embedding, atol=ATOL
        )


# --------------------------------------------------------------------------- #
# Push/pull directions of the sorted owner-range kernel
# --------------------------------------------------------------------------- #
DIRECTION_ATOL = 1e-10
#: Labels use classes 0..DIRECTION_K-2 only: the last class has no members.
DIRECTION_K = 5
DIRECTION_LABELLINGS = ["none", "one", "1%", "10%", "below", "above", "full"]


def _direction_graph(weighted, n=430, seed=0):
    """Skewed degrees, self-loops, duplicate edges, 30 isolated vertices."""
    rng = np.random.default_rng(seed)
    core = n - 30
    src = (core * rng.random(3000) ** 2).astype(np.int64)
    dst = rng.integers(0, core, 3000)
    src[:40] = dst[:40]
    src = np.concatenate([src, src[:100]])
    dst = np.concatenate([dst, dst[:100]])
    w = rng.uniform(0.1, 4.0, src.size) if weighted else None
    return EdgeList(src, dst, w, n)


#: The kernel module (``repro.core.gee_vectorized`` is also a function name).
KERNELS = importlib.import_module("repro.core.gee_vectorized")


def _share(weighted):
    return KERNELS._PUSH_SHARE_WEIGHTED if weighted else KERNELS._PUSH_SHARE


def _direction_labels(edges, labelling, seed=0):
    """Labels for one row of the matrix; the last class stays empty."""
    rng = np.random.default_rng(seed)
    n = edges.n_vertices
    y = np.full(n, -1, dtype=np.int64)
    classes = rng.integers(0, DIRECTION_K - 1, n)
    deg = np.bincount(edges.src, minlength=n) + np.bincount(edges.dst, minlength=n)
    if labelling == "full":
        return classes
    if labelling == "one":
        v = int(np.argmax(deg))
        y[v] = classes[v]
    elif labelling in ("1%", "10%"):
        chosen = rng.permutation(n)[: max(1, round(n * float(labelling[:-1]) / 100))]
        y[chosen] = classes[chosen]
    elif labelling in ("below", "above"):
        # Label vertices in random order until their incidences cross the
        # switch share: "below" stops just short of it, "above" just past.
        order = rng.permutation(np.flatnonzero(deg))
        cum = np.cumsum(deg[order])
        limit = _share(edges.weights is not None) * 2 * edges.n_edges
        last = int(np.searchsorted(cum, limit, side="left"))
        chosen = order[: last + (1 if labelling == "above" else 0)]
        y[chosen] = classes[chosen]
    return y


def _force(monkeypatch, direction):
    """Pin the kernel's direction: share 2 always pushes, share 0 never."""
    share = 2.0 if direction == "push" else 0.0
    monkeypatch.setattr(KERNELS, "_PUSH_SHARE", share)
    monkeypatch.setattr(KERNELS, "_PUSH_SHARE_WEIGHTED", share)


def _raw_sums_reference(edges, y, k):
    """``S[u, Y[v]] += w`` over both endpoints of every edge, by np.add.at."""
    S = np.zeros((edges.n_vertices, k))
    w = edges.effective_weights()
    for a, b in ((edges.src, edges.dst), (edges.dst, edges.src)):
        known = y[b] >= 0
        np.add.at(S, (a[known], y[b][known]), w[known])
    return S


class TestPushPullDirections:
    """Push ≡ pull ≡ the sparse oracle at every labelled fraction."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("labelling", DIRECTION_LABELLINGS)
    def test_directions_match_sparse(self, monkeypatch, weighted, labelling):
        edges = _direction_graph(weighted)
        y = _direction_labels(edges, labelling)
        reference = get_backend("sparse").embed(edges, y, DIRECTION_K).embedding
        plan = Graph.coerce(edges).plan(DIRECTION_K, layout="sorted")
        backend = get_backend("vectorized")

        push, m = KERNELS._fused_direction(plan.fused.row_ptr, y, weighted)
        expected_push = labelling not in ("above", "full")
        assert push is expected_push, (labelling, m / plan.fused.n_incidences)
        natural = backend.embed_with_plan(plan, y).detached().embedding
        forced = {}
        for direction in ("push", "pull"):
            with monkeypatch.context() as mp:
                _force(mp, direction)
                forced[direction] = backend.embed_with_plan(plan, y).detached().embedding
            np.testing.assert_allclose(
                forced[direction], reference, atol=DIRECTION_ATOL, rtol=0
            )
        assert np.array_equal(natural, forced["push" if push else "pull"])
        assert not np.any(natural[:, DIRECTION_K - 1])  # the empty class

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_int64_index_plan(self, monkeypatch, weighted, direction):
        """``int32_limit=1`` forces int64 indices: the push's total-order
        fallback must give the narrow plan's sums bit for bit."""
        edges = _direction_graph(weighted, seed=1)
        y = _direction_labels(edges, "10%", seed=1)
        plan = Graph.coerce(edges).plan(DIRECTION_K, layout="sorted")
        backend = get_backend("vectorized")
        _force(monkeypatch, direction)
        narrow = backend.embed_with_plan(plan, y).detached().embedding
        plan._fused = compile_fused_layout(
            plan.src,
            plan.dst,
            None if plan.unit_weights else plan.weights,
            plan.n_vertices,
            DIRECTION_K,
            "sorted",
            int32_limit=1,
        )
        assert plan.fused.index_dtype is np.int64
        wide = backend.embed_with_plan(plan, y).embedding
        assert np.array_equal(wide, narrow)
        reference = gee_python(edges, y, DIRECTION_K).embedding
        np.testing.assert_allclose(wide, reference, atol=DIRECTION_ATOL, rtol=0)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("labelling", ["one", "10%", "full"])
    def test_raw_sums_without_rescale(self, monkeypatch, weighted, labelling):
        from repro.shard import ShardedGraph

        edges = _direction_graph(weighted, seed=2)
        y = _direction_labels(edges, labelling, seed=2)
        reference = _raw_sums_reference(edges, y, DIRECTION_K)
        graph = Graph.coerce(edges)
        sums = {}
        for direction in ("push", "pull"):
            with monkeypatch.context() as mp:
                _force(mp, direction)
                for n_shards in (1, 3):
                    sums[direction, n_shards] = ShardedGraph(graph, n_shards).raw_sums(
                        y, DIRECTION_K
                    )
                    np.testing.assert_allclose(
                        sums[direction, n_shards], reference, atol=DIRECTION_ATOL, rtol=0
                    )
            assert np.array_equal(sums[direction, 1], sums[direction, 3])

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_bitwise_across_workers_and_shards(self, weighted):
        """At 10% labelled every partition pushes and gets the same bits."""
        edges = _direction_graph(weighted, n=3000, seed=3)
        y = _direction_labels(edges, "10%", seed=3)
        graph = Graph.coerce(edges)
        plan = graph.plan(DIRECTION_K, layout="sorted")
        assert KERNELS._fused_direction(plan.fused.row_ptr, y, weighted)[0]
        serial = get_backend("vectorized").embed_with_plan(plan, y).detached().embedding
        np.testing.assert_allclose(
            serial, gee_python(edges, y, DIRECTION_K).embedding, atol=DIRECTION_ATOL
        )
        for n_workers in (1, 2, 4):
            parallel = get_backend("parallel", n_workers=n_workers).embed_with_plan(plan, y)
            assert np.array_equal(parallel.embedding, serial)
            for n_shards in (1, 2, 7):
                sharded = graph.shard(n_shards).embed(y, DIRECTION_K, n_workers=n_workers)
                assert np.array_equal(sharded.embedding, serial), (n_workers, n_shards)

    def test_counters_name_the_direction(self):
        from repro import obs

        edges = _direction_graph(False)
        plan = Graph.coerce(edges).plan(DIRECTION_K, layout="sorted")
        backend = get_backend("vectorized")
        row_ptr = plan.fused.row_ptr
        obs.enable()
        try:
            for labelling in ("10%", "full"):
                y = _direction_labels(edges, labelling)
                obs.metrics.reset()
                backend.embed_with_plan(plan, y)
                counters = obs.metrics.counters()
                m = int(np.diff(row_ptr)[y >= 0].sum())
                if labelling == "full":
                    assert counters.get("kernel.pull_incidences") == row_ptr[-1]
                    assert "kernel.push_incidences" not in counters
                else:
                    assert counters.get("kernel.push_incidences") == m
                    assert "kernel.pull_incidences" not in counters
        finally:
            obs.disable()
            obs.metrics.reset()
            obs.clear()

    @pytest.mark.parametrize("fully_labelled", [True, False], ids=["full", "partial"])
    def test_range_call_widens_no_incidence_array(self, fully_labelled):
        """A pull over ``[0, n)`` allocates no ``2E × 8``-byte temporary:
        the row pointer locates the blocks, and no int32 incidence array is
        widened to int64 (as ``searchsorted`` does with int64 needles)."""
        rng = np.random.default_rng(4)
        n, e, k = 20_000, 200_000, 50
        edges = EdgeList(rng.integers(0, n, e), rng.integers(0, n, e), None, n)
        fused = Graph.coerce(edges).plan(k, layout="sorted").fused
        assert fused.index_dtype is np.int32
        assert fused.row_cuts.size > 10  # many blocks: each bincount is small
        y_idx = rng.integers(0 if fully_labelled else -1, k, n).astype(np.int32)
        out = np.empty(n * k)

        def call():
            KERNELS.accumulate_fused_rows_sorted(
                out,
                fused.owner_flat,
                fused.partner,
                None,
                y_idx,
                k,
                fused.rows_per_block,
                0,
                n,
                row_ptr=fused.row_ptr,
                fully_labelled=fully_labelled,
            )

        call()  # warm
        tracemalloc.start()
        call()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        incidences = 2 * e
        # Fully labelled: one int32 gather plus block-sized temporaries.
        # Partial adds its mask and the compacted flats.
        bound = incidences * (8 if fully_labelled else 12)
        assert peak < bound, peak
