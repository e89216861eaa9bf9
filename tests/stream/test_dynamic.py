"""DynamicGraph: staging, commit semantics, versioned snapshots, plan carry."""

from __future__ import annotations

import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from repro.core import gee_unsupervised
from repro.core.api import GraphEncoderEmbedding
from repro.graph import EdgeList, Graph, erdos_renyi
from repro.stream import DynamicGraph, MissingEdgeError
from repro.stream.mutations import match_edge_instances


def _multigraph():
    """A weighted multigraph: (1, 2) three times with distinct weights."""
    return EdgeList(
        src=np.array([0, 1, 1, 1, 2, 3]),
        dst=np.array([1, 2, 2, 2, 3, 0]),
        weights=np.array([1.0, 10.0, 20.0, 30.0, 2.0, 3.0]),
        n_vertices=4,
    )


class TestStagingAndCommit:
    def test_empty_commit_is_noop(self):
        dyn = DynamicGraph(_multigraph())
        assert dyn.commit() is None
        assert dyn.version == 0

    def test_add_remove_update_in_one_batch(self):
        dyn = DynamicGraph(_multigraph())
        dyn.add_edges([3], [2], [7.0])
        dyn.remove_edges([0], [1])
        dyn.update_weights([2], [3], [5.0])
        delta = dyn.commit()
        assert dyn.version == 1
        assert delta.n_added == 1 and delta.n_removed == 1 and delta.n_updated == 1
        assert not delta.append_only
        edges = dyn.graph.edges
        assert edges.n_edges == 6
        # removed (0, 1); updated (2, 3) to 5.0; appended (3, 2, 7.0)
        assert not np.any((edges.src == 0) & (edges.dst == 1))
        pos = np.flatnonzero((edges.src == 2) & (edges.dst == 3))
        assert edges.weights[pos].tolist() == [5.0]
        assert edges.weights[-1] == 7.0

    def test_staged_fluent_chaining_and_discard(self):
        dyn = DynamicGraph(_multigraph())
        dyn.add_edges([0], [2]).remove_edges([0], [1]).add_vertices(2)
        assert dyn.n_staged > 0
        dyn.discard_staged()
        assert dyn.n_staged == 0
        assert dyn.commit() is None

    def test_add_vertices_grows_vertex_set(self):
        dyn = DynamicGraph(_multigraph())
        dyn.add_vertices(3)
        dyn.add_edges([4, 6], [0, 5])
        delta = dyn.commit()
        assert dyn.n_vertices == 7
        assert delta.n_vertices_before == 4 and delta.n_vertices_after == 7
        assert not delta.append_only  # vertex growth is structural

    def test_new_endpoint_without_add_vertices_rejected(self):
        dyn = DynamicGraph(_multigraph())
        dyn.add_edges([4], [0])
        with pytest.raises(ValueError, match="add_vertices"):
            dyn.commit()
        # failed commits leave the graph untouched
        assert dyn.version == 0 and dyn.n_vertices == 4

    def test_update_weights_materialises_on_unweighted_graph(self):
        dyn = DynamicGraph(EdgeList(np.array([0, 1]), np.array([1, 2]), None, 3))
        dyn.update_weights([0], [1], [4.0])
        dyn.commit()
        edges = dyn.graph.edges
        assert edges.is_weighted
        assert edges.weights.tolist() == [4.0, 1.0]

    def test_removal_records_actual_instance_weights(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([1], [2])
        delta = dyn.commit()
        # first instance by edge position carries weight 10.0
        assert delta.removed_weights.tolist() == [10.0]

    def test_compaction_spans_many_blocks(self):
        """Removal + update + append on a graph far larger than one block."""
        n = 400
        n_edges = 100_000  # distinct pairs, so positions are unambiguous
        pos = np.arange(n_edges)
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.5, 2.0, n_edges)
        dyn = DynamicGraph(EdgeList(pos % n, pos // n, weights, n))
        removed = np.sort(rng.choice(n_edges, 700, replace=False))
        updated = rng.choice(np.setdiff1d(pos, removed), 50, replace=False)
        dyn.remove_edges(removed % n, removed // n)
        dyn.update_weights(updated % n, updated // n, np.full(50, 9.0))
        dyn.add_edges([1, 2], [3, 4], [5.0, 6.0])
        dyn.commit()
        expect_w = weights.copy()
        expect_w[updated] = 9.0
        survivors = np.delete(pos, removed)
        edges = dyn.graph.edges
        np.testing.assert_array_equal(edges.src, np.append(survivors % n, [1, 2]))
        np.testing.assert_array_equal(edges.dst, np.append(survivors // n, [3, 4]))
        np.testing.assert_array_equal(edges.weights, np.append(expect_w[survivors], [5.0, 6.0]))


class TestMultigraphMultiplicity:
    """remove_edges must remove exactly the requested multiplicity."""

    def test_single_request_removes_single_instance(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([1], [2])
        dyn.commit()
        edges = dyn.graph.edges
        remaining = np.flatnonzero((edges.src == 1) & (edges.dst == 2))
        assert remaining.size == 2
        assert sorted(edges.weights[remaining].tolist()) == [20.0, 30.0]

    def test_multiplicity_two_removes_two_instances(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([1, 1], [2, 2])
        dyn.commit()
        edges = dyn.graph.edges
        remaining = np.flatnonzero((edges.src == 1) & (edges.dst == 2))
        assert edges.weights[remaining].tolist() == [30.0]

    def test_exceeding_multiplicity_raises(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([1] * 4, [2] * 4)
        with pytest.raises(MissingEdgeError, match="multiplicity"):
            dyn.commit()
        assert dyn.graph.edges.n_edges == 6  # untouched

    def test_missing_edge_raises(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([3], [3])
        with pytest.raises(MissingEdgeError):
            dyn.commit()

    def test_update_matches_surviving_instances_only(self):
        dyn = DynamicGraph(_multigraph())
        # Remove the first (1,2) instance; the update must then hit the
        # second (weight 20.0), not the removed one.
        dyn.remove_edges([1], [2])
        dyn.update_weights([1], [2], [99.0])
        delta = dyn.commit()
        assert delta.updated_old_weights.tolist() == [20.0]
        edges = dyn.graph.edges
        pos = np.flatnonzero((edges.src == 1) & (edges.dst == 2))
        assert sorted(edges.weights[pos].tolist()) == [30.0, 99.0]


class TestCommitAllocations:
    def test_append_only_unweighted_commit_allocates_only_new_columns(self):
        """An append-only commit on an unweighted graph needs exactly the two
        new endpoint columns plus O(Δ) bookkeeping: no length-E keep mask,
        and no materialised unit weights to gather zero removed weights from.
        """
        n_edges, n_added = 200_000, 64
        rng = np.random.default_rng(11)
        dyn = DynamicGraph(
            EdgeList(rng.integers(0, 1000, n_edges), rng.integers(0, 1000, n_edges), None, 1000)
        )
        dyn.add_edges(rng.integers(0, 1000, n_added), rng.integers(0, 1000, n_added))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            delta = dyn.commit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert delta.append_only and not dyn.graph.edges.is_weighted
        new_columns = 2 * 8 * (n_edges + n_added)
        assert peak - before <= new_columns + 64 * n_added + 64 * 1024


def _match_by_full_scan(src, dst, req_src, req_dst, n):
    """The original matcher, kept as an oracle: binary-search every edge key."""
    ekey = src * n + dst
    rkey = req_src * n + req_dst
    req_keys = np.unique(rkey)
    idx = np.searchsorted(req_keys, ekey)
    idx[idx == req_keys.size] = 0
    candidates = np.flatnonzero(req_keys[idx] == ekey)
    ckey = ekey[candidates]
    order = np.argsort(ckey, kind="stable")
    sorted_keys = ckey[order]
    rorder = np.argsort(rkey, kind="stable")
    rsorted = rkey[rorder]
    occurrence = np.arange(rsorted.size) - np.searchsorted(rsorted, rsorted, side="left")
    lo = np.searchsorted(sorted_keys, rsorted, side="left")
    available = np.searchsorted(sorted_keys, rsorted, side="right") - lo
    short = occurrence >= available
    if np.any(short):
        bad = int(np.flatnonzero(short)[0])
        pair = (int(rsorted[bad] // n), int(rsorted[bad] % n))
        raise MissingEdgeError(
            f"edge {pair} requested with multiplicity "
            f"{int(np.sum(rsorted == rsorted[bad]))} but the graph holds "
            f"{int(available[bad])} instance(s); removals/updates must not "
            "exceed the stored multiplicity"
        )
    out = np.empty(rkey.size, dtype=np.int64)
    out[rorder] = candidates[order[lo + occurrence]]
    return out


def _match_brute_force(src, dst, req_src, req_dst, excluded=()):
    """Each pair's sorted positions, consumed in request order."""
    instances = defaultdict(list)
    for pos, pair in enumerate(zip(src.tolist(), dst.tolist())):
        if pos not in excluded:
            instances[pair].append(pos)
    used = defaultdict(int)
    out = []
    for pair in zip(req_src.tolist(), req_dst.tolist()):
        if used[pair] >= len(instances[pair]):
            raise MissingEdgeError(str(pair))
        out.append(instances[pair][used[pair]])
        used[pair] += 1
    return np.array(out, dtype=np.int64)


def _fuzz_case(rng):
    """A small multigraph plus a request of one kind against it."""
    n = int(rng.integers(1, 12))
    s = int(rng.integers(1, 60))
    # A few distinct pairs drawn with replacement: duplicates are common.
    pool_src = rng.integers(0, n, size=max(1, s // 3))
    pool_dst = rng.integers(0, n, size=pool_src.size)
    loops = rng.random(pool_src.size) < 0.2
    pool_dst[loops] = pool_src[loops]  # self-loops
    pool_src[0], pool_dst[0] = 0, n - 1  # the id range's two ends
    pick = rng.integers(0, pool_src.size, size=s)
    src, dst = pool_src[pick], pool_dst[pick]
    kind = ("valid", "repeated", "over", "false_positive", "random")[int(rng.integers(0, 5))]
    present = set(zip(src.tolist(), dst.tolist()))
    m = int(rng.integers(1, s + 1))
    if kind == "valid":
        chosen = rng.permutation(s)[:m]
        req_src, req_dst = src[chosen], dst[chosen]
    elif kind == "repeated":
        # One stored pair requested exactly as often as it is stored.
        pos = int(rng.integers(0, s))
        mult = int(np.sum((src == src[pos]) & (dst == dst[pos])))
        req_src = np.full(mult, src[pos])
        req_dst = np.full(mult, dst[pos])
    elif kind == "over":
        pos = int(rng.integers(0, s))
        mult = int(np.sum((src == src[pos]) & (dst == dst[pos])))
        req_src = np.full(mult + 1, src[pos])
        req_dst = np.full(mult + 1, dst[pos])
    elif kind == "false_positive":
        # A requested source and destination that each exist, never as a pair.
        absent = [
            (u, v) for u in set(src.tolist()) for v in set(dst.tolist()) if (u, v) not in present
        ]
        if not absent:
            return None
        u, v = absent[int(rng.integers(0, len(absent)))]
        chosen = rng.permutation(s)[: m - 1]
        req_src = np.append(src[chosen], u)
        req_dst = np.append(dst[chosen], v)
    else:
        req_src = rng.integers(0, n, size=m)
        req_dst = rng.integers(0, n, size=m)
    order = rng.permutation(req_src.size)
    return kind, n, src, dst, req_src[order], req_dst[order]


def test_match_edge_instances_fuzz_against_oracles():
    """~200 seeded cases: bit-identical positions, identical errors."""
    rng = np.random.default_rng(20261017)
    seen = defaultdict(int)
    for case in range(220):
        drawn = _fuzz_case(rng)
        if drawn is None:
            continue
        kind, n, src, dst, req_src, req_dst = drawn
        try:
            expected = _match_by_full_scan(src, dst, req_src, req_dst, n)
        except MissingEdgeError as exc:
            with pytest.raises(MissingEdgeError) as got:
                match_edge_instances(src, dst, req_src, req_dst, n)
            assert str(got.value) == str(exc), f"case {case} ({kind})"
            with pytest.raises(MissingEdgeError):
                _match_brute_force(src, dst, req_src, req_dst)
            seen[kind + ":raised"] += 1
            continue
        got = match_edge_instances(src, dst, req_src, req_dst, n)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected, err_msg=f"case {case} ({kind})")
        np.testing.assert_array_equal(
            got, _match_brute_force(src, dst, req_src, req_dst), err_msg=f"case {case}"
        )
        seen[kind] += 1
    for kind in ("valid", "repeated", "random:raised", "over:raised", "false_positive:raised"):
        assert seen[kind] > 0, f"fuzz never produced a {kind!r} case: {dict(seen)}"
    assert seen["over"] == seen["false_positive"] == 0


def test_match_edge_instances_exclude_fuzz():
    """Matching with exclusions equals matching over the surviving edges."""
    rng = np.random.default_rng(7)
    for case in range(200):
        drawn = _fuzz_case(rng)
        if drawn is None:
            continue
        _, n, src, dst, req_src, req_dst = drawn
        exclude = rng.permutation(src.size)[: int(rng.integers(0, src.size + 1))]
        survivors = np.setdiff1d(np.arange(src.size), exclude)
        try:
            local = _match_by_full_scan(src[survivors], dst[survivors], req_src, req_dst, n)
        except MissingEdgeError as exc:
            with pytest.raises(MissingEdgeError) as got:
                match_edge_instances(src, dst, req_src, req_dst, n, exclude=exclude)
            assert str(got.value) == str(exc), f"case {case}"
            continue
        got = match_edge_instances(src, dst, req_src, req_dst, n, exclude=exclude)
        np.testing.assert_array_equal(got, survivors[local], err_msg=f"case {case}")
        np.testing.assert_array_equal(
            got,
            _match_brute_force(src, dst, req_src, req_dst, set(exclude.tolist())),
            err_msg=f"case {case}",
        )


class TestSnapshotsAndLog:
    def test_snapshot_is_immutable_under_commits(self):
        base = erdos_renyi(40, 160, weighted=True, seed=2)
        dyn = DynamicGraph(base)
        snap = dyn.snapshot()
        y = np.random.default_rng(0).integers(0, 3, size=40)
        before = GraphEncoderEmbedding(3).fit(snap.graph, y).embedding_.copy()
        for i in range(3):
            dyn.add_edges([i], [i + 1])
            dyn.remove_edges([base.src[i]], [base.dst[i]])
            dyn.commit()
        assert snap.version == 0 and snap.n_edges == 160
        after = GraphEncoderEmbedding(3).fit(Graph(snap.edges), y).embedding_
        np.testing.assert_array_equal(before, after)

    def test_log_versions_and_since(self):
        dyn = DynamicGraph(_multigraph())
        for i in range(4):
            dyn.add_edges([0], [1])
            dyn.commit()
        assert [d.version for d in dyn.log] == [1, 2, 3, 4]
        assert [d.version for d in dyn.log.since(1)] == [2, 3, 4]
        assert dyn.log.since(4) == []

    def test_log_truncation_reports_missing_history(self):
        dyn = DynamicGraph(_multigraph(), max_log=2)
        for _ in range(4):
            dyn.add_edges([0], [1])
            dyn.commit()
        assert len(dyn.log) == 2
        assert dyn.log.since(0) is None  # truncated
        assert [d.version for d in dyn.log.since(2)] == [3, 4]


class TestPlanCarry:
    def test_append_only_commit_extends_cached_plan(self):
        dyn = DynamicGraph(erdos_renyi(30, 90, weighted=True, seed=4))
        plan = dyn.graph.plan(3)
        _ = plan.src_flat  # force index compilation so the extension reuses it
        dyn.add_edges([0, 1], [2, 3], [1.5, 2.5])
        dyn.commit()
        carried = dyn.graph.plan(3)
        assert carried is not plan  # copy-on-write, never shared mutation
        assert carried.n_edges == 92
        # Seeded from the old plan's compiled artifacts — no recompilation:
        # the arrays are already materialised without any property access.
        assert carried._src is not None and carried._src.shape == (92,)
        assert carried._src_flat is not None and carried._src_flat.shape == (92,)
        y = np.random.default_rng(1).integers(0, 3, size=30)
        via_plan = GraphEncoderEmbedding(3).fit(dyn.graph, y).embedding_.copy()
        fresh = GraphEncoderEmbedding(3).fit(Graph(dyn.graph.edges.copy()), y).embedding_
        np.testing.assert_allclose(via_plan, fresh, atol=1e-12)

    def test_snapshot_readers_plan_is_not_mutated_by_commits(self):
        """Regression: a reader-held plan must keep its version's edge set."""
        from repro.backends import get_backend

        dyn = DynamicGraph(erdos_renyi(25, 60, seed=20))
        y = np.random.default_rng(2).integers(0, 3, size=25)
        snap = dyn.snapshot()
        reader_plan = snap.graph.plan(3)
        backend = get_backend("vectorized")
        before = backend.embed_with_plan(reader_plan, y).detached().embedding.copy()
        dyn.add_edges([0, 1, 2], [3, 4, 5])
        dyn.commit()  # append-only: extends the plan for the new version
        assert reader_plan.n_edges == 60
        after = backend.embed_with_plan(reader_plan, y).detached().embedding
        np.testing.assert_array_equal(before, after)
        assert dyn.graph.plan(3).n_edges == 63

    def test_structural_commit_recompiles_plan(self):
        base = erdos_renyi(30, 90, seed=5)
        dyn = DynamicGraph(base)
        plan = dyn.graph.plan(3)
        dyn.remove_edges([base.src[0]], [base.dst[0]])
        dyn.commit()
        new_plan = dyn.graph.plan(3)
        assert new_plan is not plan
        assert new_plan.n_edges == 89

    def test_unweighted_to_weighted_append_recompiles(self):
        # Appending weighted edges onto an unweighted graph changes the
        # weight materialisation, so the plan must not be carried.
        dyn = DynamicGraph(erdos_renyi(20, 50, seed=6))
        plan = dyn.graph.plan(2)
        dyn.add_edges([0], [1], [5.0])
        dyn.commit()
        assert dyn.graph.plan(2) is not plan
        assert dyn.graph.edges.weights[-1] == 5.0


class TestRefinementCarry:
    def test_gee_unsupervised_carries_state_across_versions(self):
        from repro.graph import planted_partition

        edges, _ = planted_partition(150, 3, 0.2, 0.01, seed=8)
        dyn = DynamicGraph(edges)
        first = gee_unsupervised(dyn, 3, seed=0)
        assert dyn.refinement_state is not None
        version0, carried = dyn.refinement_state
        assert version0 == 0
        np.testing.assert_array_equal(carried, first.labels)

        dyn.add_edges([0, 1], [2, 3])
        dyn.commit()
        second = gee_unsupervised(dyn, 3, seed=0)
        # Warm-started from an already-converged assignment: one round.
        assert second.n_iterations <= 2
        assert dyn.refinement_state[0] == 1
        agreement = float(np.mean(first.labels == second.labels))
        assert agreement > 0.95
