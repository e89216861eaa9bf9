"""Edge-parallel GEE over forked workers and shared memory.

This is the dedicated kernel behind the strong-scaling experiment
(Figure 3): it exposes the worker count explicitly, reports a per-phase
timing breakdown, and keeps the parallel machinery visible (row
partitioning, shared-memory output) rather than hiding it inside the
engine.  ``gee_ligra`` and this function compute the same embedding; this
one exists so the scaling study can sweep workers cheaply.

Parallelisation strategy
------------------------
Ligra's ``edgeMapDense`` iterates over *destination* vertices and their
in-edges, which makes every embedding row single-writer; the atomics only
guard the much rarer source-row updates.  The kernel here takes that idea
to its limit with an **owner-computes row partition** over the plan's
sorted incidence (``layout="sorted"``, see
:class:`~repro.core.plan.FusedLayout`), where every edge appears twice,
once per endpoint as owner, sorted by owner row:

* the embedding rows (vertices) are split into ``p`` ranges balanced by
  total (in + out) degree;
* worker ``j`` computes *all* contributions that land in its rows
  (``Z[owner, Y[partner]] += w``), rescaled by ``diag(1/n_c)``, in one of
  two directions chosen once per call: it *pulls* over its rows' own
  slice of the sorted incidence (located through the layout's
  ``row_ptr``) with block-local segment sums, or — while the labelled
  vertices own few incidences, as under the paper's 10% labelling — it
  *pushes* from the labelled owners' segments, keeping the partners that
  fall in its rows (Ligra's sparse/dense ``edgeMap`` switch);
* each worker writes its block of the shared-memory ``Z`` directly.

No two workers ever write the same row, so there are no atomics, no locks
and no reduction — the CPython substitute for Ligra's lock-free writeAdd
that preserves the edge-parallel structure (every edge is still visited
exactly twice, once per endpoint) while sidestepping the GIL entirely.
:func:`run_fused_ranges` is that one executor; ``backend="parallel"``,
:func:`gee_parallel` and :class:`~repro.shard.ShardedGraph` all run on it.

Worker management mirrors how Ligra treats its thread pool: the workers are
a long-lived resource created once per session (``fork`` is two orders of
magnitude more expensive than dispatching a task to an already-forked
worker in this environment), and each embedding call only dispatches row
ranges to them.  All inputs and the output travel through named POSIX
shared memory; the shared copy of a plan's incidence arrays is cached for
the plan's lifetime, so repeated runs on one ``Graph`` (benchmark repeats,
worker sweeps) pay the one-time copy only once — the analogue of Ligra
having loaded the graph before the timed region starts.
"""

from __future__ import annotations

import atexit
import time
import weakref
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..graph.facade import Graph, GraphLike
from ..parallel.partition import block_ranges
from ..parallel.pool import (
    ForkWorkerPool,
    effective_worker_count,
    fork_available,
    resolve_worker_count,
)
from ..analysis.annotations import hot_path
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..parallel.shm import SharedArrayHandle, SharedArraySet, attach_many
from .gee_vectorized import _fused_direction, accumulate_fused_rows_sorted, scatter_add
from .plan import EmbedPlan
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import (
    UNKNOWN_LABEL,
    class_counts,
    inverse_class_counts,
    validate_labels,
)

__all__ = [
    "gee_parallel",
    "gee_parallel_with_plan",
    "gee_parallel_chunked",
    "patch_sums_parallel",
    "shutdown_workers",
]


@hot_path(reason="parallel O(Δ) incremental patch kernel")
def patch_sums_parallel(
    S_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta_w: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    *,
    n_workers: Optional[int] = None,
) -> None:
    """Apply a signed edge delta to flat raw per-class sums, in place.

    The parallel O(Δ) patch kernel: the *gather* half of the patch (label
    gathers, known-label masks, flat-index arithmetic — the bulk of the work
    for typical deltas) is split into contiguous edge slabs processed by a
    thread pool, NumPy releasing the GIL for the array ops; the final
    scatter runs serially over the slab results in slab order, so the
    update is deterministic (fixed association order) like the owner-computes
    full kernel.  Forked workers would lose here: a delta batch is far too
    small to amortise shipping it through shared memory.

    Deltas below a few thousand edges skip the pool entirely — thread
    dispatch would cost more than it saves.
    """
    k = int(n_classes)
    m = int(src.size)
    workers = effective_worker_count(n_workers)
    if m < 4096 or workers <= 1:
        from .gee_vectorized import patch_sums_vectorized

        patch_sums_vectorized(S_flat, src, dst, delta_w, labels, k)
        return
    from concurrent.futures import ThreadPoolExecutor

    slabs = [r for r in block_ranges(m, min(workers, m)) if r[0] < r[1]]

    def gather(slab: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = slab
        s, d, w = src[lo:hi], dst[lo:hi], delta_w[lo:hi]
        y_d = labels[d]
        y_s = labels[s]
        known_d = y_d != UNKNOWN_LABEL
        known_s = y_s != UNKNOWN_LABEL
        # repro: ignore[hot-path-alloc] O(Δ) slab temporaries, not O(E): the slab is a delta slice
        flat = np.concatenate(
            (s[known_d] * k + y_d[known_d], d[known_s] * k + y_s[known_s])
        )
        contrib = np.concatenate((w[known_d], w[known_s]))
        return flat, contrib

    with ThreadPoolExecutor(max_workers=len(slabs)) as pool:
        parts = list(pool.map(gather, slabs))
    flat = np.concatenate([p[0] for p in parts])
    contrib = np.concatenate([p[1] for p in parts])
    scatter_add(S_flat, flat, contrib)


#: Worker-process cache of shared-memory attachments, keyed by segment name.
#: Re-mapping (and therefore re-faulting) hundreds of megabytes of adjacency
#: on every task would dominate the runtime in this sandbox, so each worker
#: attaches a given segment once and keeps the mapping warm; the cache is
#: LRU-bounded so segments of evicted plans/graphs (whose parent-side
#: finalizers already unlinked them) don't pin O(E) pages per plan forever.
_WORKER_ATTACHMENTS: Dict[str, tuple] = {}

#: Mappings kept per worker.  Generous relative to one call's segment count
#: (~10), tight enough that a K-sweep over many layout plans cannot grow a
#: worker's RSS without bound.
_MAX_WORKER_ATTACHMENTS = 32


def _attach_cached(handles: Dict[str, SharedArrayHandle]) -> Dict[str, np.ndarray]:
    """Attach to every handle, reusing LRU-bounded mappings in this process."""
    from ..parallel.shm import attach

    views: Dict[str, np.ndarray] = {}
    for name, handle in handles.items():
        cached = _WORKER_ATTACHMENTS.pop(handle.shm_name, None)
        if cached is None:
            view, seg = attach(handle)
            cached = (view, seg)
        # Re-insert at the end: plain dicts preserve insertion order, so
        # the front of the dict is always the least-recently-used mapping.
        _WORKER_ATTACHMENTS[handle.shm_name] = cached
        views[name] = cached[0]
    while len(_WORKER_ATTACHMENTS) > _MAX_WORKER_ATTACHMENTS:
        stale_name = next(iter(_WORKER_ATTACHMENTS))
        if stale_name in {h.shm_name for h in handles.values()}:
            break  # everything older is part of the current task
        view, seg = _WORKER_ATTACHMENTS.pop(stale_name)
        del view  # release the exported buffer before closing the mapping
        try:
            seg.close()
        except BufferError:  # pragma: no cover - defensive
            pass
    return views


# --------------------------------------------------------------------------- #
# Long-lived worker pool and shared-memory caches
# --------------------------------------------------------------------------- #
_POOL: Optional[ForkWorkerPool] = None


def _get_pool(n_workers: Optional[int] = None) -> ForkWorkerPool:
    """The session-wide worker pool (created lazily, reused across calls).

    The pool grows to the largest worker count requested so far: a request
    for more workers than the current pool holds recreates it at the new
    size, so an explicit ``n_workers`` is always genuinely honoured.
    """
    global _POOL
    needed = effective_worker_count(None) if n_workers is None else int(n_workers)
    if _POOL is None or _POOL._closed:  # noqa: SLF001 - own class
        _POOL = ForkWorkerPool(needed)
    elif _POOL.n_workers < needed:
        _POOL.close()
        _POOL = ForkWorkerPool(needed)
    return _POOL


def shutdown_workers() -> None:
    """Terminate the session's GEE worker pool and drop its shared memory.

    Mostly useful in tests and at interpreter shutdown; a subsequent
    :func:`gee_parallel` call transparently recreates the pool.
    """
    global _POOL, _WORKSPACE
    if _POOL is not None:
        _POOL.close()
        _POOL = None
    for entry in list(_FUSED_CACHE.values()):
        entry.close()
    _FUSED_CACHE.clear()
    if _WORKSPACE is not None:
        _WORKSPACE.close()
        _WORKSPACE = None


atexit.register(shutdown_workers)


class _SharedFused:
    """Shared-memory copy of one plan's fused-layout incidence arrays."""

    def __init__(self, fused) -> None:
        with trace("shm.ship", what="fused-layout"):
            self.shm = SharedArraySet()
            self.shm.share("f_owner_flat", fused.owner_flat)
            self.shm.share("f_partner", fused.partner)
            self.shm.share("f_row_ptr", fused.row_ptr)
            if fused.weights is not None:
                self.shm.share("f_weights", fused.weights)
            self.handles = self.shm.handles()

    def close(self) -> None:
        self.shm.close()


#: Cache of shared-memory fused layouts keyed by id() of the FusedLayout;
#: entries drop automatically when the layout is garbage collected (the
#: layout lives on its EmbedPlan: a Graph's cached plan, or the private
#: plan of one one-shot :func:`gee_parallel` call).
_FUSED_CACHE: Dict[int, _SharedFused] = {}


def _shared_fused_for(fused) -> _SharedFused:
    key = id(fused)
    cached = _FUSED_CACHE.get(key)
    if cached is not None:
        return cached
    entry = _SharedFused(fused)
    _FUSED_CACHE[key] = entry

    def _evict(_ref, key=key) -> None:
        stale = _FUSED_CACHE.pop(key, None)
        if stale is not None:
            stale.close()

    weakref.finalize(fused, _evict, None)
    return entry


def _fused_pool_task(
    _context: dict,
    handles: Dict[str, SharedArrayHandle],
    row_lo: int,
    row_hi: int,
    n_classes: int,
    rows_per_block: int,
    fully_labelled: bool,
    push: bool,
    rescale: bool,
) -> None:
    """Worker task for the fused (sorted-layout) path: fill owned rows.

    Runs the owner-range kernel in the direction the parent chose for the
    call — pull over its rows' own incidences (located through the shared
    ``row_ptr``) or push from the labelled owners' segments — into its
    slice of the shared ``Z``, scaled by the per-column ``1/n_c`` vector
    the parent wrote once into the shared ``inv`` (raw sums when
    ``rescale`` is off).  No two tasks ever write the same row, and the
    O(nK) rescale runs inside the row partition instead of serially in the
    parent.
    """
    views = _attach_cached(handles)
    labels = views["labels"]
    owner_flat = views["f_owner_flat"]
    y_idx = labels.astype(owner_flat.dtype, copy=False)
    accumulate_fused_rows_sorted(
        views["Z"].reshape(-1),
        owner_flat,
        views["f_partner"],
        views.get("f_weights"),
        y_idx,
        n_classes,
        rows_per_block,
        row_lo,
        row_hi,
        row_ptr=views["f_row_ptr"],
        fully_labelled=fully_labelled,
        push=push,
        inv=views["inv"] if rescale else None,
    )


class _Workspace:
    """Reusable per-call shared buffers (labels, rescale, embedding output).

    Reusing the same named segments across calls lets the pool workers keep
    their mappings warm (see ``_WORKER_ATTACHMENTS``); only the small label
    and rescale vectors are rewritten per call.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n, self.k = n, k
        self.shm = SharedArraySet()
        self.labels = self.shm.empty("labels", (n,), np.int64)
        #: Per-column ``1/n_c`` rescale vector (written once per call by
        #: the parent; workers multiply their row slices).
        self.inv = self.shm.empty("inv", (k,), np.float64)
        self.Z = self.shm.empty("Z", (n, k), np.float64)
        self.handles = self.shm.handles()

    def close(self) -> None:
        self.shm.close()


_WORKSPACE: Optional[_Workspace] = None


def _workspace_for(n: int, k: int) -> _Workspace:
    global _WORKSPACE
    if _WORKSPACE is None or _WORKSPACE.n != n or _WORKSPACE.k != k:
        if _WORKSPACE is not None:
            _WORKSPACE.close()
        _WORKSPACE = _Workspace(n, k)
    return _WORKSPACE


def balanced_ranges_from_work(work: np.ndarray, n_parts: int) -> list:
    """Split ``len(work)`` rows into ranges with near-equal total work."""
    n = work.size
    cum = np.concatenate([[0], np.cumsum(work)])
    total = cum[-1]
    if total == 0:
        return block_ranges(n, n_parts)
    targets = np.linspace(0, total, n_parts + 1)
    cuts = np.searchsorted(cum, targets, side="left")
    cuts[0], cuts[-1] = 0, n
    cuts = np.maximum.accumulate(np.clip(cuts, 0, n))
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(n_parts)]


def _requested_workers(n_workers: Optional[int]) -> int:
    """Resolve ``n_workers``; an explicit >1 request without ``fork`` raises."""
    requested = resolve_worker_count(n_workers)
    if n_workers is not None and int(n_workers) > 1 and not fork_available():
        raise RuntimeError(
            f"gee_parallel: n_workers={requested} requested but the 'fork' start "
            "method is unavailable on this platform; pass n_workers=1 (or None "
            "for the automatic fallback)"
        )
    return requested


def gee_parallel(
    edges: GraphLike,
    labels: np.ndarray,
    n_classes: Optional[int] = None,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding, process-parallel over shared memory.

    Parameters
    ----------
    edges:
        The graph as a :class:`~repro.graph.facade.Graph`, an
        :class:`~repro.graph.edgelist.EdgeList`, a prebuilt
        :class:`~repro.graph.csr.CSRGraph`, or any other graph-like input
        (coerced through :meth:`Graph.coerce`).  The sorted plan's
        compilation (the equivalent of Ligra loading its graph) is reported
        separately under the ``"preprocess"`` timing and is not part of the
        embedding time.  A ``Graph`` runs on its cached
        ``plan(K, layout="sorted")``, so repeated calls on it compile and
        ship the incidence arrays once; any other input is compiled afresh
        on every call and released when the call returns.
    labels, n_classes:
        As in :func:`repro.core.gee_python.gee_python`.
    n_workers:
        Number of forked workers; ``None`` uses every available CPU, ``1``
        runs the kernel in-process (no fork) which is the serial anchor of
        the strong-scaling curve.  An explicit request is *honoured exactly*
        — it is never silently clamped or degraded; an impossible request
        (absurd oversubscription, or >1 workers on a platform without
        ``fork``) raises instead.

    The returned embedding is owned by the result (it aliases no plan
    buffer), unlike :func:`gee_parallel_with_plan`'s.
    """
    t_pre = time.perf_counter()
    graph = Graph.coerce(edges)
    y, k = validate_labels(labels, graph.n_vertices, n_classes)
    if graph is edges:
        plan = graph.plan(k, layout="sorted")
    else:
        # A private plan, not the facade's cached one: caching it would tie
        # graph and plan in a reference cycle and keep both alive until the
        # cyclic collector runs.
        plan = EmbedPlan(graph, k, layout="sorted")
    preprocess = time.perf_counter() - t_pre

    result = _gee_parallel_fused(
        plan, y, n_workers=n_workers, out=np.empty((plan.n_vertices, k))
    )
    result.timings["preprocess"] += preprocess
    result.buffer_view = False
    return result


def _chunked_pool_task(
    _context: dict,
    handles: Dict[str, SharedArrayHandle],
    source_token: dict,
    chunk_lo: int,
    chunk_hi: int,
    n_classes: int,
    slot: int,
) -> None:
    """Worker task for the out-of-core path: accumulate one chunk slab.

    Re-opens the edge source inside the worker — a file-backed store is
    memory-mapped independently (no edge data ever travels between
    processes); an in-memory source reads the shared-memory copy staged by
    the caller.  The slab's contributions go into this task's private row of
    the shared ``partials`` matrix; no two tasks write the same row, and
    the caller reduces with one sum.

    Attaches per call (chunked calls ship a fresh segment set, unlike the
    long-lived workspace of the dense path) and detaches before returning
    so per-call segments are never pinned by worker-side caches.
    """
    from ..graph.io import ChunkedEdgeSource
    from .gee_vectorized import accumulate_chunked_plan
    from .plan import ChunkedPlan

    views, segments = attach_many(handles)
    try:
        if source_token["kind"] == "file":
            source = ChunkedEdgeSource.open(
                source_token["path"], chunk_edges=source_token["chunk_edges"]
            )
        else:
            source = ChunkedEdgeSource(
                views["e_src"],
                views["e_dst"],
                views.get("e_weights"),
                source_token["n_vertices"],
                chunk_edges=source_token["chunk_edges"],
            )
        plan = ChunkedPlan(
            source, n_classes, layout=source_token.get("layout", "none")
        )
        accumulate_chunked_plan(
            views["partials"][slot],
            plan,
            views["labels"],
            views["scales"],
            chunk_lo,
            chunk_hi,
        )
    finally:
        del views
        for seg in segments:
            seg.close()


def gee_parallel_chunked(
    plan,
    labels: np.ndarray,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """Out-of-core process-parallel GEE on a :class:`~repro.core.plan.ChunkedPlan`.

    The source's chunks are split into contiguous slabs, one per worker;
    each worker streams its slab under the same per-chunk memory bound as
    the serial chunked kernel and accumulates into a private ``(n*K,)``
    partial in shared memory, which the caller reduces with one sum.  A
    file-backed source is re-opened (memory-mapped) inside each worker, so
    the only per-call interprocess traffic is the label/scale vectors and
    the partials — never edge data.  For an in-memory source the edge
    arrays are staged into shared memory once per call.

    Vertex-side state still has to fit: the reduction holds one ``n*K``
    partial per worker (out-of-core bounds the *edge*-side working set).
    Worker-count semantics follow :func:`gee_parallel` (an explicit request
    sizes the pool exactly or raises), with one structural cap: a call can
    run at most one worker per chunk, so the result's ``n_workers`` reports
    the slab count actually executed (``min(requested, n_chunks)``), never
    the nominal request.
    """
    from .gee_vectorized import accumulate_chunked_plan

    y = plan.validate_labels(labels)
    k = plan.n_classes
    n = plan.n_vertices
    timings: Dict[str, float] = {}

    requested = _requested_workers(n_workers)

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    t1 = time.perf_counter()
    timings["projection"] = t1 - t0

    layout = getattr(plan, "layout", "none")
    source = plan.source
    n_chunks = source.n_chunks
    if requested == 1 or not fork_available() or n_chunks <= 1:
        Z_flat = plan.zeroed_output()
        accumulate_chunked_plan(Z_flat, plan, y, scales)
        workers = 1
        Z = Z_flat.reshape(n, k)
        if layout == "sorted":
            from .gee_vectorized import class_rescale

            class_rescale(Z, y, k)
        t2 = time.perf_counter()
        timings["edge_pass"] = t2 - t1
    else:
        n_tasks = min(requested, n_chunks)
        workers = n_tasks
        cuts = np.linspace(0, n_chunks, n_tasks + 1).astype(np.int64)
        t_share = time.perf_counter()
        pool = _get_pool(requested)
        shm = SharedArraySet()
        try:
            shm.share("labels", y)
            shm.share("scales", scales)
            partials = shm.zeros("partials", (n_tasks, n * k), np.float64)
            if source.path is not None:
                token = {
                    "kind": "file",
                    "path": str(source.path),
                    "chunk_edges": source.chunk_edges,
                    "layout": layout,
                }
            else:
                shm.share("e_src", np.asarray(source.src, dtype=np.int64))
                shm.share("e_dst", np.asarray(source.dst, dtype=np.int64))
                if source.weights is not None:
                    shm.share(
                        "e_weights", np.asarray(source.weights, dtype=np.float64)
                    )
                token = {
                    "kind": "shm",
                    "n_vertices": n,
                    "chunk_edges": source.chunk_edges,
                    "layout": layout,
                }
            handles = shm.handles()
            timings["preprocess"] = time.perf_counter() - t_share
            t_edge = time.perf_counter()
            with trace(
                "parallel.dispatch", backend="parallel-chunked", n_tasks=n_tasks
            ):
                pool.map(
                    _chunked_pool_task,
                    [
                        (handles, token, int(cuts[i]), int(cuts[i + 1]), k, i)
                        for i in range(n_tasks)
                    ],
                    labels=[
                        f"backend=parallel-chunked chunks[{int(cuts[i])}:"
                        f"{int(cuts[i + 1])}) slot={i}"
                        for i in range(n_tasks)
                    ],
                )
            Z_flat = plan.zeroed_output()
            np.sum(partials, axis=0, out=Z_flat)
            Z = Z_flat.reshape(n, k)
            if layout == "sorted":
                from .gee_vectorized import class_rescale

                class_rescale(Z, y, k)
            t2 = time.perf_counter()
            timings["edge_pass"] = t2 - t_edge
        finally:
            shm.close()
    timings["total"] = t2 - t0

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(y, scales, k),
        timings=timings,
        method="gee-parallel",
        n_workers=workers,
        buffer_view=True,
        layout=layout,
    )


#: Dummy weights for unit-weight plans on the native path (the JIT kernels
#: take no ``None``).
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)


def run_fused_ranges(
    plan,
    y: np.ndarray,
    ranges: Sequence[Tuple[int, int]],
    out_flat: np.ndarray,
    *,
    n_workers: int,
    backend: str,
    kernel: str = "numpy",
    rescale: bool = True,
) -> Tuple[int, float]:
    """Fill ``out_flat`` with the rows of every owner range of a sorted plan.

    The one owner-range executor behind the vectorized sorted plan path
    (one range ``[0, n)``), ``backend="parallel"`` on sorted plans and
    :class:`~repro.shard.ShardedGraph`.  ``ranges`` must tile ``[0, n)``;
    range ``i`` (labelled ``shard i``) is computed start to finish by one
    task that writes only its own rows, so the output needs no zeroing and
    no reduction.  The call picks one direction from ``y`` and the layout
    (push from the labelled owners while they own few incidences, else
    pull; see :func:`~repro.core.gee_vectorized.accumulate_fused_rows_sorted`),
    so the result is bitwise the same for every dispatch mode, range split
    and worker count.  Each task rescales its rows by ``diag(1/n_c)``;
    ``rescale=False`` leaves the raw class sums.  The incidences each
    direction visited are counted as ``kernel.push_incidences`` /
    ``kernel.pull_incidences``.

    Dispatch: ``kernel="numpy"`` with ``n_workers > 1`` (and ``fork``, and
    at least one edge) runs one :func:`_fused_pool_task` per range on the
    session pool and copies the shared result out; the native tier
    (``"native"``/``"shadow"``) fans ranges out to ``n_workers`` threads,
    its kernels releasing the GIL; anything else loops in process.  A
    failure names the lowest failing range in every mode.

    Returns ``(workers, staging_s)``: the worker count that ran and the
    seconds spent staging shared memory (zero off the pool).
    """
    fused = plan.fused
    k = plan.n_classes
    row_ptr = fused.row_ptr
    fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
    inv = inverse_class_counts(class_counts(y, k)) if rescale else None
    tasks = [(i, lo, hi) for i, (lo, hi) in enumerate(ranges) if hi > lo]
    labels = [f"backend={backend} shard {i} rows [{lo}, {hi})" for i, lo, hi in tasks]
    # One direction for the whole call (the native tier always pulls); a
    # push task reads every labelled owner's segment, a pull task its rows'.
    if kernel == "numpy":
        push, m = _fused_direction(row_ptr, y, fused.weights is not None)
    else:
        push, m = False, 0
    if push:
        obs_metrics.count("kernel.push_incidences", m * len(tasks))
    else:
        obs_metrics.count(
            "kernel.pull_incidences",
            sum(int(row_ptr[hi] - row_ptr[lo]) for _, lo, hi in tasks),
        )
    if kernel == "numpy" and n_workers > 1 and fork_available() and plan.n_edges:
        t_share = time.perf_counter()
        shared_fused = _shared_fused_for(fused)
        pool = _get_pool(n_workers)
        workspace = _workspace_for(plan.n_vertices, k)
        workspace.labels[:] = y
        if inv is not None:
            workspace.inv[:] = inv
        handles = dict(shared_fused.handles)
        handles.update(workspace.handles)
        staging = time.perf_counter() - t_share
        with trace("parallel.dispatch", backend=backend, n_tasks=len(tasks)):
            pool.map(
                _fused_pool_task,
                [
                    (handles, lo, hi, k, fused.rows_per_block, fully, push, rescale)
                    for _, lo, hi in tasks
                ],
                labels=labels,
            )
        np.copyto(out_flat, workspace.Z.reshape(-1))
        return n_workers, staging

    y_idx = y.astype(fused.index_dtype, copy=False)

    def accumulate(row_lo: int, row_hi: int) -> None:
        # Either tier touches only its own slice of ``out_flat`` (thread-safe
        # for the shadow's dense ``bincount`` as well as for the JIT loop).
        if kernel == "numpy":
            accumulate_fused_rows_sorted(
                out_flat,
                fused.owner_flat,
                fused.partner,
                fused.weights,
                y_idx,
                k,
                fused.rows_per_block,
                row_lo,
                row_hi,
                row_ptr=row_ptr,
                fully_labelled=fully,
                push=push,
                inv=inv,
            )
            return
        from ..native.dispatch import get_kernel

        # The native tier zeroes its rows and accumulates on range-local
        # flat indices, then rescales them.
        window = out_flat[row_lo * k : row_hi * k]
        lo, hi = int(row_ptr[row_lo]), int(row_ptr[row_hi])
        weights = fused.weights
        window.fill(0.0)
        get_kernel("segment_accumulate", force_shadow=kernel == "shadow")(
            window,
            fused.owner_flat[lo:hi] - row_lo * k,
            fused.partner[lo:hi],
            _EMPTY_WEIGHTS if weights is None else weights[lo:hi],
            weights is not None,
            y,
        )
        if inv is not None:
            rows = window.reshape(row_hi - row_lo, k)
            rows *= inv[None, :]

    def run(task: Tuple[int, int, int], label: str) -> None:
        _, lo, hi = task
        try:
            with trace("shard.accumulate", label=label):
                accumulate(lo, hi)
        except Exception as exc:
            raise RuntimeError(f"{label} failed: {exc}") from exc

    threads = 1 if kernel == "numpy" else min(n_workers, len(tasks))
    if threads <= 1:
        for task, label in zip(tasks, labels):
            run(task, label)
        return 1, 0.0
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(run, task, label) for task, label in zip(tasks, labels)]
        for future in futures:
            future.result()
    return threads, 0.0


def _gee_parallel_fused(
    plan,
    labels: np.ndarray,
    *,
    n_workers: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> EmbeddingResult:
    """Owner-computes parallel GEE over a plan's *sorted* fused layout.

    Every row is single-writer, deterministic and free of atomics: the
    degree-balanced row ranges run through :func:`run_fused_ranges`, each
    worker rescaling its own rows by ``diag(1/n_c)``.  Only the label
    vector travels per call; the incidence arrays ship through shared
    memory once per plan.  The embedding is written into ``out`` (an
    ``(n, K)`` C-contiguous array), by default the plan's reused output
    buffer.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes
    timings: Dict[str, float] = {}

    t_pre = time.perf_counter()
    fused = plan.fused  # compiled once, cached on the plan
    timings["preprocess"] = time.perf_counter() - t_pre

    requested = _requested_workers(n_workers)

    t0 = time.perf_counter()
    ranges = plan.fused_row_ranges(requested)
    Z = plan.output_matrix() if out is None else out
    t1 = time.perf_counter()
    timings["projection"] = t1 - t0

    workers, staging = run_fused_ranges(
        plan,
        y,
        ranges,
        Z.reshape(-1),
        n_workers=requested,
        backend="parallel-fused",
    )
    t2 = time.perf_counter()
    timings["preprocess"] += staging
    timings["edge_pass"] = t2 - t1 - staging
    timings["total"] = t2 - t0

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(
            y, projection_scales(y, k), k
        ),
        timings=timings,
        method="gee-parallel",
        n_workers=workers,
        buffer_view=True,
        layout=fused.layout,
    )


def gee_parallel_with_plan(
    plan,
    labels: np.ndarray,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """Process-parallel GEE on a compiled :class:`~repro.core.plan.EmbedPlan`.

    The plan's sorted incidence arrays ship to shared memory on the first
    call and stay cached, so per call only the label vector travels to the
    worker pool; the degree-balanced row partition is cached on the plan
    per worker count (worker sweeps partition once per count).  The
    returned embedding is a view of the plan's reused output buffer.

    ``"sorted"`` plans run the owner-computes worker partition
    (:func:`_gee_parallel_fused`).  A layout-preserving ``"none"`` plan
    runs the same partition on its graph's cached ``layout="sorted"``
    plan, writing into the calling plan's own buffer.  ``"blocked"``
    buckets cannot be split by row range, so such a plan runs the serial
    fused kernel in-process.
    """
    if plan.layout == "sorted":
        return _gee_parallel_fused(plan, labels, n_workers=n_workers)
    if plan.layout == "none":
        sorted_plan = plan.graph.plan(plan.n_classes, layout="sorted")
        return _gee_parallel_fused(
            sorted_plan, labels, n_workers=n_workers, out=plan.output_matrix()
        )
    # Blocked buckets keep arrival order inside each block, so they cannot
    # be split into single-writer row ranges; the kernel is inherently
    # serial.  An explicit multi-worker request is therefore unsatisfiable
    # and raises (same contract as every other impossible explicit
    # n_workers), instead of silently degrading.
    if n_workers is not None and int(n_workers) > 1:
        raise RuntimeError(
            f"gee_parallel: n_workers={int(n_workers)} requested but a "
            'layout="blocked" plan runs the serial fused kernel (its '
            "buckets cannot be row-partitioned); use layout=\"sorted\" "
            "for the parallel fused path, or drop n_workers"
        )
    from .gee_vectorized import gee_fused_with_plan

    result = gee_fused_with_plan(plan, labels)
    result.method = "gee-parallel"
    return result
