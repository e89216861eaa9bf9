"""Owner-range sharded execution: degree-balanced row cuts over the sorted plan.

The fused owner-sorted incidence layout makes contiguous owner ranges
independent: every incidence ``(owner, partner, w)`` contributes only to
row ``owner`` of the raw sums ``S[u, c] = Σ w over incidences with
Y[partner] = c``, and the incidence array is sorted by owner, so cutting it
at any row boundaries partitions the work into shards that write disjoint
rows.  This is the partitioned-aggregation shape of Ligra's vertex ranges
and GraphChi's shards/intervals, applied to the GEE edge pass.

:class:`ShardedGraph` is a thin view over a graph: the shard count and
``N`` degree-balanced contiguous row cuts.  It copies no incidences and
owns no pool: every embed runs the graph's cached sorted plan
(``graph.plan(K, layout="sorted")``) through the owner-range executor
:func:`~repro.core.gee_parallel.run_fused_ranges`, one task per shard,
each writing its rows straight into one output buffer.  Because
``np.bincount`` sums each output slot in input-traversal order and a row
range covers a contiguous run of the global incidence order, the sharded
result is bitwise identical to the single-pool fused pass for any shard
count and any worker count.  Each shard can also persist its incidence
slice to its own :class:`~repro.stream.segments.SegmentedEdgeStore`
(:meth:`ShardedGraph.persist`) for out-of-core execution.

Exactly like :func:`~repro.core.gee_parallel.gee_parallel`, explicit
worker requests are honoured or rejected loudly, and the pooled path
requires the ``fork`` start method.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..core.gee_parallel import balanced_ranges_from_work, run_fused_ranges
from ..core.gee_vectorized import class_rescale, scatter_add
from ..core.plan import sorted_incidence
from ..core.projection import projection_from_scales, projection_scales
from ..core.result import EmbeddingResult
from ..core.validation import UNKNOWN_LABEL, validate_edges, validate_labels
from ..graph.edgelist import EdgeList
from ..obs import trace
from ..parallel import effective_worker_count, fork_available, resolve_worker_count

__all__ = ["ShardedGraph", "patch_sums_sharded"]

#: Minimum routed incidences before the shard patch fans out to threads
#: (below this the dispatch overhead dwarfs the scatter work).
_PATCH_THREAD_THRESHOLD = 4096

#: Accepted values of the ``kernel`` execution selector: ``"numpy"`` is the
#: vectorized owner-computes kernel (the default, bitwise-pinned against the
#: single-pool fused pass), ``"native"`` the JIT tier via
#: :func:`repro.native.dispatch.get_kernel` (which itself shadows to NumPy
#: when numba is absent), ``"shadow"`` the native tier's pure-NumPy shadows
#: pinned explicitly (the equivalence-test hook).
_KERNELS = ("numpy", "native", "shadow")


def _check_kernel(kernel: str) -> str:
    if kernel not in _KERNELS:
        raise ValueError(f"kernel must be one of {_KERNELS}, got {kernel!r}")
    return kernel


def _patch_shard_rows(
    S_flat: np.ndarray,
    row_lo: int,
    row_hi: int,
    owner: np.ndarray,
    partner_labels: np.ndarray,
    delta_w: np.ndarray,
    n_classes: int,
    kernel: str = "numpy",
) -> None:
    """Apply one shard's routed one-sided patches to its own row slice.

    Operates on the ``[row_lo*K, row_hi*K)`` slice with shard-local flat
    indices, so concurrent shard patches touch disjoint memory — the dense
    ``bincount`` path of :func:`scatter_add` (and the native
    ``flat_scatter_add`` loop) stays thread-safe.
    """
    k = int(n_classes)
    view = S_flat[row_lo * k : row_hi * k]
    flat = (owner - row_lo) * k + partner_labels
    if kernel != "numpy":
        from ..native.dispatch import get_kernel

        get_kernel("flat_scatter_add", force_shadow=kernel == "shadow")(
            view, flat, np.ascontiguousarray(delta_w, dtype=np.float64)
        )
        return
    scatter_add(view, flat, delta_w)


def patch_sums_sharded(
    S_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta_w: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    *,
    row_cuts: Optional[np.ndarray] = None,
    n_shards: Optional[int] = None,
    n_workers: Optional[int] = None,
    kernel: str = "numpy",
) -> None:
    """Shard-routed O(Δ) patch of flat raw per-class sums, in place.

    The incremental counterpart of the sharded embed: each signed edge
    ``(u, v, Δw)`` becomes two one-sided incidences (``S[u, Y[v]] += Δw``
    owned by the shard of ``u``, ``S[v, Y[u]] += Δw`` owned by the shard
    of ``v``), routed to owning shards by binary search on the row cuts.
    Shards patch disjoint row slices, so large deltas run shard-parallel
    on threads; the result is independent of thread timing.

    ``row_cuts`` are a :class:`ShardedGraph`'s real owner-range boundaries
    when called through one; standalone calls (the backend's incremental
    protocol has no graph in scope) use even row cuts — routing is a
    performance choice, never a correctness one.  ``kernel`` selects the
    per-shard scatter tier (see :data:`_KERNELS`).
    """
    _check_kernel(kernel)
    k = int(n_classes)
    if src.size == 0 or S_flat.size == 0:
        return
    n = S_flat.size // k
    y = np.asarray(labels)
    owner = np.concatenate((src, dst))
    partner = np.concatenate((dst, src))
    dw = np.concatenate((delta_w, delta_w))
    yp = y[partner]
    known = yp != UNKNOWN_LABEL
    if not np.all(known):
        owner, yp, dw = owner[known], yp[known], dw[known]
    if owner.size == 0:
        return
    if row_cuts is None:
        shards = max(1, min(int(n_shards or effective_worker_count(None)), n))
        row_cuts = np.linspace(0, n, shards + 1).astype(np.int64)
    shard_of = np.searchsorted(row_cuts, owner, side="right") - 1
    order = np.argsort(shard_of, kind="stable")
    owner, yp, dw, shard_of = owner[order], yp[order], dw[order], shard_of[order]
    bounds = np.searchsorted(shard_of, np.arange(len(row_cuts) - 1 + 1))
    tasks = []
    for i in range(len(row_cuts) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if lo == hi:
            continue
        tasks.append(
            (int(row_cuts[i]), int(row_cuts[i + 1]), owner[lo:hi], yp[lo:hi], dw[lo:hi])
        )
    workers = effective_worker_count(n_workers)
    if len(tasks) <= 1 or workers <= 1 or owner.size < _PATCH_THREAD_THRESHOLD:
        for row_lo, row_hi, o, p, w in tasks:
            _patch_shard_rows(S_flat, row_lo, row_hi, o, p, w, k, kernel)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as ex:
        futures = [
            ex.submit(_patch_shard_rows, S_flat, row_lo, row_hi, o, p, w, k, kernel)
            for row_lo, row_hi, o, p, w in tasks
        ]
        for fut in futures:
            fut.result()


# --------------------------------------------------------------------------- #
# The sharded graph
# --------------------------------------------------------------------------- #
class ShardedGraph:
    """N contiguous, degree-balanced owner ranges over a graph's sorted plan.

    Construction reads the vertex degrees (O(n) memory) and cuts the rows
    so every shard owns about the same number of incidences (empty ranges
    allowed — a shard with no rows writes nothing).  ``n_shards`` is
    clamped to the vertex count; requesting fewer than one shard raises.
    The view holds no pool and no shared memory: pooled embeds run on the
    session worker pool of :mod:`repro.core.gee_parallel`.
    """

    def __init__(self, graph, n_shards: int) -> None:
        from ..graph.facade import Graph

        requested = int(n_shards)
        if requested < 1:
            raise ValueError(f"n_shards={requested} must be at least 1")
        graph = Graph.coerce(graph)
        self.graph = graph
        edges = validate_edges(graph.edges)
        n = edges.n_vertices
        self.n_vertices = n
        self.n_edges = edges.n_edges
        self.n_shards = max(1, min(requested, n))
        degrees = np.bincount(edges.src, minlength=n) + np.bincount(
            edges.dst, minlength=n
        )
        self._ranges = balanced_ranges_from_work(degrees, self.n_shards)
        #: Owner-range boundaries: shard ``i`` owns rows
        #: ``[row_cuts[i], row_cuts[i+1])``.
        self.row_cuts = np.array(
            [lo for lo, _ in self._ranges] + [n], dtype=np.int64
        )
        self._persist_root: Optional[Path] = None

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedGraph(n={self.n_vertices}, E={self.n_edges}, "
            f"n_shards={self.n_shards})"
        )

    # ------------------------------------------------------------------ #
    # Embedding
    # ------------------------------------------------------------------ #
    def embed(
        self,
        labels: np.ndarray,
        n_classes: Optional[int] = None,
        *,
        n_workers: Optional[int] = None,
        kernel: str = "numpy",
    ) -> EmbeddingResult:
        """GEE over the shards, each writing its own rows of one buffer.

        ``n_workers=None`` auto-sizes (never more workers than shards or
        CPUs); an explicit positive request is honoured up to the shard
        count and — on the default ``"numpy"`` kernel — requires ``fork``
        when above one, exactly like
        :func:`~repro.core.gee_parallel.gee_parallel`.

        ``kernel`` selects the per-shard execution tier (see
        :data:`_KERNELS`).  The native tier needs no fork pool: its
        ``nogil`` kernels run shard-parallel on *threads*.  Either way each
        shard is processed start to finish by one task, so the result is
        deterministic for any worker count.
        """
        _check_kernel(kernel)
        y, k = validate_labels(labels, self.n_vertices, n_classes)
        plan = self.graph.plan(k, layout="sorted")
        plan.fused  # compile outside the timed region (cached on the plan)
        t0 = time.perf_counter()
        explicit = n_workers is not None and int(n_workers) > 0
        requested = resolve_worker_count(n_workers)
        if kernel == "numpy" and explicit and requested > 1 and not fork_available():
            raise RuntimeError(
                f"ShardedGraph: n_workers={requested} requested but the 'fork' "
                "start method is unavailable on this platform; pass n_workers=1 "
                "(or None for the automatic fallback)"
            )
        workers = min(requested, self.n_shards)
        if not explicit:
            workers = min(workers, effective_worker_count(None))
        t1 = time.perf_counter()
        S_flat = np.empty(self.n_vertices * k, dtype=np.float64)
        workers, _ = run_fused_ranges(
            plan,
            y,
            self._ranges,
            S_flat,
            n_workers=workers,
            backend="sharded" if kernel == "numpy" else f"sharded-{kernel}",
            kernel=kernel,
        )
        t2 = time.perf_counter()
        method = f"gee-sharded[{self.n_shards}]"
        if kernel != "numpy":
            method = f"gee-sharded-{kernel}[{self.n_shards}]"
        return EmbeddingResult(
            embedding=S_flat.reshape(self.n_vertices, k),
            projection_builder=lambda: projection_from_scales(
                y, projection_scales(y, k), k
            ),
            timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
            method=method,
            n_workers=workers,
            layout="sorted",
        )

    def raw_sums(self, labels: np.ndarray, n_classes: int) -> np.ndarray:
        """Raw per-class sums ``S`` (serial, no rescale), shape (n, K)."""
        y, k = validate_labels(labels, self.n_vertices, int(n_classes))
        S_flat = np.empty(self.n_vertices * k, dtype=np.float64)
        run_fused_ranges(
            self.graph.plan(k, layout="sorted"),
            y,
            self._ranges,
            S_flat,
            n_workers=1,
            backend="sharded",
            rescale=False,
        )
        return S_flat.reshape(self.n_vertices, k)

    # ------------------------------------------------------------------ #
    # Incremental patches
    # ------------------------------------------------------------------ #
    def patch_sums(
        self,
        S_flat: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        delta_w: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        *,
        n_workers: Optional[int] = None,
        kernel: str = "numpy",
    ) -> None:
        """Route a signed edge delta to owning shards (O(Δ), in place)."""
        patch_sums_sharded(
            S_flat,
            np.asarray(src),
            np.asarray(dst),
            np.asarray(delta_w),
            labels,
            n_classes,
            row_cuts=self.row_cuts,
            n_workers=n_workers,
            kernel=kernel,
        )

    # ------------------------------------------------------------------ #
    # Out-of-core: per-shard segment stores
    # ------------------------------------------------------------------ #
    def persist(self, root) -> List[Path]:
        """Write each shard's incidence slice to its own segment store.

        Creates ``root/shard-00000/``, ``root/shard-00001/``, ... — one
        :class:`~repro.stream.segments.SegmentedEdgeStore` per shard, in
        owner-sorted order — and remembers ``root`` for
        :meth:`embed_outofcore`.
        """
        from ..stream.segments import SegmentedEdgeStore

        edges = self.graph.edges
        owner, partner, w = sorted_incidence(edges.src, edges.dst, edges.weights)
        cuts = np.searchsorted(owner, self.row_cuts)
        root = Path(root)
        paths = []
        for i in range(self.n_shards):
            lo, hi = int(cuts[i]), int(cuts[i + 1])
            path = root / f"shard-{i:05d}"
            SegmentedEdgeStore.create(
                path,
                EdgeList.from_validated(
                    owner[lo:hi],
                    partner[lo:hi],
                    None if w is None else w[lo:hi],
                    self.n_vertices,
                ),
            )
            paths.append(path)
        self._persist_root = root
        return paths

    def embed_outofcore(
        self,
        labels: np.ndarray,
        n_classes: Optional[int] = None,
        *,
        root=None,
        chunk_edges: Optional[int] = None,
    ) -> EmbeddingResult:
        """Stream each shard's segment store chunk-wise into one buffer.

        Bounded memory on the edge side: per chunk only O(chunk) incidence
        temporaries are materialised (the stores stay memory-mapped).  The
        per-slot summation order can differ from the in-memory fused path
        (chunk-accumulate vs single block pass), so results agree to
        floating-point reduction order — well inside the 1e-10 gate.
        """
        from ..stream.segments import SegmentedEdgeStore

        root = Path(root) if root is not None else self._persist_root
        if root is None:
            raise ValueError(
                "no segment stores: call persist(root) first or pass root="
            )
        y, k = validate_labels(labels, self.n_vertices, n_classes)
        t0 = time.perf_counter()
        S_flat = np.zeros(self.n_vertices * k, dtype=np.float64)
        for i in range(self.n_shards):
            store = SegmentedEdgeStore.open(root / f"shard-{i:05d}")
            source = store.source(chunk_edges=chunk_edges)
            with trace("shard.stream", shard=i):
                for owner, partner, w in source.iter_chunks():
                    yp = y[partner]
                    known = yp != UNKNOWN_LABEL
                    scatter_add(S_flat, owner[known] * k + yp[known], w[known])
        Z = S_flat.reshape(self.n_vertices, k)
        class_rescale(Z, y, k)
        t1 = time.perf_counter()
        return EmbeddingResult(
            embedding=Z,
            projection_builder=lambda: projection_from_scales(
                y, projection_scales(y, k), k
            ),
            timings={"projection": 0.0, "edge_pass": t1 - t0, "total": t1 - t0},
            method=f"gee-sharded-outofcore[{self.n_shards}]",
            n_workers=1,
            layout="sorted",
        )
