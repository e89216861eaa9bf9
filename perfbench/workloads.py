"""The three benchmark workloads, driven only through the public API.

Each workload makes its inputs from a seed, sets up a servable state,
runs one operation at a time for the caller (one closed-loop client), and
checks every output outside the timed region:

* ``embed-serial`` — one ``vectorized`` ``embed_with_plan`` call on the
  compiled ``layout="sorted"`` plan of the friendster-sim R-MAT stand-in at
  4x the default scale, per fresh seeded label draw;
* ``embed-parallel`` — the same graph and labels through the ``parallel``
  backend with one worker per CPU;
* ``stream-churn`` — one drifting-community mutation batch per operation:
  stage, ``DynamicGraph.commit()``, ``IncrementalEmbedding.update()``, read.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from ledger import median

#: Embedding dimension and labelled share of the paper's protocol (§IV).
EMBED_K = 50
LABELLED_FRACTION = 0.10
#: The embed graph is friendster-sim at this multiple of the default scale:
#: n = 262,144 vertices, E = 4,456,448 directed edges.
EMBED_SCALE_MULTIPLE = 4

#: bench_stream's drifting-community scenario (0.4% + 0.4% churn a batch).
STREAM_K = 10
ARRIVAL_RATE = 0.004
REMOVAL_RATE = 0.004
DRIFT_FRACTION = 0.001
#: Batches generated per run; a run ends early if it uses them all.
STREAM_BATCHES = 256
#: Mutation history kept, as a long-running deployment would bound it; an
#: unbounded log would make peak memory grow with the operations run.
STREAM_MAX_LOG = 16

#: Oracle tolerance (elementwise) and column-mass relative tolerance.
ORACLE_ATOL = 1e-10
COLUMN_MASS_RTOL = 1e-9


def column_mass_error(Z: np.ndarray, labels: np.ndarray, wdeg: np.ndarray, k: int) -> Optional[str]:
    """Check ``Σ_u S[u,c] = Σ_{v: y_v=c} wdeg(v)`` with ``S = Z·diag(n_c)``.

    Each edge adds its weight to one row in its partner's class column at
    both endpoints, so column ``c`` of the raw sums holds exactly the
    weighted degree of the class-``c`` vertices.  A zeroed or doubled row
    window breaks the equality.  Returns a message on failure.
    """
    n = labels.shape[0]
    if Z.shape != (n, k):
        return f"embedding has shape {Z.shape}, expected {(n, k)}"
    known = labels >= 0
    y = labels[known]
    counts = np.bincount(y, minlength=k).astype(np.float64)
    mass = Z.sum(axis=0) * counts
    expected = np.bincount(y, weights=wdeg[known], minlength=k)
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    err = float(np.abs(mass - expected).max(initial=0.0)) / scale
    if not err <= COLUMN_MASS_RTOL:  # also catches NaN
        worst = int(np.argmax(np.abs(mass - expected)))
        return (
            f"column mass off by {err:.3e} (relative); class {worst}: "
            f"{mass[worst]!r} vs expected {expected[worst]!r}"
        )
    return None


def weighted_degrees(src: np.ndarray, dst: np.ndarray, weights, n: int) -> np.ndarray:
    """In plus out weighted degree of every vertex (a self-loop counts twice)."""
    return np.bincount(src, weights=weights, minlength=n) + np.bincount(
        dst, weights=weights, minlength=n
    )


def edge_pass_traffic_bytes(plan, labels: np.ndarray) -> int:
    """Computed bytes one fused sorted edge pass moves.

    The model of ``benchmarks/bench_native.py``: per incidence the owner
    flat index, the partner index and the partner's label (plus the weight
    on weighted graphs) are read, and the ``n×K`` output is written once.
    """
    fused = plan.fused
    per_incidence = (
        fused.owner_flat.dtype.itemsize
        + fused.partner.dtype.itemsize
        + labels.dtype.itemsize
    )
    if fused.weights is not None:
        per_incidence += fused.weights.dtype.itemsize
    return int(fused.partner.size * per_incidence + plan.n_vertices * plan.n_classes * 8)


def plan_bytes(plan) -> int:
    """Computed bytes a compiled layout plan holds: edges, layout, output."""
    edges = plan.src.nbytes + plan.dst.nbytes + plan.weights.nbytes
    return int(edges + plan.fused.nbytes + plan.n_vertices * plan.n_classes * 8)


def _obs_records(span, name: str) -> List[tuple]:
    return [rec for rec in span.attrs.get("obs", ()) if rec[1] == name]


def _setup_layers(ledger) -> Dict[str, float]:
    """Per-layer numbers of the set-up phase, as medians over repeats."""
    setups = ledger.named("setup")
    ship = [sum(rec[3] for rec in _obs_records(sp, "shm.ship")) for sp in setups]
    return {
        "graph.coerce_s": median(sp.dur for sp in ledger.named("graph.coerce")),
        "plan.compile_s": median(sp.dur for sp in ledger.named("plan.compile")),
        "shm.ship_s": median(ship),
        "shm.bytes": median(sp.attrs["shmem_bytes"] for sp in setups),
    }


class EmbedWorkload:
    """Repeated embeds of one compiled plan under fresh label draws."""

    def __init__(self, *, seed: int, scale: float, n_workers: int, parallel: bool) -> None:
        self.name = "embed-parallel" if parallel else "embed-serial"
        self.seed = seed
        self.scale = scale
        self.parallel = parallel
        self.n_workers = n_workers if parallel else 1
        self.plan = None
        self.backend = None

    # -- inputs ------------------------------------------------------------ #
    def generate(self) -> None:
        from repro.graph.datasets import DEFAULT_SCALE, load

        self.edges, _ = load(
            "friendster-sim",
            scale=DEFAULT_SCALE * EMBED_SCALE_MULTIPLE * self.scale,
            seed=self.seed,
        )
        self.n = int(self.edges.n_vertices)
        self.n_edges = int(self.edges.n_edges)
        self.wdeg = weighted_degrees(self.edges.src, self.edges.dst, None, self.n)

    def labels(self, i: int) -> np.ndarray:
        """The paper's label draw for operation ``i`` (``-1`` = set-up)."""
        from repro.graph.datasets import generate_labels

        state = np.random.SeedSequence([self.seed, 1, i + 1]).generate_state(1)[0]
        return generate_labels(
            self.n, EMBED_K, labelled_fraction=LABELLED_FRACTION, seed=int(state)
        )

    # -- set-up ------------------------------------------------------------ #
    def setup(self, ledger) -> None:
        from repro import Graph, get_backend

        with ledger.span("graph.coerce"):
            graph = Graph.coerce(self.edges)
        with ledger.span("plan.compile") as sp:
            plan = graph.plan(EMBED_K, layout="sorted")
            plan.fused
        if self.parallel:
            backend = get_backend("parallel", n_workers=self.n_workers)
        else:
            backend = get_backend("vectorized")
        y = self.labels(-1)
        with ledger.span("first_call"):
            backend.embed_with_plan(plan, y)
        if ledger.enabled:
            sp.attrs["plan_bytes"] = plan_bytes(plan)
            sp.attrs["kernel_bytes"] = edge_pass_traffic_bytes(plan, y)
        self.plan, self.backend = plan, backend

    def teardown(self) -> None:
        if self.parallel:
            from repro.core.gee_parallel import shutdown_workers

            shutdown_workers()
        self.plan = self.backend = None
        gc.collect()

    # -- operations -------------------------------------------------------- #
    def prepare(self, i: int) -> np.ndarray:
        return self.labels(i)

    def run_op(self, y: np.ndarray, ledger):
        with ledger.span("backend.embed_with_plan") as sp:
            result = self.backend.embed_with_plan(self.plan, y)
        if ledger.enabled:
            sp.attrs["timings"] = dict(result.timings)
        return result

    def work(self, y) -> int:
        return self.n_edges

    def sampled(self, i: int) -> bool:
        """One oracle check a run (a full sparse embed costs seconds)."""
        return i == self.seed % 32

    def check(self, y: np.ndarray, result) -> Optional[str]:
        return column_mass_error(result.embedding, y, self.wdeg, EMBED_K)

    def keep(self, y: np.ndarray, result):
        return y, np.array(result.embedding, copy=True)

    def verify(self, kept) -> Optional[str]:
        """Compare with the independent ``sparse`` backend on a fresh graph."""
        from repro import get_backend

        y, Z = kept
        ref = get_backend("sparse").embed(self.edges, y, EMBED_K).embedding
        err = float(np.abs(ref - Z).max())
        if not err <= ORACLE_ATOL:
            return f"differs from the sparse oracle by {err:.3e}"
        return None

    # -- per-layer ledger -------------------------------------------------- #
    def layer_metrics(self, ledger) -> Dict[str, float]:
        out = _setup_layers(ledger)
        compiles = ledger.named("plan.compile")
        out["plan.bytes"] = median(sp.attrs["plan_bytes"] for sp in compiles)
        out["kernel.bytes"] = median(sp.attrs["kernel_bytes"] for sp in compiles)
        phases = ("preprocess", "projection", "edge_pass")
        embeds = ledger.named("backend.embed_with_plan")
        for phase in phases:
            out[f"kernel.{phase}_ms"] = 1e3 * median(
                sp.attrs["timings"].get(phase, 0.0) for sp in embeds
            )
        out["dispatch.ms"] = 1e3 * median(
            sp.dur - sum(sp.attrs["timings"].get(p, 0.0) for p in phases)
            for sp in embeds
        )
        edge_pass_s = out["kernel.edge_pass_ms"] / 1e3
        out["kernel.gbps"] = out["kernel.bytes"] / edge_pass_s / 1e9 if edge_pass_s else 0.0
        out.update(self._pool_metrics(ledger, embeds))
        return out

    @staticmethod
    def _pool_metrics(ledger, embeds) -> Dict[str, float]:
        """Pool numbers from the ``repro.obs`` spans of the traced operations."""
        rows = []
        for sp in embeds:
            op = ledger.spans[sp.parent]
            dispatch = _obs_records(op, "parallel.dispatch")
            tasks = _obs_records(op, "worker.task")
            if not dispatch or not tasks:
                continue
            dispatch_s = sum(rec[3] for rec in dispatch)
            task_s = [rec[3] for rec in tasks]
            per_worker = Counter((rec[6] or {}).get("worker") for rec in tasks)
            mean = sum(task_s) / len(task_s)
            rows.append(
                {
                    "dispatch": dispatch_s,
                    "max": max(task_s),
                    "mean": mean,
                    "imbalance": max(task_s) / mean if mean else 0.0,
                    "wait": dispatch_s - max(task_s),
                    "tasks_per_worker": max(per_worker.values()),
                    "parent": sp.dur - dispatch_s,
                }
            )

        def col(key: str) -> float:
            return median(row[key] for row in rows)

        return {
            "pool.dispatch_ms": 1e3 * col("dispatch"),
            "pool.task_ms_max": 1e3 * col("max"),
            "pool.task_ms_mean": 1e3 * col("mean"),
            "pool.imbalance": col("imbalance"),
            "pool.wait_ms": 1e3 * col("wait"),
            "pool.tasks_per_worker": col("tasks_per_worker"),
            "parallel.parent_ms": 1e3 * col("parent"),
        }


class StreamChurnWorkload:
    """One drifting-community mutation batch per operation."""

    name = "stream-churn"

    def __init__(self, *, seed: int, scale: float, n_workers: int) -> None:
        self.seed = seed
        self.scale = scale
        self.n_workers = 1
        self.dyn = None
        self.inc = None

    def generate(self) -> None:
        from repro.graph import temporal_drift
        from repro.graph.datasets import DEFAULT_SCALE, PAPER_GRAPHS

        spec = PAPER_GRAPHS["friendster-sim"]
        scale = DEFAULT_SCALE * self.scale
        self.scenario = temporal_drift(
            max(200, int(spec.paper_n * scale)),
            max(2000, int(spec.paper_s * scale)),
            STREAM_K,
            n_batches=STREAM_BATCHES,
            arrival_rate=ARRIVAL_RATE,
            removal_rate=REMOVAL_RATE,
            drift_fraction=DRIFT_FRACTION,
            weighted=True,
            seed=self.seed,
        )

    def setup(self, ledger) -> None:
        from repro import DynamicGraph, Graph, IncrementalEmbedding

        with ledger.span("graph.coerce"):
            graph = Graph.coerce(self.scenario.initial)
        with ledger.span("stream.dynamic_graph"):
            dyn = DynamicGraph(graph, max_log=STREAM_MAX_LOG)
        with ledger.span("first_call"):
            inc = IncrementalEmbedding(
                dyn, self.scenario.labels, n_classes=STREAM_K, backend="vectorized"
            )
        self.dyn, self.inc = dyn, inc

    def teardown(self) -> None:
        self.dyn = self.inc = None
        gc.collect()

    def prepare(self, i: int):
        batches = self.scenario.batches
        return batches[i] if i < len(batches) else None

    def run_op(self, batch, ledger):
        dyn, inc = self.dyn, self.inc
        with ledger.span("stream.stage"):
            if batch.n_removed:
                dyn.remove_edges(batch.remove_src, batch.remove_dst)
            if batch.n_added:
                dyn.add_edges(batch.add.src, batch.add.dst, batch.add.weights)
        with ledger.span("stream.commit") as sp:
            dyn.commit()
        if ledger.enabled:
            edges = dyn.graph.edges
            sp.attrs["bytes"] = edges.src.nbytes + edges.dst.nbytes + (
                0 if edges.weights is None else edges.weights.nbytes
            )
        with ledger.span("stream.update") as sp:
            report = inc.update()
        if ledger.enabled:
            sp.attrs["refreshed"] = report.refreshed
            sp.attrs["patched_edges"] = report.patched_edges
        with ledger.span("stream.read"):
            Z = inc.embedding
        return Z

    def work(self, batch) -> int:
        return batch.n_added + batch.n_removed

    def sampled(self, i: int) -> bool:
        return i in (0, 50)

    def check(self, batch, Z: np.ndarray) -> Optional[str]:
        edges = self.dyn.graph.edges
        wdeg = weighted_degrees(edges.src, edges.dst, edges.weights, edges.n_vertices)
        return column_mass_error(Z, self.inc.labels, wdeg, STREAM_K)

    def keep(self, batch, Z: np.ndarray):
        # Committed edge arrays are never written again (copy-on-write), so
        # holding a reference pins this version without copying it.
        return self.dyn.graph.edges, self.inc.labels.copy(), np.array(Z, copy=True)

    def verify(self, kept) -> Optional[str]:
        """Compare with a cold re-fit of that version by the sparse backend."""
        from repro import Graph, GraphEncoderEmbedding

        edges, labels, Z = kept
        model = GraphEncoderEmbedding(STREAM_K, method="sparse")
        model.fit(Graph(edges.copy()), labels)
        err = float(np.abs(model.embedding_ - Z).max())
        if not err <= ORACLE_ATOL:
            return f"differs from a cold re-fit by {err:.3e}"
        return None

    def layer_metrics(self, ledger) -> Dict[str, float]:
        out = _setup_layers(ledger)
        updates = ledger.named("stream.update")
        patches = [sp for sp in updates if not sp.attrs.get("refreshed")]
        refreshes = [sp for sp in updates if sp.attrs.get("refreshed")]
        commits = ledger.named("stream.commit")
        out.update(
            {
                "commit.ms": 1e3 * median(sp.dur for sp in commits),
                "commit.bytes": median(sp.attrs.get("bytes", 0) for sp in commits),
                "update.patch_ms": 1e3 * median(sp.dur for sp in patches),
                "update.edges_patched": median(sp.attrs["patched_edges"] for sp in patches),
                "update.refresh_ms": 1e3 * median(sp.dur for sp in refreshes),
                "update.refresh_count": len(refreshes),
            }
        )
        return out


WORKLOADS = {
    "embed-serial": lambda **kw: EmbedWorkload(parallel=False, **kw),
    "embed-parallel": lambda **kw: EmbedWorkload(parallel=True, **kw),
    "stream-churn": StreamChurnWorkload,
}
