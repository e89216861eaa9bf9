"""Streaming benchmark: O(Δ) incremental maintenance vs re-fit per version.

The scenario a production deployment actually faces: a friendster-scale
stand-in graph under continuous low-rate churn (≤1 % of edges added/removed
per batch, with slow community drift), where the embedding must stay
current at every version.  Three timings are recorded per mutation batch:

* **commit** — staging the batch and ``DynamicGraph.commit()``: instance
  matching of the removals and the copy-on-write build of the next
  version's edge arrays;
* **incremental-update** — ``IncrementalEmbedding.update()`` alone (the
  commit is timed separately above): one O(Δ) scatter patch of the
  persisted raw sums plus touched-row renormalisation;
* **refit** — a cold ``GraphEncoderEmbedding.fit`` on the mutated graph (a
  fresh facade: validation, plan compilation, full O(E) edge pass — what
  you pay without the dynamic-graph subsystem).

Exactness is asserted as it goes: the incremental embedding must match the
re-fit to 1e-10 at every checked version (``--check-every 1``, the
default, checks all of them).  The emitted ``BENCH_stream.json`` records
all three timings and the update-vs-refit ratio; the CI gates
(``check_regression.py --speedup incremental-update:refit`` and
``--speedup commit:incremental-update``) fail if the update stops beating
the re-fit or the commit falls too far behind the update.

Run directly::

    PYTHONPATH=src python benchmarks/bench_stream.py --batches 30
    PYTHONPATH=src REPRO_BENCH_SCALE=0.05 \
        python benchmarks/bench_stream.py --batches 1000 --check-every 100
"""

from __future__ import annotations

import argparse
import time

import numpy as np
import pytest

from repro.core.api import GraphEncoderEmbedding
from repro.eval.timing import TimingRecord
from repro.graph import Graph, temporal_drift
from repro.graph.datasets import PAPER_GRAPHS
from repro.stream import DynamicGraph, IncrementalEmbedding

from bench_config import bench_entry, bench_scale, write_bench_json

#: Per-batch churn: arrivals + removals ≈ 0.8 % of the live edge count,
#: inside the ≤1 % regime the acceptance criterion names.
ARRIVAL_RATE = 0.004
REMOVAL_RATE = 0.004
DRIFT_FRACTION = 0.001
N_CLASSES = 10
EXACTNESS_ATOL = 1e-10


def _scenario(n_batches: int, seed: int = 0, scale: float = None):
    """A friendster-sim-sized drifting community graph.

    Dimensions follow the ``friendster-sim`` stand-in at the current
    ``REPRO_BENCH_SCALE`` (the same sizing every other benchmark uses); the
    edges themselves come from :func:`repro.graph.temporal_drift` so the
    churn respects a community structure that slowly drifts.
    """
    spec = PAPER_GRAPHS["friendster-sim"]
    scale = bench_scale() if scale is None else scale
    n = max(200, int(spec.paper_n * scale))
    s = max(2000, int(spec.paper_s * scale))
    return temporal_drift(
        n,
        s,
        N_CLASSES,
        n_batches=n_batches,
        arrival_rate=ARRIVAL_RATE,
        removal_rate=REMOVAL_RATE,
        drift_fraction=DRIFT_FRACTION,
        weighted=True,
        seed=seed,
    )


def _replay(dyn: DynamicGraph, batch) -> None:
    if batch.n_removed:
        dyn.remove_edges(batch.remove_src, batch.remove_dst)
    if batch.n_added:
        dyn.add_edges(batch.add.src, batch.add.dst, batch.add.weights)
    dyn.commit()


def run_stream(
    n_batches: int,
    *,
    backend: str = "vectorized",
    check_every: int = 1,
    refit_every: int = 1,
    seed: int = 0,
    scale: float = None,
):
    """Replay the drift schedule; time updates and re-fits, check exactness.

    ``check_every`` is the exactness cadence (every N versions);
    ``refit_every`` the re-fit *timing* cadence — a re-fit is always run at
    exactness checkpoints regardless, since it is the reference.
    """
    scen = _scenario(n_batches, seed=seed, scale=scale)
    labels = scen.labels
    dyn = DynamicGraph(scen.initial)
    inc = IncrementalEmbedding(dyn, labels, n_classes=N_CLASSES, backend=backend)

    update = TimingRecord(label="incremental-update")
    commit = TimingRecord(label="commit")
    refit = TimingRecord(label="refit")
    churn = 0
    checked = 0
    for i, batch in enumerate(scen.batches, start=1):
        churn += batch.n_added + batch.n_removed
        t0 = time.perf_counter()
        _replay(dyn, batch)
        t1 = time.perf_counter()
        inc.update()
        t2 = time.perf_counter()
        commit.samples.append(t1 - t0)
        update.samples.append(t2 - t1)

        check = i % check_every == 0 or i == n_batches
        if check or i % refit_every == 0:
            model = GraphEncoderEmbedding(N_CLASSES, method=backend)
            t3 = time.perf_counter()
            model.fit(Graph(dyn.graph.edges.copy()), labels)
            refit.samples.append(time.perf_counter() - t3)
            if check:
                checked += 1
                err = float(np.abs(inc.embedding - model.embedding_).max())
                if not err <= EXACTNESS_ATOL:
                    raise AssertionError(
                        f"version {dyn.version}: incremental embedding "
                        f"diverged from re-fit by {err:.3e} (> {EXACTNESS_ATOL})"
                    )
    return {
        "scenario": scen,
        "dyn": dyn,
        "inc": inc,
        "update": update,
        "commit": commit,
        "refit": refit,
        "churn": churn,
        "checked": checked,
    }


# --------------------------------------------------------------------------- #
# pytest smoke
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["vectorized", "sparse"])
def test_stream_smoke(backend):
    # Pin a tiny scale so the smoke stays fast regardless of the env.
    from repro.graph.datasets import DEFAULT_SCALE

    out = run_stream(3, backend=backend, check_every=1, scale=DEFAULT_SCALE * 0.02)
    assert out["inc"].version == 3
    assert out["checked"] == 3


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, default=30,
                        help="number of mutation batches to replay")
    parser.add_argument("--backend", default="vectorized")
    parser.add_argument("--check-every", type=int, default=1,
                        help="assert exactness vs a re-fit every N versions")
    parser.add_argument("--refit-every", type=int, default=1,
                        help="time the re-fit baseline every N versions")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = run_stream(
        args.batches,
        backend=args.backend,
        check_every=max(1, args.check_every),
        refit_every=max(1, args.refit_every),
        seed=args.seed,
    )
    dyn, inc = out["dyn"], out["inc"]
    update, commit, refit = out["update"], out["commit"], out["refit"]
    e = dyn.n_edges
    churn_fraction = out["churn"] / max(1, args.batches) / e
    speedup_mean = refit.mean / update.mean
    speedup_best = refit.best / update.best
    print(
        f"  scenario: n={dyn.n_vertices} E={e} K={N_CLASSES} "
        f"batches={args.batches} churn/batch={churn_fraction:.3%}"
    )
    print(
        f"  update {update.mean * 1e3:.3f} ms  commit {commit.mean * 1e3:.3f} ms  "
        f"refit {refit.mean * 1e3:.3f} ms  -> speedup {speedup_mean:.1f}x "
        f"(best {speedup_best:.1f}x); exactness <= {EXACTNESS_ATOL} at "
        f"{out['checked']} versions; refreshes={inc.n_refreshes - 1}"
    )

    common = dict(
        backend=args.backend,
        graph="friendster-sim-drift",
        n=dyn.n_vertices,
        E=e,
        K=N_CLASSES,
    )
    entries = [
        bench_entry(update, **common, churn_per_batch=churn_fraction),
        bench_entry(commit, **common),
        bench_entry(refit, **common),
    ]
    write_bench_json(
        "stream",
        entries,
        gates=[
            {
                "kind": "speedup",
                "fast": "incremental-update",
                "slow": "refit",
                "min_speedup": 3,
                "ci": "check_regression.py --speedup incremental-update:refit "
                "--min-speedup 3 (full-scale baseline shows >5x)",
            },
            {
                "kind": "speedup",
                "fast": "commit",
                "slow": "incremental-update",
                "min_speedup": 0.25,
                "ci": "check_regression.py --speedup commit:incremental-update "
                "--min-speedup 0.25 (commit <= 4x update at smoke scale)",
            },
        ],
        extra={
            "n_batches": args.batches,
            "churn_per_batch": churn_fraction,
            "exactness_atol": EXACTNESS_ATOL,
            "exactness_checked_versions": out["checked"],
            "n_patch_updates": inc.n_patch_updates,
            "n_refreshes": inc.n_refreshes,
            "speedup_mean": speedup_mean,
            "speedup_best": speedup_best,
            "commit_over_update_best": commit.best / update.best,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
