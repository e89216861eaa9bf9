"""Ablation: ``scatter_add``'s dense/sparse threshold and the push/pull switch.

``repro.core.gee_vectorized.scatter_add`` picks between a dense
``np.bincount`` over the whole output and a sparse ``np.unique``-based
update of only the touched slots, switched on the fill ratio
(updates per output slot).  This micro-benchmark sweeps the fill ratio for
three strategies:

* ``dense``   — ``out += np.bincount(idx, w, minlength=out.size)``;
* ``unique``  — sort-based duplicate aggregation (the current sparse path);
* ``compact`` — the sort-free candidate: mark touched slots with a boolean
  mask, compact them with ``cumsum``, and bincount the compacted indices.

Measured result (recorded in ``BENCH_ablation_scatter.json``): the unique
path wins only below ~2–3 % fill, dense wins everywhere above, and the
sort-free compact variant loses to dense at *every* ratio (its O(out)
mask + cumsum pass costs more than bincount's single sweep) — so
``_SPARSE_THRESHOLD`` is set to 0.03 and the unique path is kept for the
very-sparse regime.

A second sweep records the direction crossover of the sorted owner-range
kernel (``accumulate_fused_rows_sorted``): on the friendster-sim stand-in
it times the *pull* (scan every owned incidence, drop unknown labels,
block-local segment sums) against the *push* (gather only the labelled
owners' segments, sort their targets, write the run sums) over one
``[0, n)`` range, at labelled fractions 1–100%, unweighted and with
uniform random weights.  The crossovers it finds set ``_PUSH_SHARE`` and
``_PUSH_SHARE_WEIGHTED`` in ``repro.core.gee_vectorized``.

Run directly to regenerate the JSON (``REPRO_BENCH_SCALE`` sizes the
direction sweep's graph); the pytest-benchmark cases cover the two
shipping scatter strategies at a sparse and a dense ratio.
"""

import argparse

import numpy as np
import pytest

from repro.core.gee_vectorized import (
    _PUSH_SHARE,
    _PUSH_SHARE_WEIGHTED,
    _SPARSE_THRESHOLD,
    _fused_direction,
    accumulate_fused_rows_sorted,
    scatter_add,
)
from repro.core.validation import class_counts, inverse_class_counts
from repro.eval.timing import time_callable
from repro.graph import Graph
from repro.graph.datasets import generate_labels, load
from repro.graph.edgelist import EdgeList

from bench_config import N_CLASSES, bench_entry, bench_scale, write_bench_json

#: Output slots: the n*K of a bench-scale friendster-sim embedding.
OUT_SIZE = 40_000 * N_CLASSES
FILL_RATIOS = [0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
#: Labelled fractions of the push/pull direction sweep.
LABELLED_FRACTIONS = [0.01, 0.05, 0.10, 0.25, 0.35, 0.50, 0.60, 0.75, 1.00]


def _dense(out, idx, w):
    out += np.bincount(idx, weights=w, minlength=out.size)


def _unique(out, idx, w):
    uniq, inverse = np.unique(idx, return_inverse=True)
    out[uniq] += np.bincount(inverse, weights=w)


def _compact(out, idx, w):
    mask = np.zeros(out.size, dtype=bool)
    mask[idx] = True
    touched = np.flatnonzero(mask)
    pos = np.cumsum(mask) - 1
    out[touched] += np.bincount(pos[idx], weights=w, minlength=touched.size)


STRATEGIES = {"dense": _dense, "unique": _unique, "compact": _compact}


def _case(fill_ratio: float, out_size: int = OUT_SIZE):
    rng = np.random.default_rng(0)
    m = max(1, int(out_size * fill_ratio))
    idx = rng.integers(0, out_size, size=m).astype(np.int64)
    return idx, rng.random(m)


@pytest.mark.benchmark(group="ablation-scatter")
@pytest.mark.parametrize("fill_ratio", [0.01, 0.25])
def test_shipping_scatter_add(benchmark, fill_ratio):
    """The dispatching scatter_add at a sparse and a dense fill ratio."""
    idx, w = _case(fill_ratio)
    out = np.zeros(OUT_SIZE)
    benchmark.extra_info["fill_ratio"] = fill_ratio
    benchmark(lambda: scatter_add(out, idx, w))


def _sorted_plan(weighted: bool):
    """The friendster-sim stand-in's sorted plan, optionally weighted."""
    edges, _ = load("friendster-sim", scale=bench_scale(), seed=0)
    if weighted:
        rng = np.random.default_rng(0)
        edges = EdgeList(
            edges.src, edges.dst, rng.uniform(0.5, 2.0, edges.n_edges), edges.n_vertices
        )
    plan = Graph.coerce(edges).plan(N_CLASSES, layout="sorted")
    plan.fused  # compile outside the timed region
    return plan


def _direction_sweep(repeats: int):
    """Time push against pull over ``[0, n)`` per labelled fraction."""
    entries, winners = [], {}
    for weighted in (False, True):
        plan = _sorted_plan(weighted)
        fused, n, k = plan.fused, plan.n_vertices, plan.n_classes
        out = np.empty(n * k)
        kind = "weighted" if weighted else "unweighted"
        for fraction in LABELLED_FRACTIONS:
            y = generate_labels(n, k, labelled_fraction=fraction, seed=0)
            y_idx = y.astype(fused.index_dtype)
            inv = inverse_class_counts(class_counts(y, k))
            share = _fused_direction(fused.row_ptr, y, weighted)[1] / fused.n_incidences
            best = {}
            for direction in ("pull", "push"):

                def run(push=direction == "push"):
                    accumulate_fused_rows_sorted(
                        out,
                        fused.owner_flat,
                        fused.partner,
                        fused.weights,
                        y_idx,
                        k,
                        fused.rows_per_block,
                        0,
                        n,
                        row_ptr=fused.row_ptr,
                        fully_labelled=bool(y.min() >= 0),
                        push=push,
                        inv=inv,
                    )

                record = time_callable(run, repeats=repeats, warmup=1)
                record.label = f"direction/{kind}/labelled={fraction}/{direction}"
                best[direction] = record.best
                entries.append(
                    bench_entry(
                        record,
                        n=n,
                        E=plan.n_edges,
                        K=k,
                        graph="friendster-sim",
                        layout="sorted",
                        strategy=direction,
                        weighted=weighted,
                        labelled_fraction=fraction,
                        labelled_incidence_share=round(share, 4),
                    )
                )
            winner = min(best, key=best.get)
            winners[f"{kind}/{fraction}"] = winner
            print(
                f"  {kind:10s} labelled={fraction:4.2f} share={share:5.3f}: "
                f"pull={best['pull']*1e3:7.1f}ms  push={best['push']*1e3:7.1f}ms"
                f"  -> {winner}"
            )
    return entries, winners


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    entries = []
    winners = {}
    for fill_ratio in FILL_RATIOS:
        idx, w = _case(fill_ratio)
        best_per_strategy = {}
        for name, fn in STRATEGIES.items():
            out = np.zeros(OUT_SIZE)
            record = time_callable(lambda: fn(out, idx, w), repeats=args.repeats)
            record.label = f"fill={fill_ratio}/{name}"
            best_per_strategy[name] = record.best
            entries.append(
                bench_entry(
                    record,
                    n=None,
                    E=idx.size,
                    K=N_CLASSES,
                    strategy=name,
                    fill_ratio=fill_ratio,
                    out_size=OUT_SIZE,
                )
            )
        winners[str(fill_ratio)] = min(best_per_strategy, key=best_per_strategy.get)
        print(
            f"  fill={fill_ratio:5.3f}: "
            + "  ".join(f"{k}={v*1e3:6.2f}ms" for k, v in best_per_strategy.items())
            + f"  -> {winners[str(fill_ratio)]}"
        )
    direction_entries, direction_winners = _direction_sweep(args.repeats)
    entries.extend(direction_entries)
    write_bench_json(
        "ablation_scatter",
        entries,
        gates=[
            {
                "kind": "informational",
                "reason": "scatter-strategy and push/pull direction "
                "ablation that tunes _SPARSE_THRESHOLD, _PUSH_SHARE and "
                "_PUSH_SHARE_WEIGHTED; conclusions land in code, not in a "
                "cross-run gate",
            }
        ],
        extra={
            "winner_per_fill_ratio": winners,
            "tuned_sparse_threshold": _SPARSE_THRESHOLD,
            "winner_per_labelled_fraction": direction_winners,
            "tuned_push_share": _PUSH_SHARE,
            "tuned_push_share_weighted": _PUSH_SHARE_WEIGHTED,
            "conclusion": (
                "unique wins only below ~2-3% fill; the sort-free compact "
                "variant loses to dense everywhere, so _SPARSE_THRESHOLD=0.03 "
                "and the unique sparse path is kept. "
                "Direction sweep: the push from the labelled owners wins "
                "below a ~0.55-0.6 share of labelled-owner incidences "
                "unweighted and ~0.3-0.4 weighted (2.5-3x faster at the "
                "paper's 10% labelling); the pull wins fully labelled by "
                "2-6x, so _PUSH_SHARE=0.55 and _PUSH_SHARE_WEIGHTED=0.3"
            ),
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
