"""Figure 2: Friendster runtimes normalised to the compiled serial baseline.

The paper's Figure 2 shows, for the largest graph, each implementation's
runtime divided by the Numba-serial runtime (GEE-Python ≈ 30×, Ligra serial
≈ 0.69×, Ligra parallel ≈ 0.057×).  The benchmark group below produces the
same four bars on the Friendster stand-in; the normalisation itself is
reported by ``repro.eval.experiments.figure2`` and recorded in
EXPERIMENTS.md.
"""

import argparse

import pytest

from repro.backends import get_backend
from repro.eval.timing import time_callable

from bench_config import N_CLASSES, bench_entry, load_bench_dataset, write_bench_json


@pytest.mark.benchmark(group="figure2-friendster-normalized")
class TestFigure2:
    def test_gee_python_reference(self, benchmark, twitch_sim):
        """The interpreted baseline.

        Measured on the Twitch stand-in (the pure-Python loop on the
        Friendster stand-in would dominate the whole benchmark session);
        its >30x gap versus the compiled baseline is visible at any size
        because both scale linearly in the edge count.
        """
        graph, labels, _ = twitch_sim
        backend = get_backend("python")
        benchmark.pedantic(
            lambda: backend.embed(graph, labels, N_CLASSES), rounds=2, iterations=1
        )

    def test_numba_serial_standin(self, benchmark, friendster_sim):
        graph, labels, _ = friendster_sim
        backend = get_backend("vectorized")
        benchmark(lambda: backend.embed(graph, labels, N_CLASSES))

    def test_ligra_serial(self, benchmark, friendster_sim):
        graph, labels, _ = friendster_sim
        backend = get_backend("ligra-vectorized")
        benchmark(lambda: backend.embed(graph, labels, N_CLASSES))

    def test_ligra_parallel(self, benchmark, friendster_sim):
        graph, labels, _ = friendster_sim
        backend = get_backend("parallel")
        backend.embed(graph, labels, N_CLASSES)  # warm pool and sorted-plan shm
        benchmark(lambda: backend.embed(graph, labels, N_CLASSES))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    graph, labels, _ = load_bench_dataset("friendster-sim")
    twitch, twitch_labels, _ = load_bench_dataset("twitch-sim")
    entries = []
    runtimes = {}
    cases = [
        ("python", twitch, twitch_labels, "twitch-sim", 1),
        ("vectorized", graph, labels, "friendster-sim", args.repeats),
        ("sparse", graph, labels, "friendster-sim", args.repeats),
        ("ligra-vectorized", graph, labels, "friendster-sim", args.repeats),
        ("parallel", graph, labels, "friendster-sim", args.repeats),
    ]
    for name, g, y, ds, repeats in cases:
        backend = get_backend(name)
        record = time_callable(
            lambda: backend.embed(g, y, N_CLASSES), repeats=repeats, warmup=1
        )
        record.label = f"{ds}/{name}"
        runtimes[name] = record.best
        entries.append(
            bench_entry(record, backend=name, graph=ds, n=g.n_vertices, E=g.n_edges)
        )
        print(f"  {record.label}: best={record.best*1e3:.2f}ms")
    base = runtimes["vectorized"]
    for entry in entries:
        if entry["graph"] != "friendster-sim":
            continue  # the python row runs on twitch; a cross-graph ratio lies
        entry["normalized_to_vectorized"] = (
            entry["best_s"] / base if base > 0 else float("nan")
        )
    write_bench_json(
        "fig2_normalized",
        entries,
        gates=[
            {
                "kind": "informational",
                "reason": "paper-figure reproduction (Fig. 2 normalised "
                "times); no cross-run comparison",
            }
        ],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
