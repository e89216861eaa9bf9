"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload from the repository root::

    python3 perfbench/run.py --workload embed-serial --seed 1 --seconds 27 --trace 0

or all three, each in its own process, with ``--workload all``.  Workloads
are described in ``workloads.py``; ``BENCHMARK.json`` names every metric
with its unit, and ``perfbench/spec.json`` records the seeds and which
end-to-end metric each per-layer metric should move, on which workload.

A run makes its inputs from ``--seed``, sets the workload up several times
(``setup_s`` is the median), then calls one operation at a time for
``--seconds`` (one closed-loop caller).  Every output is checked outside
the timed region; a raised error or a failed check counts as a failed
operation.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
records spans around every layer call, turns ``repro.obs`` on for every
other operation (the rest measure its overhead), measures a STREAM triad
and reports the per-layer metrics; it reports no end-to-end number.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results,
provenance and (traced) span ledgers are also written under
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
#: Set-up repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: End-to-end metrics printed and saved with every untraced result but left
#: out of the final JSON line, which carries only the gated metrics of
#: ``BENCHMARK.json``: the p90's run-to-run spread on a shared 2-CPU host
#: reached 0.27 of its median, above the largest bound a metric may have.
PRINTED_ONLY = {"op_p90_ms": "ms"}


def load_json(path: Path) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def _import_program() -> None:
    """Make the program under ``src/`` (and ``benchmarks/``) importable."""
    for extra in (ROOT / "src", ROOT / "benchmarks"):
        if str(extra) not in sys.path:
            sys.path.insert(1, str(extra))
    import repro  # noqa: F401  (fails here when the program is absent)


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
) -> Dict:
    """Run one workload and return its result (metrics, counts, provenance).

    ``scale`` multiplies the workload's graph size; the reported benchmark
    always runs at 1.0 and the self-tests use a small value.
    """
    from repro import obs

    import machine
    from ledger import NULL_LEDGER, Ledger, median, percentile
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed=seed, scale=scale, n_workers=machine.nproc())
    ledger = Ledger() if trace else NULL_LEDGER
    meter = machine.MemoryMeter()
    wl.generate()

    setup_s: List[float] = []
    walls: List[float] = []
    obs_walls: Dict[bool, List[float]] = {True: [], False: []}
    failures: List[str] = []
    attempted = work = 0
    kept = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                wl.teardown()
            with ledger.span("setup", repeat=repeat) as sp:
                if trace:
                    shmem = machine.shmem_bytes()
                    obs.enable()
                    mark = obs.mark()
                t0 = time.perf_counter()
                try:
                    wl.setup(ledger)
                finally:
                    setup_s.append(time.perf_counter() - t0)
                    if trace:
                        obs.disable()
                        sp.attrs["obs"] = obs.records_since(mark)
                        sp.attrs["shmem_bytes"] = machine.shmem_bytes() - shmem
        meter.sample()

        deadline = time.perf_counter() + seconds
        min_ops = 2 if trace else 1  # a traced run needs an op each way
        i = 0
        while i < min_ops or time.perf_counter() < deadline:
            x = wl.prepare(i)
            if x is None:
                print(f"note: inputs exhausted after {i} operations", file=sys.stderr)
                break
            attempted += 1
            traced_op = trace and i % 2 == 0
            ledger.op = i
            try:
                with ledger.span("op", obs=[]) as sp:
                    if traced_op:
                        obs.enable()
                        mark = obs.mark()
                    try:
                        t0 = time.perf_counter()
                        out = wl.run_op(x, ledger)
                        wall = time.perf_counter() - t0
                    finally:
                        if traced_op:
                            obs.disable()
                            sp.attrs["obs"] = obs.records_since(mark)
            except Exception:  # the closed loop keeps going; the op failed
                failures.append(f"op {i} raised:\n{traceback.format_exc()}")
                i += 1
                continue
            walls.append(wall)
            obs_walls[traced_op].append(wall)
            work += wl.work(x)
            problem = wl.check(x, out)
            if problem is not None:
                failures.append(f"op {i}: {problem}")
            elif wl.sampled(i):
                kept.append((i, wl.keep(x, out)))
            del out
            # Free the previous version's garbage between operations, so the
            # peak memory does not depend on when the cyclic collector runs.
            gc.collect()
            meter.sample()
            i += 1
        ledger.op = None
        peak_rss_mb = meter.peak_mb()

        for i, sample in kept:
            problem = wl.verify(sample)
            if problem is not None:
                failures.append(f"op {i} (oracle): {problem}")
        del kept
        layers = wl.layer_metrics(ledger) if trace else {}
    finally:
        wl.teardown()

    if trace:
        gc.collect()
        llc = machine.llc_bytes() or machine.FALLBACK_LLC_BYTES
        triad = machine.stream_triad(machine.TRIAD_LLC_MULTIPLE * llc)
        layers["triad.gbps"] = triad["gbps"]
        kernel_gbps = layers.get("kernel.gbps", 0.0)
        layers["kernel.triad_frac"] = kernel_gbps / triad["gbps"]
        untraced = median(obs_walls[False])
        layers["obs.overhead_frac"] = median(obs_walls[True]) / untraced - 1.0 if untraced else 0.0
        # A layer off this workload's path did no work here: it reads 0.
        for metric, target in load_json(HERE / "spec.json")["per_layer"].items():
            if name not in target["on"]:
                layers.setdefault(metric, 0.0)
        metrics = layers
    else:
        triad = None
        metrics = {
            "setup_s": median(setup_s),
            "op_p50_ms": 1e3 * percentile(walls, 50),
            "op_p90_ms": 1e3 * percentile(walls, 90),
            "edges_per_s": work / sum(walls) if walls else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "workload": name,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "op_ms": [1e3 * w for w in walls],
        "setup_repeats_s": setup_s,
        "triad": triad,
        "ledger": ledger if trace else None,
        "provenance": machine.provenance(
            ROOT, workload=name, seed=seed, n_workers=wl.n_workers
        ),
    }


def _emit(result: Dict, declared: List[Dict], seconds: float) -> Dict:
    """Print the human-readable lines and return the final JSON object."""
    units = {m["name"]: m["unit"] for m in declared}
    printed = {} if result["trace"] else PRINTED_ONLY
    missing = sorted((set(units) | set(printed)) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(units) - set(printed))
    if missing or extra:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  trace={int(result['trace'])}  "
          f"ops={len(result['op_ms'])} in {seconds:g} s  provenance={json.dumps(result['provenance'])}")
    if result["triad"]:
        t = result["triad"]
        print(f"  triad: {t['array_bytes'] / 2**20:.0f} MiB per array, LLC "
              f"{(result['provenance']['llc_bytes'] or 0) / 2**20:.0f} MiB, {t['gbps']:.2f} GB/s")
    for name, unit in {**units, **printed}.items():
        print(f"  {name:<24} {result['metrics'][name]:>16.6g} {unit}")
    print(f"  {'error_rate':<24} {failed / max(1, attempted):>16.6g} failed/attempted "
          f"({failed}/{attempted})")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _save(result: Dict, final: Dict, seed: int, spec: Dict) -> None:
    from repro import obs

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{seed}-trace{int(result['trace'])}"
    record = dict(final, all_metrics=result["metrics"], provenance=result["provenance"],
                  setup_repeats_s=result["setup_repeats_s"],
                  op_ms=result["op_ms"], triad=result["triad"])
    if result["trace"]:
        record["per_layer_targets"] = spec["per_layer"]
        result["ledger"].write(OUT_DIR / f"{stem}.spans.jsonl", obs.snapshot())
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for shared memory.

    It would otherwise outlive the run by a moment; stopping it here waits
    for it to exit.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run_all(args, workloads: List[str]) -> int:
    """Run every workload in its own process; print one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "spec.json")
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, names)
    result = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    final = _emit(result, declared, args.seconds)
    _save(result, final, args.seed, spec)
    _stop_resource_tracker()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
