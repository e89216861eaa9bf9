"""Machine measurements: memory, last-level cache, STREAM triad, provenance."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

#: Stated fallback when the cache size cannot be read (105 MiB, the L3 of
#: the Xeon host the benchmark was first tuned on).
FALLBACK_LLC_BYTES = 105 * 1024 * 1024

#: Triad arrays are at least this many times the last-level cache.
TRIAD_LLC_MULTIPLE = 4


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def llc_bytes() -> Optional[int]:
    """Size of the largest CPU cache in bytes, or ``None`` if unreadable."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def _proc_kib(pid: int, filename: str, field: str) -> int:
    with open(f"/proc/{pid}/{filename}") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def shmem_bytes() -> int:
    """Shared memory (shm segments) resident in this process, in bytes."""
    try:
        return 1024 * _proc_kib(os.getpid(), "status", "RssShmem")
    except OSError:  # pragma: no cover - no procfs
        return 0


class MemoryMeter:
    """Peak memory of this process plus its pool workers.

    The parent contributes its peak resident set (``VmHWM``).  Each child
    process contributes the largest unique set size (private pages) seen
    at any :meth:`sample` call, so pages shared with the parent through
    ``fork`` or shared memory are counted once, in the parent.
    """

    def __init__(self) -> None:
        self._child_peak_kib: Dict[int, int] = {}

    def sample(self) -> None:
        for child in multiprocessing.active_children():
            try:
                private = _proc_kib(child.pid, "smaps_rollup", "Private_Clean")
                private += _proc_kib(child.pid, "smaps_rollup", "Private_Dirty")
            except OSError:
                continue  # the child exited between listing and reading
            peak = self._child_peak_kib.get(child.pid, 0)
            self._child_peak_kib[child.pid] = max(peak, private)

    def peak_mb(self) -> float:
        self.sample()
        try:
            parent = _proc_kib(os.getpid(), "status", "VmHWM")
        except OSError:  # pragma: no cover - no procfs
            import resource

            parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (parent + sum(self._child_peak_kib.values())) / 1024.0


def stream_triad(array_bytes: int, repeats: int = 4) -> Dict[str, float]:
    """STREAM triad ``a = b + s*c`` over three arrays of ``array_bytes`` each.

    Counts 24 bytes of traffic per element (read ``b``, read ``c``, write
    ``a``), the STREAM convention, and reports the best of ``repeats``
    passes after one warm-up pass.
    """
    n = max(1, array_bytes // 8)
    a = np.zeros(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    best = float("inf")
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        np.multiply(c, 0.42, out=a)
        np.add(a, b, out=a)
        if i:
            best = min(best, time.perf_counter() - t0)
    del a, b, c
    return {"gbps": 24.0 * n / best / 1e9, "array_bytes": n * 8, "best_s": best}


def _git(root: Path, *args: str) -> Optional[str]:
    # The ceiling keeps git from answering for an enclosing repository when
    # the benchmark runs from a plain (non-git) checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path and contents)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, *, workload: str, seed: int, n_workers: int) -> Dict:
    """Where and from what a result came: seed, machine, code, libraries."""
    try:
        from bench_config import bench_environment

        environment = bench_environment()
    except ImportError as exc:
        environment = {"unavailable": str(exc)}
    status = _git(root, "status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "n_workers": n_workers,
        "llc_bytes": llc_bytes(),
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "argv": sys.argv[1:],
        "environment": environment,
    }
