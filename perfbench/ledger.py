"""In-memory span ledger and the statistics the benchmark reports.

The ledger records spans from the benchmark's own code, around the calls it
makes into each layer's public functions: a span has a name, a start, a
duration, the span that caused it and the operation it belongs to.  Spans
stay in memory and are written once, when the run ends.  An untraced run
uses :data:`NULL_LEDGER`, which records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import numpy as np


class Span:
    """One timed region; ``attrs`` may be filled in while it is open."""

    __slots__ = ("span_id", "parent", "op", "name", "t0", "dur", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], op: Optional[int], name: str):
        self.span_id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.t0 = 0.0
        self.dur = 0.0
        self.attrs: Dict[str, Any] = {}

    def to_dict(self) -> Dict[str, Any]:
        # The repro.obs records a span collected are written once, with the
        # rest of the obs buffer; here only their count is kept.
        attrs = {k: (len(v) if k == "obs" else v) for k, v in self.attrs.items()}
        return {
            "id": self.span_id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "t0": self.t0,
            "dur": self.dur,
            "attrs": attrs,
        }


class Ledger:
    """Span recorder for one traced benchmark run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(len(self.spans), parent, self.op, name)
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.dur = time.perf_counter() - sp.t0
            self._stack.pop()

    def named(self, name: str) -> List[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def write(self, path, extra_records: Optional[List[tuple]] = None) -> None:
        """Write every span (and any ``repro.obs`` records) as JSON lines."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict(), default=_jsonable) + "\n")
            for rec in extra_records or ():
                kind, name, t0, dur, pid, tid, attrs = rec
                fh.write(
                    json.dumps(
                        {"obs": kind, "name": name, "t0": t0, "dur": dur,
                         "pid": pid, "tid": tid, "attrs": attrs},
                        default=_jsonable,
                    )
                    + "\n"
                )


class _NullSpan:
    __slots__ = ()

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}


class NullLedger:
    """The untraced ledger: every span is a shared no-op."""

    enabled = False
    op: Optional[int] = None
    _SPAN = _NullSpan()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_NullSpan]:
        yield self._SPAN


NULL_LEDGER = NullLedger()


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def median(values) -> float:
    """Median of ``values``; 0.0 for an empty sequence (a layer not run)."""
    values = list(values)
    return float(np.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation, as NumPy computes it)."""
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0
