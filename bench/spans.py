"""Spans recorded from outside the program, by rebinding the module and class
attributes through which ``neat`` looks up its own layer functions at call
time.

Every span holds its name, start, end, parent span and run id. Spans stay in
memory; a layer's self time is computed afterwards from the parent links as
the span's duration minus the durations of its children. Calls are made on
one thread, so children of one span never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from neat import checkpoint, collector, encoder, expr, nn, tabular

# (owner, attribute, span name). The same name may appear under two owners
# when two modules each bind the function: expr.eval_cross is called through
# the collector's binding while exploring and through expr's own binding
# inside apply_sequence.
STAGE_TARGETS = (
    (collector, "collect", "collector.collect"),
    (collector, "mdcg", "utility.mdcg"),
    (collector, "eval_cross", "expr.eval_cross"),
    (expr, "eval_cross", "expr.eval_cross"),
    (encoder, "apply_sequence", "expr.apply_sequence"),
    (collector, "describe_state", "collector.describe_state"),
    (collector, "bellman_update", "collector.bellman_update"),
    (collector.QAgent, "select", "collector.QAgent.select"),
    (collector, "write_records", "collector.write_records"),
    (collector, "read_records", "collector.read_records"),
    (nn.Adam, "step", "nn.Adam.step"),
    (encoder, "pretrain", "encoder.pretrain"),
    (encoder, "materialize_graphs", "encoder.materialize_graphs"),
    (encoder, "build_graph", "encoder.build_graph"),
    (encoder, "augment", "encoder.augment"),
    (encoder, "encode_many", "encoder.encode_many"),
    (encoder, "forward_stack", "encoder.forward_stack"),
    (encoder, "backward_many", "encoder.backward_many"),
    (encoder, "ntxent_loss", "encoder.ntxent_loss"),
    (encoder, "ntxent_backward", "encoder.ntxent_backward"),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
)
SETUP_TARGETS = ((tabular, "load_csv", "tabular.load_csv"),)
ALL_TARGETS = SETUP_TARGETS + STAGE_TARGETS
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in ALL_TARGETS))

_ORIGINALS = {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in ALL_TARGETS}


def _columns(F, *args, **kwargs) -> int:
    values = getattr(F, "values", F)
    return int(values.shape[1])


# Extra per-span counts, computed from a call's arguments.
_COUNTERS = {"utility.mdcg": _columns}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None     # index of the enclosing span in Tracer.spans
    run: str
    count: int = 0


class Tracer:
    """Collects the spans of one run id."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, 0.0, parent, self.run,
                        counter(*args, **kwargs) if counter else 0)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms and the summed extra count."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out = {name: {"calls": 0, "self_ms": 0.0, "count": 0} for name in SPAN_NAMES}
        for span, inner in zip(self.spans, child_s):
            row = out[span.name]
            row["calls"] += 1
            row["self_ms"] += (span.end - span.start - inner) * 1e3
            row["count"] += span.count
        return out


@contextmanager
def traced(tracer: Tracer, targets=STAGE_TARGETS):
    """Rebind ``targets`` to recording wrappers; restore the originals on exit."""
    check_untraced()
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, tracer.wrap(name, _ORIGINALS[id(owner), attr]))
        yield tracer
    finally:
        for owner, attr, _ in targets:
            setattr(owner, attr, _ORIGINALS[id(owner), attr])
        check_untraced()


def check_untraced() -> None:
    """Raise unless every traced attribute is the program's original object."""
    rebound = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in ALL_TARGETS
               if vars(owner)[attr] is not _ORIGINALS[id(owner), attr]]
    if rebound:
        raise RuntimeError(f"not the original object: {', '.join(rebound)}")


def merge(per_unit: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Median of each total over several traced units."""
    return {name: {key: statistics.median(unit[name][key] for unit in per_unit)
                   for key in ("calls", "self_ms", "count")}
            for name in SPAN_NAMES}
