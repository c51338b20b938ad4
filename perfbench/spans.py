"""Layer spans recorded from outside the program.

A :class:`SpanRecorder` wraps the public functions of each ``repro``
module listed in :data:`LAYERS`, records one span per call (name, start,
end, parent span, op id) in memory, and counts work at the same
boundaries (bytes moved, tests submitted, tests flagged).  Nothing inside
``src/`` changes: wrappers replace the attribute wherever a caller looks
the function up — on the defining class, or in every ``repro`` module
that imported the function by name — and :meth:`SpanRecorder.uninstall`
puts the originals back.

Times are ``time.perf_counter()`` readings.  On Linux that is
``CLOCK_MONOTONIC``, shared by every process on the machine, so spans
dumped by the service's subprocesses (see ``hook/sitecustomize.py``) line
up with the benchmark's own measured window.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    op: Optional[int]
    #: work counted at this boundary (bytes, tests, launches, ...)
    counts: Optional[Dict[str, float]] = None


def _result_len(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _payload_len(args, kwargs, result) -> int:
    payload = kwargs.get("payload", args[3] if len(args) > 3 else b"")
    return len(payload)


def _requests_len(args, kwargs, result) -> int:
    return len(args[0])


def _flagged(args, kwargs, result) -> int:
    return sum(1 for item in result if item is not None and item.rejected)


#: span name -> (module, attribute path, {counter name: counter fn}).
#: An attribute path "Class.method" wraps a method on its class.
LAYERS: Tuple[Tuple[str, str, str, Dict[str, Callable]], ...] = (
    ("tracing.record", "repro.tracing.recorder", "TraceRecorder.record", {}),
    ("tracing.replica", "repro.tracing.replica", "record_grouped", {}),
    ("host.normalize", "repro.host.tracer", "HostTracer.normalize_keys", {}),
    ("host.normalize", "repro.host.tracer", "HostTracer.normalize_key_ids",
     {}),
    ("adcfg.fold", "repro.adcfg.builder",
     "ADCFGBuilder.fold_pending_batches", {}),
    ("evidence.merge", "repro.core.evidence", "Evidence.add_trace", {}),
    ("evidence.merge", "repro.core.evidence", "Evidence.add_trace_repeated",
     {}),
    ("evidence.merge", "repro.core.evidence", "Evidence.merge", {}),
    ("filtering", "repro.core.filtering", "filter_traces", {}),
    ("alignment", "repro.core.evidence", "align_evidence", {}),
    ("leakage", "repro.analysis.multi", "run_analyzers", {}),
    ("leakage", "repro.analysis.multi", "deferred_analysis", {}),
    ("kstest.batch", "repro.core.kstest", "ks_test_batch",
     {"leakage.tests": _requests_len, "leakage.flagged": _flagged}),
    ("mi.batch", "repro.analysis.mi.batch", "mi_test_batch",
     {"leakage.tests": _requests_len, "leakage.flagged": _flagged}),
    ("store.get", "repro.store.store", "TraceStore.get_bytes",
     {"store.get_bytes": _result_len}),
    ("store.put", "repro.store.store", "TraceStore.put_bytes",
     {"store.put_bytes": _payload_len}),
    ("store.serialize", "repro.store.serialize", "serialize_trace", {}),
    ("store.serialize", "repro.store.serialize", "serialize_evidence", {}),
    ("store.deserialize", "repro.store.serialize", "deserialize_trace", {}),
    ("store.deserialize", "repro.store.serialize", "deserialize_evidence",
     {}),
    ("transport.rpc", "repro.service.client", "ServiceClient.submit", {}),
    ("transport.rpc", "repro.service.client", "ServiceClient.status", {}),
    ("transport.rpc", "repro.service.client", "ServiceClient.results", {}),
    ("transport.rpc", "repro.service.client", "ServiceClient.ping", {}),
)


class UnitProbe:
    """Counts for one service work unit: its wall time by unit kind, and
    the kernel-execute time and launches ``repro.profiling`` booked while
    it ran."""

    def __init__(self, profiler) -> None:
        self.profiler = profiler

    def begin(self) -> Tuple[float, float, int]:
        return (time.perf_counter(),
                self.profiler.seconds.get("kernel_execute", 0.0),
                self.profiler.counts.get("kernel_execute", 0))

    def end(self, before: Tuple[float, float, int], args) -> Dict[str, float]:
        started, seconds, launches = before
        return {f"service.{args[0].kind}_unit_s":
                time.perf_counter() - started,
                "gpusim.kernel_execute_s":
                self.profiler.seconds.get("kernel_execute", 0.0) - seconds,
                "gpusim.launches":
                self.profiler.counts.get("kernel_execute", 0) - launches}


class SpanRecorder:
    """In-memory spans and counters for every wrapped layer call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[int]) -> None:
        """Tag spans opened by this thread with *op* from now on."""
        self._local.op = op

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1,
                    getattr(self._local, "op", None))
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    # -- wrapping -----------------------------------------------------

    def wrap(self, name: str, fn: Callable, counters) -> Callable:
        """*fn* recording a span; *counters* is a dict of
        ``(args, kwargs, result) -> number`` or a :class:`UnitProbe`."""
        recorder = self
        probe = counters if isinstance(counters, UnitProbe) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = probe.begin() if probe is not None else None
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if probe is not None:
                recorder.spans[index].counts = probe.end(before, args)
            elif counters:
                recorder.spans[index].counts = {
                    counter: measure(args, kwargs, result)
                    for counter, measure in counters.items()}
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self, layers: Iterable = LAYERS) -> None:
        """Wrap every layer function where its callers look it up."""
        for name, module_name, path, counters in layers:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self.wrap(name, original, counters))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counters)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, attr, None) is original):
                    self._patch(other, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.index = -1

    def __enter__(self):
        self.index = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.index)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


@dataclass
class Totals:
    """Spans summed over one measured window."""
    calls: Dict[str, int]
    self_s: Dict[str, float]
    counts: Dict[str, float]


def summarize(spans: List[Span], window: Tuple[float, float]) -> Totals:
    """Calls, summed self seconds and counts per name inside *window*.

    A span belongs to the window when it starts inside it.
    """
    totals = Totals({}, {}, {})
    lo, hi = window
    for span, seconds in zip(spans, self_times(spans)):
        if not lo <= span.start <= hi:
            continue
        totals.calls[span.name] = totals.calls.get(span.name, 0) + 1
        totals.self_s[span.name] = totals.self_s.get(span.name, 0.0) + seconds
        for name, value in (span.counts or {}).items():
            totals.counts[name] = totals.counts.get(name, 0) + value
    return totals


def merge_totals(parts: Iterable[Totals]) -> Totals:
    merged = Totals({}, {}, {})
    for part in parts:
        for mine, theirs in ((merged.calls, part.calls),
                             (merged.self_s, part.self_s),
                             (merged.counts, part.counts)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value
    return merged


def check_nesting(spans: List[Span], tolerance: float = 1e-6) -> List[str]:
    """Violations of proper nesting (empty list when spans nest)."""
    problems = []
    for index, (span, seconds) in enumerate(zip(spans, self_times(spans))):
        if seconds < -tolerance:
            problems.append(f"span {index} ({span.name}) self time "
                            f"{seconds:.3g}s < 0")
        if span.end < span.start:
            problems.append(f"span {index} ({span.name}) ends before start")
        if span.parent >= 0:
            parent = spans[span.parent]
            if (span.start < parent.start - tolerance
                    or span.end > parent.end + tolerance):
                problems.append(f"span {index} ({span.name}) lies outside "
                                f"parent {span.parent} ({parent.name})")
    return problems
