"""Lightweight per-phase wall-clock profiling for the pipeline.

The ``--profile`` CLI flag enables a process-global :class:`PhaseProfiler`;
instrumented hot spots (device launch, event emission, A-DCFG folding)
record into it only while one is active, so the default path pays a single
``None`` check.  Phases nest (:func:`phase`): each one books its
*exclusive* time — its wall time minus that of the phases opened inside
it — so no second is booked twice.  Phases are plain string keys:

* ``kernel_execute`` — a launch (plain, cohort or fused replica) net of
  everything nested in it: the simulated kernel itself;
* ``event_emit``     — trace-listener dispatch: the device → channel →
  monitor transport;
* ``adcfg_fold``     — the monitor's intake and the builder's table fold
  (from per-warp events or from a cohort's columns);
* the evidence and analysis phases (``evidence_fold``: appending each
  run's tables, reducing them per slot and building the slots' object
  graphs before the tests read them; ``analysis``: the tests alone) come
  from the pipeline's :class:`PhaseStats`, the ``analysis_*`` sub-phases
  from flat :meth:`PhaseProfiler.add` calls.

This module must stay dependency-free (stdlib only): it is imported by
:mod:`repro.gpusim.device`, which sits below everything else in the
package's import graph.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional


class PhaseProfiler:
    """Accumulates wall-clock seconds and hit counts per phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._local = threading.local()

    def _open(self) -> List["_Phase"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, phase: str, seconds: float, count: int = 1) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + count

    def get(self, phase: str) -> float:
        return self.seconds.get(phase, 0.0)


class _Phase:
    """One open :func:`phase`: books its exclusive time on exit."""

    __slots__ = ("_profiler", "_name", "_started", "_nested")

    def __init__(self, profiler: PhaseProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Phase":
        self._profiler._open().append(self)
        self._nested = 0.0
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self._started
        stack = self._profiler._open()
        stack.pop()
        self._profiler.add(self._name, elapsed - self._nested)
        if stack:
            stack[-1]._nested += elapsed
        return False


_active: Optional[PhaseProfiler] = None
_OFF = nullcontext()


def phase(name: str):
    """Context manager timing phase *name* exclusively (no-op when off)."""
    if _active is None:
        return _OFF
    return _Phase(_active, name)


def profiler() -> Optional[PhaseProfiler]:
    """The active profiler, or None when profiling is off (the fast path)."""
    return _active


def enable(existing: Optional[PhaseProfiler] = None) -> PhaseProfiler:
    """Install (and return) a process-global profiler."""
    global _active
    _active = existing if existing is not None else PhaseProfiler()
    return _active


def disable() -> Optional[PhaseProfiler]:
    """Deactivate profiling and return the profiler that was active."""
    global _active
    previous = _active
    _active = None
    return previous
