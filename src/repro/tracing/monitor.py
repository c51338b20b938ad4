"""The host-side monitor that turns the device trace into A-DCFG tables.

Per §V-C of the paper, the monitor identifies warps by the pair
*(block id, warp id)* — warp ids alone are only unique within a block — and
maintains each warp's trace context.  Every trace event of a launch —
per-warp basic-block events and memory batches from the reference engine,
or a cohort's :class:`~repro.gpusim.events.ColumnarTraceEvent` columns —
is buffered in the current invocation's
:class:`~repro.adcfg.builder.ADCFGBuilder` and folded once, kernel-wide,
at the launch's end, so per-thread data never accumulates.
"""

from __future__ import annotations

from typing import List, Optional

from repro import profiling
from repro.adcfg.builder import ADCFGBuilder, BatchNormalizer, KeyIdNormalizer
from repro.adcfg.table import ADCFGTable
from repro.errors import TraceError
from repro.gpusim.events import (
    BasicBlockEvent,
    ColumnarTraceEvent,
    KernelBeginEvent,
    KernelEndEvent,
    MemoryBatchEvent,
    SyncEvent,
    TraceEvent,
)


class MonitorError(TraceError):
    """Raised when the event stream is malformed (e.g. unmatched begin/end)."""


class WarpTraceMonitor:
    """Consumes the device event stream for a sequence of kernel launches.

    The monitor does not know kernel identities (call stacks live on the
    host side); the caller supplies the identity for each upcoming launch
    through :meth:`expect_kernel`, mirroring how Owl joins Pin's launch
    records with NVBit's device stream.
    """

    def __init__(self, batch_normalizer: Optional[BatchNormalizer] = None,
                 key_id_normalizer: Optional[KeyIdNormalizer] = None) -> None:
        self._batch_normalizer = batch_normalizer
        self._key_id_normalizer = key_id_normalizer
        self._pending_identity: Optional[str] = None
        self._builder: Optional[ADCFGBuilder] = None
        self.completed: List[ADCFGTable] = []
        self.sync_events = 0

    def expect_kernel(self, identity: str) -> None:
        """Declare the identity of the next kernel launch."""
        self._pending_identity = identity

    # ------------------------------------------------------------------
    # event stream
    # ------------------------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        if profiling.profiler() is None:
            self._dispatch(event)
            return
        with profiling.phase("adcfg_fold"):
            self._dispatch(event)

    def _dispatch(self, event: TraceEvent) -> None:
        if isinstance(event, KernelBeginEvent):
            self._begin(event)
        elif isinstance(event, KernelEndEvent):
            self._end(event)
        elif isinstance(event, BasicBlockEvent):
            self._require_builder().on_basic_block(event)
        elif isinstance(event, ColumnarTraceEvent):
            self._require_builder().on_columns(event)
            self.sync_events += event.syncs
        elif isinstance(event, MemoryBatchEvent):
            self._require_builder().on_memory_batch(event)
        elif isinstance(event, SyncEvent):
            self.sync_events += 1
        else:
            raise MonitorError(f"unknown trace event {event!r}")

    def _begin(self, event: KernelBeginEvent) -> None:
        if self._builder is not None:
            raise MonitorError(
                f"kernel {event.kernel_name!r} began while another launch "
                "is still active")
        identity = self._pending_identity or event.kernel_name
        self._pending_identity = None
        self._builder = ADCFGBuilder(
            kernel_identity=identity, kernel_name=event.kernel_name,
            total_threads=event.total_threads, num_warps=event.num_warps,
            batch_normalizer=self._batch_normalizer,
            key_id_normalizer=self._key_id_normalizer)

    def _end(self, event: KernelEndEvent) -> None:
        builder = self._require_builder()
        if builder.kernel_name != event.kernel_name:
            raise MonitorError(
                f"kernel end for {event.kernel_name!r} does not match the "
                f"active launch {builder.kernel_name!r}")
        self.completed.append(builder.finish())
        self._builder = None

    @property
    def active_builder(self) -> Optional[ADCFGBuilder]:
        """The builder of the launch in progress (None between launches)."""
        return self._builder

    def _require_builder(self) -> ADCFGBuilder:
        if self._builder is None:
            raise MonitorError("device event outside any kernel launch")
        return self._builder

    def finish(self) -> List[ADCFGTable]:
        """Return all completed invocation tables; the stream must be
        closed."""
        if self._builder is not None:
            raise MonitorError(
                f"kernel {self._builder.kernel_name!r} never ended")
        return self.completed
