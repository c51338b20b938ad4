"""Replica-cohort batching: record many runs of one program in one pass.

Owl's differential design (§VII) re-executes the same program ~100 times
per input class.  After the warp-cohort engine made a *single* execution
cheap, the per-run Python overhead (one device, one runtime, one pass per
run) became the recording bottleneck.  This module removes it in two
layers:

1. **Deduplication** — on a deterministic device (fixed seed, or ASLR and
   schedule shuffling both off) equal inputs produce byte-identical
   traces, so the ~100 fixed-input repetitions collapse to *one* recorded
   trace with a repetition count (:func:`group_values`).

2. **Replica fusion** — the remaining *distinct* inputs (the random side)
   are executed as concurrent sessions whose kernel launches are fused
   into one mega cohort: R replicas of a G-warp launch run as the extra
   rows of an ``(R*G, 32)`` lane grid (:class:`_ReplicaCohortEngine`).
   Each replica owns its own device, memory and event monitor; only the
   NumPy interpretation of the kernel body is shared.  Divergent control
   flow between replicas is handled by the cohort engine's existing
   sub-cohort splitting + :class:`~repro.gpusim.memory.WriteJournal`
   rollback.  Each replica's rows of the grid are handed to its own
   monitor as columns (:meth:`CohortContext.columns`) and folded into
   byte-identical per-run A-DCFG tables — evidence, store fingerprints
   and degradation ladders are untouched.

Equivalence envelope
--------------------
Programs under test must be deterministic functions of ``(rt, value)``
that do not mutate their input value — the same contract the store's
content-addressed caching and the ``[fixed_input] * N`` evidence protocol
already assume.  Anything the engine cannot fuse (incompatible launch
geometry, injected faults, envelope violations, program exceptions) falls
back down the degradation ladder: fused → per-replica
(:data:`~repro.resilience.events.REPLICA_TO_RUN`) → plain serial
re-recording of the whole batch, each rung byte-identical by contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import profiling
from repro.errors import CohortEnvelopeError
from repro.gpusim.cohort import CohortContext, CohortSplit, ReplicaBuffer
from repro.gpusim.context import SimtDivergenceError
from repro.gpusim.device import Device, DeviceConfig, LaunchError
from repro.gpusim.events import KernelBeginEvent, KernelEndEvent
from repro.gpusim.kernel import Kernel, LaunchConfig
from repro.gpusim.memory import DeviceBuffer, MemorySpace, WriteJournal
from repro.host.callstack import current_stack_depth
from repro.host.runtime import CudaRuntime
from repro.resilience import events as resilience_events
from repro.resilience import faults as fault_injection
from repro.tracing.channel import Channel
from repro.tracing.monitor import WarpTraceMonitor
from repro.tracing.recorder import (
    Program,
    ProgramTrace,
    TraceRecorder,
    _SessionTracer,
    join_trace,
)


#: replica slots whose columns are cut from the lane grid and folded in
#: one pass
_SLOTS_PER_FOLD = 16


class _ReplicaAbort(BaseException):
    """Raised inside a session thread to unwind a parked program.

    Derives from ``BaseException`` so even a program with a blanket
    ``except Exception`` cannot swallow the shutdown.
    """


class _BatchAbandoned(Exception):
    """The replica batch cannot continue; re-record every run serially."""


@dataclass
class ReplicaStats:
    """Counters describing how one batch of runs was executed."""

    #: runs that were never executed because an earlier identical run's
    #: trace was reused (deterministic-device deduplication)
    dedup_runs: int = 0
    #: fused mega-cohort executions (each covers several replica launches)
    fused_groups: int = 0
    #: member launches executed inside a fused mega cohort
    fused_launches: int = 0
    #: member launches that fell back to single (per-replica) execution
    fallback_launches: int = 0

    def merge(self, other: "ReplicaStats") -> None:
        self.dedup_runs += other.dedup_runs
        self.fused_groups += other.fused_groups
        self.fused_launches += other.fused_launches
        self.fallback_launches += other.fallback_launches


# ----------------------------------------------------------------------
# deterministic-device deduplication
# ----------------------------------------------------------------------

def device_is_deterministic(config: DeviceConfig) -> bool:
    """True when equal inputs are guaranteed byte-identical traces.

    A fixed seed pins both the ASLR layout draws and the schedule
    shuffles; with neither randomisation enabled the device is
    deterministic regardless of seed.
    """
    if config.seed is not None:
        return True
    return not config.aslr and not config.shuffle_schedule


def _values_equal(a: object, b: object) -> bool:
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        return (a_arr.dtype == b_arr.dtype and a_arr.shape == b_arr.shape
                and bool(np.array_equal(a_arr, b_arr)))
    if type(a) is not type(b):
        return False
    try:
        return bool(a == b)
    except Exception:
        return False


def group_values(values: Sequence[object],
                 deterministic: bool) -> List[Tuple[object, int]]:
    """Collapse consecutive equal values into ``(value, count)`` groups.

    On a non-deterministic device every run is its own group: equal
    inputs may legitimately produce different traces there, so nothing
    may be deduplicated.
    """
    groups: List[Tuple[object, int]] = []
    for value in values:
        if (deterministic and groups
                and _values_equal(groups[-1][0], value)):
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((value, 1))
    return groups


# ----------------------------------------------------------------------
# one replica session: a full recorder stack parked at each launch
# ----------------------------------------------------------------------

class _ReplicaDevice(Device):
    """Device whose launches park the program thread for fused execution.

    Geometry validation and the schedule draw happen *before* parking, in
    the program thread, so invalid launches raise exactly where the
    serial path raises and the device RNG stream matches serial runs.
    """

    def __init__(self, session: "_ReplicaSession",
                 config: DeviceConfig) -> None:
        super().__init__(config, columnar=True, cohort=True)
        self._session = session

    def launch(self, kern: Kernel, grid, block, *args) -> None:
        launch = LaunchConfig.create(grid, block)
        if launch.threads_per_block > self.config.max_threads_per_block:
            raise LaunchError(
                f"{launch.threads_per_block} threads/block exceeds device "
                f"limit {self.config.max_threads_per_block}")
        schedule = [(b, w)
                    for b in range(launch.num_blocks)
                    for w in range(launch.warps_per_block)]
        if self.config.shuffle_schedule:
            self.rng.shuffle(schedule)
        self._session.park_at_launch(kern, grid, block, args, launch,
                                     schedule)


@dataclass
class _PendingLaunch:
    """One parked launch awaiting coordinated execution."""

    kern: Kernel
    grid: object
    block: object
    args: tuple
    launch: LaunchConfig
    schedule: list


class _ReplicaSession:
    """One replica's full recording stack, driven launch-by-launch.

    The program runs on a daemon thread that parks at every kernel
    launch; the coordinator (the engine, on the caller's thread) executes
    parked launches — fused with compatible peers when possible — and
    resumes the thread.  Exactly one of the two is ever running, so the
    interleaving is deterministic.  All wiring (tracer, monitor, channel,
    call-stack anchor) mirrors :meth:`TraceRecorder.record` exactly.
    """

    def __init__(self, program: Program, value: object,
                 config: DeviceConfig) -> None:
        self.value = value
        self._program = program
        self.device = _ReplicaDevice(self, config)
        self.tracer = _SessionTracer(self.device.memory)
        self.monitor = WarpTraceMonitor(
            batch_normalizer=self.tracer.normalize_keys,
            key_id_normalizer=self.tracer.normalize_key_ids)
        self._channel = Channel(sink=self.monitor.on_event)
        self.tracer.bind_monitor(self.monitor)
        self.device.subscribe(self._channel.send)
        self.runtime = CudaRuntime(self.device)
        self.runtime.attach_tracer(self.tracer)

        self.pending: Optional[_PendingLaunch] = None
        self.finished = False
        self.error: Optional[BaseException] = None
        self.abort = False
        self._resume = threading.Event()
        self._parked = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    # -- program-thread side -------------------------------------------

    def _run(self) -> None:
        self._resume.wait()
        self._resume.clear()
        try:
            if not self.abort:
                # anchor inside the thread: raw[anchor:] then holds only
                # program frames, exactly as in TraceRecorder.record
                self.runtime.call_stack_anchor = current_stack_depth()
                self._program(self.runtime, self.value)
        except _ReplicaAbort:
            pass
        except BaseException as error:  # surfaced by the coordinator
            self.error = error
        finally:
            self.runtime.detach_tracer()
            self.device.unsubscribe(self._channel.send)
            self.finished = True
            self._parked.set()

    def park_at_launch(self, kern: Kernel, grid, block, args,
                       launch: LaunchConfig, schedule: list) -> None:
        self.pending = _PendingLaunch(kern=kern, grid=grid, block=block,
                                      args=args, launch=launch,
                                      schedule=schedule)
        self._parked.set()
        self._resume.wait()
        self._resume.clear()
        if self.abort:
            raise _ReplicaAbort()

    # -- coordinator side ----------------------------------------------

    def step(self) -> None:
        """Resume the program thread until its next park (or completion)."""
        self.pending = None
        self._resume.set()
        self._parked.wait()
        self._parked.clear()

    def shutdown(self) -> None:
        if not self.finished:
            self.abort = True
            self._resume.set()
        self._thread.join(timeout=30.0)

    def finish_trace(self) -> ProgramTrace:
        """Join host and device observations, as the serial recorder does."""
        return join_trace(self.tracer, self.monitor)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _alias_pattern(args: tuple) -> tuple:
    """Buffer-aliasing fingerprint of a launch's argument tuple."""
    seen: Dict[int, int] = {}
    pattern = []
    for index, arg in enumerate(args):
        if isinstance(arg, DeviceBuffer):
            pattern.append(seen.setdefault(id(arg), index))
        else:
            pattern.append(-1)
    return tuple(pattern)


class _ReplicaCohortEngine:
    """Runs several replica sessions, fusing compatible parked launches."""

    def __init__(self, config: DeviceConfig) -> None:
        self._config = config
        self.stats = ReplicaStats()

    def record_batch(self, program: Program,
                     values: Sequence[object]) -> List[ProgramTrace]:
        sessions = [_ReplicaSession(program, value, self._config)
                    for value in values]
        try:
            self._drive(sessions)
        except _BatchAbandoned:
            raise
        except BaseException as error:
            self._abort(sessions)
            raise _BatchAbandoned(str(error)) from error
        failed = next((s for s in sessions if s.error is not None), None)
        if failed is not None:
            self._abort(sessions)
            raise _BatchAbandoned(
                f"program raised {type(failed.error).__name__}: "
                f"{failed.error}")
        try:
            return [s.finish_trace() for s in sessions]
        except BaseException as error:
            raise _BatchAbandoned(str(error)) from error

    # -- scheduling ----------------------------------------------------

    def _drive(self, sessions: List["_ReplicaSession"]) -> None:
        for session in sessions:
            session.step()
        while True:
            if any(s.error is not None for s in sessions):
                raise _BatchAbandoned("a replica session raised")
            waiting = [s for s in sessions if not s.finished]
            if not waiting:
                return
            for group in self._compatible_groups(waiting):
                self._execute_group(group)
            for session in waiting:
                session.step()

    def _compatible_groups(
            self, waiting: List["_ReplicaSession"]
    ) -> List[List["_ReplicaSession"]]:
        groups: List[List[_ReplicaSession]] = []
        for session in waiting:
            for group in groups:
                if self._compatible(group[0], session):
                    group.append(session)
                    break
            else:
                groups.append([session])
        return groups

    def _compatible(self, a: "_ReplicaSession",
                    b: "_ReplicaSession") -> bool:
        pa, pb = a.pending, b.pending
        if pa.kern is not pb.kern or pa.launch != pb.launch:
            return False
        if pa.schedule != pb.schedule:
            return False
        if len(pa.args) != len(pb.args):
            return False
        if _alias_pattern(pa.args) != _alias_pattern(pb.args):
            return False
        for arg_a, arg_b in zip(pa.args, pb.args):
            if isinstance(arg_a, DeviceBuffer):
                if not isinstance(arg_b, DeviceBuffer):
                    return False
                if (arg_a.data.dtype != arg_b.data.dtype
                        or arg_a.data.shape != arg_b.data.shape
                        or arg_a.space is not arg_b.space):
                    return False
            else:
                if isinstance(arg_b, DeviceBuffer):
                    return False
                if not _values_equal(arg_a, arg_b):
                    return False
        return True

    # -- execution -----------------------------------------------------

    def _execute_group(self, group: List["_ReplicaSession"]) -> None:
        pending = group[0].pending
        kern = pending.kern
        fusible = (len(group) > 1 and kern.cohort
                   and len(group) * pending.launch.total_warps > 1)
        if fusible:
            for session in group:
                ordinal = session.device.launch_count
                fault = fault_injection.replica_violation_for(ordinal)
                if fault is not None:
                    resilience_events.record_degradation(
                        resilience_events.REPLICA_TO_RUN, "replica",
                        f"injected replica fusion violation for launch "
                        f"{ordinal} of {kern.name!r} ({fault.render()})",
                        kernel=kern.name, launch=ordinal)
                    fusible = False
                    break
                if fault_injection.cohort_violation_for(ordinal) is not None:
                    # run the members singly so each one's cohort engine
                    # trips the injected violation and records the same
                    # cohort → warp degradation as a serial run would
                    fusible = False
                    break
        if not fusible:
            for session in group:
                self._execute_single(session)
            return
        shared_stores: List[dict] = [{} for _ in group]
        try:
            self._execute_fused(group, shared_stores)
        except (CohortEnvelopeError, SimtDivergenceError) as error:
            resilience_events.record_degradation(
                resilience_events.REPLICA_TO_RUN, "replica", str(error),
                kernel=kern.name, launch=group[0].device.launch_count)
            for slot, session in enumerate(group):
                self._execute_single(session,
                                     shared_store=shared_stores[slot])

    def _execute_single(self, session: "_ReplicaSession",
                        shared_store: Optional[dict] = None) -> None:
        pending = session.pending
        session.device.launch_scheduled(
            pending.kern, pending.grid, pending.block, pending.args,
            schedule=pending.schedule, shared_store=shared_store)
        self.stats.fallback_launches += 1

    def _execute_fused(self, group: List["_ReplicaSession"],
                       shared_stores: List[dict]) -> None:
        with profiling.phase("kernel_execute"):
            self._execute_fused_impl(group, shared_stores)

    def _execute_fused_impl(self, group: List["_ReplicaSession"],
                            shared_stores: List[dict]) -> None:
        pending = group[0].pending
        kern, launch = pending.kern, pending.launch
        replicas = len(group)
        warps = launch.total_warps

        # fused argument tuple: one ReplicaBuffer per distinct buffer
        # position (aliased positions share), scalars passed through
        fused_cache: Dict[tuple, ReplicaBuffer] = {}
        fused_args = []
        for position, arg in enumerate(pending.args):
            if isinstance(arg, DeviceBuffer):
                members = [s.pending.args[position] for s in group]
                key = tuple(id(buf) for buf in members)
                fused = fused_cache.get(key)
                if fused is None:
                    fused = ReplicaBuffer(members)
                    fused_cache[key] = fused
                fused_args.append(fused)
            else:
                fused_args.append(arg)

        # shared allocations dispatch to each slot's own device so the
        # per-device allocation sequences stay byte-identical to serial
        # runs; after a split the sub-cohorts may execute in an order
        # that differs from any member's serial order, so a *new*
        # allocation there would land at the wrong address — that is an
        # envelope violation and the group falls back to singles
        split_state = {"occurred": False}

        def shared_alloc(slot: int, block_id: int, name: str, shape,
                         dtype) -> DeviceBuffer:
            store = shared_stores[slot]
            key = (block_id, name)
            buf = store.get(key)
            if buf is None:
                if split_state["occurred"]:
                    raise CohortEnvelopeError(
                        f"replica cohort of {kern.name!r} allocated shared "
                        f"buffer {name!r} after a divergence split; "
                        "per-device allocation order is no longer the "
                        "serial order")
                buf = group[slot].device.memory.alloc(
                    shape, dtype=dtype, space=MemorySpace.SHARED,
                    label=f"{kern.name}.shared.{name}")
                store[key] = buf
            return buf

        num = replicas * warps
        base_blocks = np.fromiter((b for b, _w in pending.schedule),
                                  dtype=np.int64, count=warps)
        base_warps = np.fromiter((w for _b, w in pending.schedule),
                                 dtype=np.int64, count=warps)
        block_ids = np.tile(base_blocks, replicas)
        warp_ids = np.tile(base_warps, replicas)
        slots = np.repeat(np.arange(replicas, dtype=np.int64), warps)

        rows_pending = [np.arange(num, dtype=np.int64)]
        contexts: List[CohortContext] = []
        completed: List[WriteJournal] = []
        attempts = 0
        try:
            while rows_pending:
                rows = rows_pending.pop(0)
                attempts += 1
                if attempts > 2 * num + 8:
                    raise CohortEnvelopeError(
                        f"replica cohort execution of {kern.name!r} did "
                        f"not converge after {attempts} attempts")
                journal = WriteJournal()
                ctx = CohortContext(
                    launch=launch, rows=rows, block_ids=block_ids[rows],
                    warp_ids=warp_ids[rows], shared_alloc=shared_alloc,
                    journal=journal,
                    step_budget=self._config.cohort_step_budget,
                    replica_slots=slots[rows])
                try:
                    kern(ctx, *fused_args)
                except CohortSplit as split:
                    journal.rollback()
                    split_state["occurred"] = True
                    rows_pending = split.groups + rows_pending
                    continue
                except BaseException:
                    journal.rollback()
                    raise
                completed.append(journal)
                contexts.append(ctx)
        except BaseException:
            for journal in reversed(completed):
                journal.rollback()
            raise
        for journal in completed:
            journal.commit()
        for fused in fused_cache.values():
            fused.writeback()

        # retire per member, in slot order.  Each session's monitor gets
        # its slot's rows of every completed attempt as columns (rows are
        # slot-major, so a slot's rows are one contiguous range); a
        # bounded block of slots is cut from the grid and folded in one
        # pass, so at most that many slots' copies of the addresses exist
        # at once and NumPy's per-call cost is paid once per block
        bounds = [np.searchsorted(ctx.replica_slots,
                                  np.arange(replicas + 1)).tolist()
                  for ctx in contexts]
        for first in range(0, replicas, _SLOTS_PER_FOLD):
            block = range(first, min(replicas, first + _SLOTS_PER_FOLD))
            with profiling.phase("adcfg_fold"):
                cut = [ctx.columns(bound[block.start:block.stop + 1])
                       for ctx, bound in zip(contexts, bounds)]
            for slot in block:
                device = group[slot].device
                device.launch_count += 1
                device._emit(KernelBeginEvent(
                    kernel_name=kern.name, grid=launch.grid,
                    block=launch.block, total_threads=launch.total_threads,
                    num_warps=launch.total_warps))
                for events in cut:
                    if events[slot - first].num_warps:
                        device._emit(events[slot - first])
            del cut
            builders = [group[slot].monitor.active_builder for slot in block]
            with profiling.phase("adcfg_fold"):
                builders[0].fold_pending_batches(builders[1:])
            for slot in block:
                group[slot].device._emit(KernelEndEvent(kernel_name=kern.name))
        self.stats.fused_groups += 1
        self.stats.fused_launches += replicas

    # -- teardown ------------------------------------------------------

    def _abort(self, sessions: List["_ReplicaSession"]) -> None:
        for session in sessions:
            session.shutdown()


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------

def record_grouped(
        program: Program, values: Sequence[object],
        device_config: Optional[DeviceConfig] = None, dedup: bool = False,
) -> Tuple[List[Tuple[ProgramTrace, int]], ReplicaStats]:
    """Record *values* as one replica batch.

    Returns ``(groups, stats)`` where each group is ``(trace, count)``:
    expanding every trace ``count`` times in order reproduces the serial
    ``[record(program, v) for v in values]`` byte for byte.

    ``dedup=True`` additionally collapses consecutive equal values into
    one recording on a deterministic device.  That is only sound when the
    program is a pure function of ``(rt, value)`` — a program drawing
    per-run randomness of its own (e.g. an ORAM-style rotation) produces
    distinct traces for equal inputs, which fused replicas reproduce but
    deduplication would flatten — so it is opt-in, never inferred.
    """
    config = device_config or DeviceConfig()
    values = list(values)
    groups = group_values(values,
                          dedup and device_is_deterministic(config))
    reps = [value for value, _count in groups]
    counts = [count for _value, count in groups]
    stats = ReplicaStats(dedup_runs=len(values) - len(reps))

    if len(reps) < 2:
        traces = [TraceRecorder(config).record(program, value)
                  for value in reps]
        return list(zip(traces, counts)), stats

    engine = _ReplicaCohortEngine(config)
    try:
        traces = engine.record_batch(program, reps)
    except _BatchAbandoned as abandoned:
        resilience_events.record_degradation(
            resilience_events.REPLICA_TO_RUN, "replica",
            f"replica batch abandoned, re-recording serially: {abandoned}",
            runs=len(reps))
        recorder = TraceRecorder(config)
        traces = [recorder.record(program, value) for value in reps]
        return list(zip(traces, counts)), stats
    stats.merge(engine.stats)
    return list(zip(traces, counts)), stats
