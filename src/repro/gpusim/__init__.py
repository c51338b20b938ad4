"""A SIMT GPU execution simulator.

This package stands in for the NVIDIA GPU + CUDA runtime that the Owl paper
instruments with NVBit.  It executes *kernels* written in a small structured
warp-level DSL (:mod:`repro.gpusim.context`) with faithful SIMT semantics:

* threads are grouped into warps of 32 lanes that execute in lock step;
* warp-uniform branches skip the untaken side (so the warp's basic-block
  sequence — the thing a side-channel attacker observes — depends on the
  branch condition);
* intra-warp divergent branches are executed with *predication*: the warp
  visits both sides with complementary active masks, which is exactly the
  mechanism that hides control-flow leakage in the paper's ``max_pool2d``
  case study;
* memory accesses are issued per active lane against a device memory model
  with CUDA's memory spaces and an allocator with optional ASLR.

The simulator's observable output is a stream of trace events
(:mod:`repro.gpusim.events`), which is what the NVBit-like layer in
:mod:`repro.tracing` consumes.
"""

from repro.gpusim.cache import (
    CacheConfig,
    CacheHierarchy,
    CacheSimulator,
    KernelCacheStats,
    SetAssociativeCache,
)
from repro.gpusim.cohort import CohortContext, CohortSharedView, CohortSplit
from repro.gpusim.context import SimtDivergenceError, WarpContext
from repro.gpusim.device import Device, DeviceConfig
from repro.gpusim.events import (
    BasicBlockEvent,
    ColumnarTraceEvent,
    KernelBeginEvent,
    KernelEndEvent,
    MemoryAccessEvent,
    MemoryBatchEvent,
    SyncEvent,
    TraceEvent,
)
from repro.gpusim.kernel import Kernel, LaunchConfig, kernel
from repro.gpusim.memory import (
    Allocation,
    DeviceBuffer,
    DeviceMemory,
    MemoryAllocator,
    MemorySpace,
)
from repro.gpusim.warp import WARP_SIZE, full_mask, lane_vector

__all__ = [
    "WARP_SIZE",
    "Allocation",
    "BasicBlockEvent",
    "CacheConfig",
    "CacheHierarchy",
    "CacheSimulator",
    "KernelCacheStats",
    "SetAssociativeCache",
    "CohortContext",
    "CohortSharedView",
    "CohortSplit",
    "ColumnarTraceEvent",
    "Device",
    "DeviceBuffer",
    "DeviceConfig",
    "DeviceMemory",
    "Kernel",
    "KernelBeginEvent",
    "KernelEndEvent",
    "LaunchConfig",
    "MemoryAccessEvent",
    "MemoryBatchEvent",
    "MemoryAllocator",
    "MemorySpace",
    "SimtDivergenceError",
    "SyncEvent",
    "TraceEvent",
    "WarpContext",
    "full_mask",
    "kernel",
    "lane_vector",
]
