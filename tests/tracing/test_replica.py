"""Replica-cohort batching ≡ serial per-run recording.

:func:`repro.tracing.replica.record_grouped` fuses many runs of one
program into mega cohorts (and, opt-in, deduplicates equal inputs on a
deterministic device).  It is a pure recording optimisation: expanding
its ``(trace, count)`` groups must reproduce the serial
``[TraceRecorder(cohort=False).record(program, v) for v in values]`` —
the per-warp oracle — byte for byte: for replica-divergent control flow,
shared memory, impure programs, injected faults, and Hypothesis-drawn
random kernels at 1, 3 and 8 replicas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import DeviceConfig, kernel
from repro.resilience import FaultPlan
from repro.resilience.events import REPLICA_TO_RUN, collecting_degradations
from repro.resilience.faults import activated
from repro.tracing.recorder import TraceRecorder
from repro.tracing.replica import (
    device_is_deterministic,
    group_values,
    record_grouped,
)
from tests.gpusim.test_cohort_property import (
    ACC_SIZE,
    DATA_SIZE as PROPERTY_DATA_SIZE,
    build_kernel,
    kernel_spec_st,
)

DATA_SIZE = 256


# ----------------------------------------------------------------------
# toy programs
# ----------------------------------------------------------------------

@kernel()
def divergent_kernel(k, data, out):
    """Branches and loop trip counts depend on the input value, so
    replicas with different inputs force sub-cohort splits when fused."""
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, 0)
    for _ in k.branch(secret % 2 == 1).then("odd"):
        k.store(out, tid % DATA_SIZE, tid)
    trips = k.uniform(secret % 3 + 1 + k.lane * 0)
    for i in k.range_("loop", trips):
        k.load(data, (tid + i) % DATA_SIZE)
    k.store(out, tid % DATA_SIZE, tid + 1)


@kernel()
def shared_kernel(k, data, out):
    k.block("entry")
    tid = k.global_tid()
    scratch = k.shared("scratch", 64)
    slot = k.warp_id * 32 + k.lane
    k.store(scratch, slot, k.load(data, tid % DATA_SIZE) * 2)
    k.syncthreads()
    k.block("readback")
    k.store(out, tid % DATA_SIZE, k.load(scratch, slot))


def make_program(kern, grid=2, block=64):
    def program(rt, value):
        data = rt.cudaMalloc(DATA_SIZE, label="data")
        seeded = np.zeros(DATA_SIZE, dtype=np.int64)
        seeded[0] = int(value)
        rt.cudaMemcpyHtoD(data, seeded)
        out = rt.cudaMalloc(DATA_SIZE, label="out")
        rt.cuLaunchKernel(kern, grid, block, data, out)
    return program


divergent_program = make_program(divergent_kernel)
shared_program = make_program(shared_kernel)


def serial_signatures(program, values, config=None):
    recorder = TraceRecorder(config, cohort=False)
    return [recorder.record(program, value).signature() for value in values]


def replica_signatures(program, values, config=None, dedup=False):
    groups, stats = record_grouped(program, values, device_config=config,
                                   dedup=dedup)
    signatures = [trace.signature()
                  for trace, count in groups for _ in range(count)]
    return signatures, stats


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------

class TestGroupValues:
    def test_consecutive_equal_values_collapse(self):
        assert group_values([1, 1, 2, 2, 2, 1], deterministic=True) == [
            (1, 2), (2, 3), (1, 1)]

    def test_non_deterministic_never_collapses(self):
        assert group_values([1, 1, 1], deterministic=False) == [
            (1, 1), (1, 1), (1, 1)]

    def test_ndarray_values_compare_by_content(self):
        a, b = np.arange(4), np.arange(4)
        assert group_values([a, b], deterministic=True) == [(a, 2)]

    def test_ndarray_dtype_mismatch_not_merged(self):
        a = np.arange(4, dtype=np.int64)
        b = np.arange(4, dtype=np.float64)
        assert len(group_values([a, b], deterministic=True)) == 2

    def test_type_mismatch_not_merged(self):
        assert len(group_values([1, 1.0], deterministic=True)) == 2


class TestDeviceDeterminism:
    def test_fixed_seed_is_deterministic(self):
        config = DeviceConfig(seed=7, shuffle_schedule=True, aslr=True)
        assert device_is_deterministic(config)

    def test_default_config_is_deterministic(self):
        assert device_is_deterministic(DeviceConfig())

    @pytest.mark.parametrize("knob", ["aslr", "shuffle_schedule"])
    def test_unseeded_randomisation_is_not(self, knob):
        config = DeviceConfig(seed=None, **{knob: True})
        assert not device_is_deterministic(config)


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------

class TestRecordGroupedEquivalence:
    def test_divergent_replicas_match_serial(self):
        values = [0, 1, 2, 3, 5]
        replica, stats = replica_signatures(divergent_program, values)
        assert replica == serial_signatures(divergent_program, values)
        assert stats.fused_groups >= 1

    def test_shared_memory_replicas_match_serial(self):
        values = [3, 8, 21]
        replica, _stats = replica_signatures(shared_program, values)
        assert replica == serial_signatures(shared_program, values)

    def test_no_cohort_falls_back_per_replica(self):
        """A kernel that opts out of the cohort engine is never fused."""
        pinned = kernel(cohort=False)(divergent_kernel.body)
        program = make_program(pinned)
        values = [1, 4]
        replica, stats = replica_signatures(program, values)
        assert replica == serial_signatures(program, values)
        assert stats.fused_launches == 0

    def test_dedup_collapses_equal_inputs(self):
        values = [2, 2, 2, 7, 7]
        replica, stats = replica_signatures(divergent_program, values,
                                            dedup=True)
        assert replica == serial_signatures(divergent_program, values)
        assert stats.dedup_runs == 3

    def test_dedup_off_records_every_run(self):
        values = [2, 2]
        replica, stats = replica_signatures(divergent_program, values)
        assert replica == serial_signatures(divergent_program, values)
        assert stats.dedup_runs == 0

    def test_dedup_refused_on_nondeterministic_device(self):
        config = DeviceConfig(seed=None, aslr=True)
        groups, stats = record_grouped(divergent_program, [5, 5],
                                       device_config=config, dedup=True)
        assert [count for _t, count in groups] == [1, 1]
        assert stats.dedup_runs == 0

    def test_impure_program_stays_identical_without_dedup(self):
        """A program drawing per-run state of its own is outside the
        dedup envelope but must still replay byte-identically when every
        run is recorded (equal inputs produce *different* traces here)."""
        def impure(counter):
            def program(rt, value):
                counter[0] += 1
                data = rt.cudaMalloc(DATA_SIZE, label="data")
                seeded = np.zeros(DATA_SIZE, dtype=np.int64)
                seeded[0] = int(value) + counter[0] % 3
                rt.cudaMemcpyHtoD(data, seeded)
                out = rt.cudaMalloc(DATA_SIZE, label="out")
                rt.cuLaunchKernel(divergent_kernel, 2, 64, data, out)
            return program

        values = [1, 1, 1]
        serial = serial_signatures(impure([0]), values)
        assert len(set(serial)) > 1  # genuinely impure
        replica, _stats = replica_signatures(impure([0]), values)
        assert replica == serial

    def test_program_exception_propagates(self):
        def exploding(rt, value):
            if value == 2:
                raise ValueError("boom")
            divergent_program(rt, value)

        with pytest.raises(ValueError, match="boom"):
            record_grouped(exploding, [1, 2, 3])


class TestFaultInjection:
    def test_replica_violation_degrades_and_stays_identical(self):
        values = [0, 1, 2]
        plan = FaultPlan.parse("replica_violation:launch=0")
        with collecting_degradations() as log:
            with activated(plan):
                replica, stats = replica_signatures(divergent_program,
                                                    values)
        assert replica == serial_signatures(divergent_program, values)
        assert REPLICA_TO_RUN in log.counts_by_kind()
        assert stats.fallback_launches >= len(values)


# ----------------------------------------------------------------------
# property: randomised toy kernels
# ----------------------------------------------------------------------

def random_kernel_program(spec):
    """A program launching one random kernel from ``test_cohort_property``
    (warps of one replica diverge) and then the value-dependent
    ``divergent_kernel`` (replicas diverge from each other)."""
    toy = build_kernel(spec)

    def program(rt, value):
        data = rt.cudaMalloc(PROPERTY_DATA_SIZE, label="data")
        seeded = np.zeros(PROPERTY_DATA_SIZE, dtype=np.int64)
        seeded[0] = int(value)
        rt.cudaMemcpyHtoD(data, seeded)
        acc = rt.cudaMalloc(ACC_SIZE, label="acc")
        rt.cuLaunchKernel(toy, spec["grid"], spec["block"], data, acc)
        divergent_program(rt, value)
    return program


class TestProperty:
    @settings(max_examples=30, deadline=None)
    @given(spec=kernel_spec_st,
           values=st.sampled_from([1, 3, 8]).flatmap(
               lambda replicas: st.lists(st.integers(0, 9),
                                         min_size=replicas,
                                         max_size=replicas)),
           seed=st.integers(0, 2 ** 16), shuffle=st.booleans(),
           dedup=st.booleans())
    def test_replica_batch_matches_serial(self, spec, values, seed,
                                          shuffle, dedup):
        program = random_kernel_program(spec)
        config = DeviceConfig(seed=seed, shuffle_schedule=shuffle)
        replica, _stats = replica_signatures(program, values,
                                             config=config, dedup=dedup)
        assert replica == serial_signatures(program, values, config=config)
