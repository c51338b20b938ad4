"""Host tracer: address normalisation against layout and ASLR noise."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gpusim import Device, DeviceConfig, kernel
from repro.gpusim.memory import ALLOCATION_ALIGNMENT, AllocationError
from repro.host import CudaRuntime, HostTracer


def traced_runtime(config=None):
    device = Device(config or DeviceConfig())
    rt = CudaRuntime(device)
    tracer = HostTracer(device.memory)
    rt.attach_tracer(tracer)
    return rt, tracer


class TestNormalization:
    def test_offsets_relative_to_allocation(self):
        rt, tracer = traced_runtime()
        rt.cudaMalloc(16, label="first")
        buf = rt.cudaMalloc(16, label="second")
        normalized = tracer.normalize(buf.base + 24)
        assert normalized.alloc_label == "second"
        assert normalized.offset == 24

    def test_as_key(self):
        rt, tracer = traced_runtime()
        buf = rt.cudaMalloc(16, label="data")
        assert tracer.normalize(buf.base).as_key() == ("data", 0)

    def test_unknown_address_raises(self):
        _rt, tracer = traced_runtime()
        with pytest.raises(AllocationError):
            tracer.normalize(0x1234)

    def test_try_normalize_returns_none(self):
        _rt, tracer = traced_runtime()
        assert tracer.try_normalize(0x1234) is None

    def test_layout_independence(self):
        """Inserting an extra allocation shifts bases but not offsets."""
        def record(extra_alloc: bool):
            rt, tracer = traced_runtime()
            if extra_alloc:
                rt.cudaMalloc(1000, label="padding")
            buf = rt.cudaMalloc(16, label="data")
            return buf, tracer

        buf_a, tracer_a = record(False)
        buf_b, tracer_b = record(True)
        assert buf_a.base != buf_b.base
        key_a = tracer_a.normalize(buf_a.base + 8).as_key()
        key_b = tracer_b.normalize(buf_b.base + 8).as_key()
        assert key_a == key_b == ("data", 8)

    def test_aslr_independence(self):
        """Different ASLR slides normalise to identical keys."""
        keys = []
        for seed in (1, 2, 3):
            rt, tracer = traced_runtime(DeviceConfig(aslr=True, seed=seed))
            buf = rt.cudaMalloc(64, label="data")
            keys.append(tracer.normalize(buf.base + 40).as_key())
        assert len(set(keys)) == 1

    def test_aslr_bases_actually_differ(self):
        bases = set()
        for seed in (1, 2, 3):
            rt, _tracer = traced_runtime(DeviceConfig(aslr=True, seed=seed))
            bases.add(rt.cudaMalloc(64).base)
        assert len(bases) > 1


class TestBatchNormalization:
    """``normalize_keys`` must agree with the scalar path byte for byte."""

    def test_matches_scalar_path(self):
        rt, tracer = traced_runtime()
        a = rt.cudaMalloc(100, label="a")
        b = rt.cudaMalloc(300, label="b")
        addresses = np.array([a.base, a.base + 99, b.base, b.base + 150],
                             dtype=np.int64)
        expected = [tracer.normalize(int(addr)).as_key()
                    for addr in addresses]
        assert tracer.normalize_keys(addresses) == expected

    def test_empty_array(self):
        rt, tracer = traced_runtime()
        rt.cudaMalloc(64, label="data")
        assert tracer.normalize_keys(np.array([], dtype=np.int64)) == []

    def test_unknown_address_raises(self):
        rt, tracer = traced_runtime()
        buf = rt.cudaMalloc(64, label="data")
        with pytest.raises(AllocationError):
            tracer.normalize_keys(
                np.array([buf.base, 0x1234], dtype=np.int64))

    def test_no_allocations_raises(self):
        _rt, tracer = traced_runtime()
        with pytest.raises(AllocationError):
            tracer.normalize_keys(np.array([0x1234], dtype=np.int64))

    @given(sizes=st.lists(st.integers(min_value=1, max_value=1024),
                          min_size=1, max_size=8),
           aslr_seed=st.one_of(st.none(),
                               st.integers(min_value=0, max_value=999)))
    @settings(max_examples=100, deadline=None)
    def test_boundary_addresses_over_random_layouts(self, sizes, aslr_seed):
        """First/last byte of every allocation normalises identically on
        both paths, for arbitrary layouts with and without ASLR."""
        config = (DeviceConfig(aslr=True, seed=aslr_seed)
                  if aslr_seed is not None else DeviceConfig())
        rt, tracer = traced_runtime(config)
        buffers = [rt.cudaMalloc(size, label=f"a{i}")
                   for i, size in enumerate(sizes)]
        probes = []
        for buf in buffers:
            probes.append(buf.base)                        # first byte
            probes.append(buf.base + buf.allocation.size - 1)  # last byte
            mid = buf.base + buf.allocation.size // 2
            probes.append(mid)
        addresses = np.array(probes, dtype=np.int64)
        expected = [tracer.normalize(int(addr)).as_key()
                    for addr in addresses]
        assert tracer.normalize_keys(addresses) == expected

    @given(sizes=st.lists(st.integers(min_value=1, max_value=255),
                          min_size=1, max_size=6),
           which=st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_alignment_gap_rejected_like_scalar(self, sizes, which):
        """Addresses in the padding between allocations (bump allocator
        aligns to 256 bytes) are invalid on both paths."""
        rt, tracer = traced_runtime()
        buffers = [rt.cudaMalloc(size, label=f"a{i}")
                   for i, size in enumerate(sizes)]
        buf = buffers[which % len(buffers)]
        # a buffer whose byte size is an exact multiple of the alignment
        # has no padding: base + size is the next allocation's base
        assume(buf.allocation.size % ALLOCATION_ALIGNMENT != 0)
        gap = buf.base + buf.allocation.size  # first padding byte
        with pytest.raises(AllocationError):
            tracer.normalize(gap)
        with pytest.raises(AllocationError):
            tracer.normalize_keys(np.array([gap], dtype=np.int64))

    @given(delta=st.integers(min_value=1, max_value=1 << 30))
    @settings(max_examples=50, deadline=None)
    def test_below_heap_base_rejected(self, delta):
        """Addresses before the first allocation are invalid on both paths."""
        rt, tracer = traced_runtime()
        buf = rt.cudaMalloc(64, label="data")
        address = buf.base - delta
        with pytest.raises(AllocationError):
            tracer.normalize(address)
        with pytest.raises(AllocationError):
            tracer.normalize_keys(np.array([address], dtype=np.int64))


class TestDeviceReset:
    """A reset reuses the address space: memoised resolutions of the old
    layout must not leak into the new one."""

    def test_reset_invalidates_memoised_keys(self):
        from repro.adcfg.table import LABELS

        device = Device()
        rt = CudaRuntime(device)
        tracer = HostTracer(device.memory)
        rt.attach_tracer(tracer)
        alpha = rt.cudaMalloc(64, label="alpha")
        address = np.array([alpha.base], dtype=np.int64)
        assert tracer.normalize_keys(address) == [("alpha", 0)]
        assert LABELS.strings[int(tracer.normalize_key_ids(address)[0])
                              >> 40] == "alpha"

        device.reset()
        beta = rt.cudaMalloc(64, label="beta")
        assert beta.base == alpha.base  # the same address, a new meaning
        assert tracer.normalize(beta.base).as_key() == ("beta", 0)
        assert tracer.normalize_keys(address) == [("beta", 0)]
        key_id = int(tracer.normalize_key_ids(address)[0])
        assert (LABELS.strings[key_id >> 40], key_id & 0xFF) == ("beta", 0)


class TestLaunchSequence:
    def test_sequence_is_ordered_identities(self):
        @kernel()
        def first(k):
            k.block("entry")

        @kernel()
        def second(k):
            k.block("entry")

        rt, tracer = traced_runtime()
        rt.cuLaunchKernel(first, 1, 32)
        rt.cuLaunchKernel(second, 1, 32)
        seq = tracer.launch_sequence
        assert len(seq) == 2
        assert seq[0].startswith("first@")
        assert seq[1].startswith("second@")
