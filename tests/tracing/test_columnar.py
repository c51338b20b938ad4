"""The columnar trace path: per-warp memory batches, vectorised address
normalisation and the bulk A-DCFG fold.

At the device, one :class:`MemoryBatchEvent` per warp carries exactly the
per-instruction :class:`MemoryAccessEvent` stream a plain device emits.
At the recorder, the production engine's traces are byte-identical to
the per-warp oracle (``TraceRecorder(cohort=False)``) — including under
schedule shuffling, ASLR, and the buffered channel configuration.
"""

import pytest

from repro.apps import dummy
from repro.apps.libgpucrypto import aes_program, rsa_program
from repro.apps.nvjpeg import encode_program, synthetic_image
from repro.core import Owl, OwlConfig
from repro.gpusim import Device, DeviceConfig, MemoryBatchEvent, kernel
from repro.gpusim.events import MemoryAccessEvent
from repro.tracing.recorder import TraceRecorder

WORKLOADS = [
    pytest.param(aes_program, bytes(range(16)), id="aes"),
    pytest.param(rsa_program, 0x6ACF8231, id="rsa"),
    pytest.param(encode_program, synthetic_image(8, 8, seed=3), id="nvjpeg"),
    pytest.param(dummy.dummy_program, dummy.fixed_input(), id="dummy"),
]


def record_pair(program, value, device_config=None, buffered=False):
    reference = TraceRecorder(device_config=device_config, buffered=buffered,
                              cohort=False).record(program, value)
    columnar = TraceRecorder(device_config=device_config,
                             buffered=buffered).record(program, value)
    return reference, columnar


class TestTraceEquality:
    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_signatures_identical(self, program, value):
        reference, columnar = record_pair(program, value)
        assert columnar.signature() == reference.signature()
        assert columnar == reference

    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_buffered_channel(self, program, value):
        reference, columnar = record_pair(program, value, buffered=True)
        assert columnar.signature() == reference.signature()

    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_shuffled_schedule(self, program, value):
        config = DeviceConfig(seed=11, shuffle_schedule=True)
        reference, columnar = record_pair(program, value, device_config=config)
        assert columnar.signature() == reference.signature()

    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_aslr(self, program, value):
        config = DeviceConfig(seed=11, aslr=True)
        reference, columnar = record_pair(program, value, device_config=config)
        assert columnar.signature() == reference.signature()

    def test_shuffle_aslr_buffered_combined(self):
        config = DeviceConfig(seed=5, shuffle_schedule=True, aslr=True)
        reference, columnar = record_pair(aes_program, bytes(range(16)),
                                          device_config=config, buffered=True)
        assert columnar.signature() == reference.signature()

    def test_trace_size_accounting_identical(self):
        reference, columnar = record_pair(aes_program, bytes(range(16)))
        assert columnar.trace_size_bytes() == reference.trace_size_bytes()


class TestPipelineEquality:
    def test_detect_reports_identical(self):
        """End to end: the per-warp, per-run reference pool yields the
        same report as the production engine."""
        from tests.golden.goldens import ReferencePool

        reports = {}
        for reference in (False, True):
            config = OwlConfig(fixed_runs=4, random_runs=4,
                               always_analyze=True)
            owl = Owl(aes_program, name="aes", config=config)
            if reference:
                owl.pool = ReferencePool(aes_program, owl.device_config)
            result = owl.detect(
                inputs=[bytes(range(16)), bytes(range(1, 17))],
                random_input=lambda rng: bytes(
                    int(b) for b in rng.integers(0, 256, size=16)))
            reports[reference] = result.report.to_json()
        assert reports[True] == reports[False]


class TestBatchEvent:
    def test_batches_replace_per_instruction_events(self):
        device = Device(DeviceConfig(seed=0), columnar=True)
        events = []
        device.subscribe(events.append)
        buf = device.alloc(64, label="data")

        @kernel()
        def touch(k, target):
            k.block("entry")
            k.load(target, k.lane)
            k.store(target, k.lane, k.lane)

        device.launch(touch, 1, 32, buf)
        batches = [e for e in events if isinstance(e, MemoryBatchEvent)]
        singles = [e for e in events if isinstance(e, MemoryAccessEvent)]
        assert len(batches) == 1
        assert not singles
        batch = batches[0]
        assert batch.num_instructions == 2
        assert batch.labels == ("entry",)
        assert batch.addresses.shape == (64,)
        assert batch.extents.tolist() == [0, 32, 64]
        assert batch.is_stores.tolist() == [False, True]

    def test_iter_events_round_trip(self):
        """Expanding a batch reproduces the object path's event stream."""
        def trace_events(columnar):
            device = Device(DeviceConfig(seed=0), columnar=columnar)
            events = []
            device.subscribe(events.append)
            buf = device.alloc(64, label="data")

            @kernel()
            def touch(k, target):
                k.block("entry")
                k.load(target, k.lane % 4)
                k.store(target, k.lane, 1)

            device.launch(touch, 1, 32, buf)
            return events

        expanded = [
            event
            for e in trace_events(columnar=True)
            for event in (e.iter_events()
                          if isinstance(e, MemoryBatchEvent) else [e])
        ]
        reference = trace_events(columnar=False)
        assert expanded == reference

    def test_empty_warp_emits_no_batch(self):
        device = Device(DeviceConfig(seed=0), columnar=True)
        events = []
        device.subscribe(events.append)

        @kernel()
        def no_memory(k):
            k.block("entry")

        device.launch(no_memory, 1, 32)
        assert not [e for e in events if isinstance(e, MemoryBatchEvent)]


class TestDeterminism:
    def test_columnar_is_deterministic(self):
        sigs = {
            TraceRecorder().record(
                aes_program, bytes(range(16))).signature()
            for _ in range(3)
        }
        assert len(sigs) == 1

    def test_different_secrets_still_differ(self):
        a = TraceRecorder().record(aes_program, bytes(range(16)))
        b = TraceRecorder().record(aes_program, bytes(range(1, 17)))
        assert a.signature() != b.signature()
