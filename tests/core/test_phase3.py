"""Phase 3 is one round loop over the look schedule (DESIGN.md §15).

A classic detection is the one-look schedule of that loop.  Without a
store each evidence side is recorded in one pool call per look, and the
random side is recorded once however many representatives share it.
With a store the checkpoint cadence only decides where checkpoints
land, never the evidence bytes.
"""

import pytest

from repro.apps.registry import resolve
from repro.core import Owl, OwlConfig
from repro.core import adaptive as sequential
from repro.store import TraceStore
from repro.store.campaign import Campaign
from repro.store.serialize import serialize_evidence

WORKLOAD = "dummy"  # two inputs, two trace classes, a leak


def spied_owl(**overrides):
    """An Owl on WORKLOAD whose pool logs every record_evidence call."""
    program, fixed_inputs, random_input = resolve(WORKLOAD)
    owl = Owl(program, name=WORKLOAD, config=OwlConfig(**overrides))
    calls = []
    real = owl.pool.record_evidence

    def spy(values, keep_per_run=False):
        calls.append(len(values))
        return real(values, keep_per_run=keep_per_run)

    owl.pool.record_evidence = spy
    return owl, fixed_inputs(), random_input, calls


def stored_side_bytes(store, owl, inputs):
    """Canonical bytes of the fixed and random sides the campaign left
    in the store: the completed side, else its checkpoint."""
    campaign = Campaign(store, owl.name, owl.config, owl.device_config)
    keys = (campaign.evidence_key("fixed",
                                  campaign.input_fingerprint(inputs[0])),
            campaign.evidence_key("random"))
    sides = []
    for key in keys:
        evidence = campaign.load_evidence(key)
        if evidence is None:
            evidence, _done = campaign.load_checkpoint(key)
        sides.append(serialize_evidence(evidence))
    return sides


class TestOneCallPerLook:
    def test_classic_records_each_side_in_one_call(self):
        owl, inputs, random_input, calls = spied_owl(
            fixed_runs=40, random_runs=30, always_analyze=True,
            store_checkpoint_every=7)
        result = owl.detect(inputs, random_input=random_input)
        assert calls == [40, 30]
        assert result.adaptive is None

    def test_adaptive_records_each_side_in_one_call_per_look(self):
        owl, inputs, random_input, calls = spied_owl(
            fixed_runs=60, random_runs=60, always_analyze=True,
            adaptive=True, adaptive_rounds=(10, 20, 60),
            store_checkpoint_every=3)
        result = owl.detect(inputs, random_input=random_input)
        assert result.adaptive.rounds_executed >= 2
        schedule = sequential.round_schedule(60, 60, (10, 20, 60))
        expected = []
        for look in range(result.adaptive.rounds_executed):
            for boundaries in (schedule.fixed, schedule.random):
                start = boundaries[look - 1] if look else 0
                expected.append(boundaries[look] - start)
        assert calls == expected

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_store_cadence_leaves_evidence_bytes_unchanged(self, adaptive,
                                                           tmp_path):
        sides = {}
        reports = {}
        for every in (1, 25):
            owl, inputs, random_input, calls = spied_owl(
                fixed_runs=40, random_runs=40, always_analyze=True,
                adaptive=adaptive, store_checkpoint_every=every)
            store = TraceStore(tmp_path / f"every{every}")
            reports[every] = owl.detect(
                inputs, random_input=random_input, store=store
            ).report.to_json()
            sides[every] = stored_side_bytes(store, owl, inputs)
            assert max(calls) <= every
        assert sides[1] == sides[25]
        assert reports[1] == reports[25]


class TestSharedRandomSide:
    def test_all_representatives_record_random_once(self, tmp_path):
        config = dict(fixed_runs=16, random_runs=16, always_analyze=True,
                      analyze_all_representatives=True)
        owl, inputs, random_input, calls = spied_owl(**config)
        storeless = owl.detect(inputs, random_input=random_input)
        assert len(storeless.per_representative) == 2
        # two phase-1 traces, two fixed sides, one shared random side
        assert storeless.stats.trace_count == 2 + 16 + 16 + 16
        assert calls == [16, 16, 16]

        owl, inputs, random_input, _calls = spied_owl(**config)
        stored = owl.detect(inputs, random_input=random_input,
                            store=TraceStore(tmp_path / "store"))
        assert storeless.report.to_json() == stored.report.to_json()
        assert ([report.to_json()
                 for report in storeless.per_representative]
                == [report.to_json()
                    for report in stored.per_representative])
