"""The service's stage machine on an adaptive look schedule.

Every campaign records phase 3 look by look in round-sliced evidence
units.  An ``adaptive=True`` campaign ends each interim look in one
decide unit; a campaign that reaches its final look — a classic
campaign's only look, or an adaptive campaign's budget — ends it in
per-side fold units.  The terminal report unit is still a plain
``Owl.detect`` against the warm store, so the contract stays the
strongest one available — reports bit-identical to a direct in-process
adaptive run — at any worker count and any ``unit_runs`` partition,
across injected worker deaths.
"""

import pytest

from repro.apps.registry import resolve
from repro.core.adaptive import look_schedule
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig
from repro.service.scheduler import STAGE_COMPLETE, STAGE_FOLDING
from repro.service.units import decide_unit, round_chunk_offsets
from repro.store.campaign import Campaign
from repro.store.store import TraceStore
from tests.service.test_service_identity import run_service

ADAPTIVE = dict(fixed_runs=60, random_runs=60, adaptive=True,
                always_analyze=True, seed=13)
#: two looks: interim stopping starts at the second look, so the first
#: can never stop and the campaign always reaches its budget
TO_BUDGET = dict(ADAPTIVE, adaptive_rounds=(30, 60))


def direct_adaptive(tmp_path, workload="dummy", overrides=ADAPTIVE):
    program, fixed_inputs, random_input = resolve(workload)
    owl = Owl(program, name=workload, config=OwlConfig(**overrides))
    return owl.detect(fixed_inputs(), random_input=random_input,
                      store=TraceStore(tmp_path / "direct"))


def journal_events(scheduler, event):
    return [record for record in scheduler.queue.journal_events()
            if record.get("event") == event]


def decide_events(scheduler):
    return journal_events(scheduler, "decided")


def chunk_keys(store):
    return [entry.key for entry in store.entries()
            if entry.key.startswith("servicechunk/")]


class TestAdaptiveServiceIdentity:
    def test_report_matches_direct_adaptive_detect(self, tmp_path):
        direct = direct_adaptive(tmp_path)
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=7),
            overrides=ADAPTIVE)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        # the campaign actually looped through decide units and stopped
        # at the same round the direct run did
        events = decide_events(scheduler)
        assert events, "no decide units ran"
        assert events[-1]["stop"]
        assert len(events) == direct.adaptive.rounds_executed

    @pytest.mark.parametrize("unit_runs", [1, 10, 100])
    def test_any_unit_partition_is_identical(self, tmp_path, unit_runs):
        direct = direct_adaptive(tmp_path)
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=unit_runs),
            overrides=ADAPTIVE)
        assert (scheduler.results(cid)["report_json"]
                == direct.report.to_json())

    def test_early_stop_collects_the_round_chunks(self, tmp_path):
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=7),
            overrides=ADAPTIVE)
        assert scheduler.results(cid)["stage"] == STAGE_COMPLETE
        assert chunk_keys(TraceStore(tmp_path / "store")) == []

    def test_fleet_adaptive_identical_across_worker_death(self, tmp_path):
        direct = direct_adaptive(tmp_path)
        scheduler, (cid,) = run_service(
            tmp_path,
            ServiceConfig(workers=2, unit_runs=7, die_after=2,
                          lease_seconds=120.0),
            overrides=ADAPTIVE)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        assert scheduler.fleet.restarts == 2


class TestCampaignToBudget:
    def test_budget_run_decides_interim_looks_and_folds_the_last(
            self, tmp_path):
        direct = direct_adaptive(tmp_path, overrides=TO_BUDGET)
        assert direct.adaptive.outcome == "budget-exhausted"
        scheduler, (cid,) = run_service(
            tmp_path, ServiceConfig(workers=0, unit_runs=7),
            overrides=TO_BUDGET)
        results = scheduler.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        # only the interim look is decided; the final look folds per side
        assert [(event["round"], event["stop"])
                for event in decide_events(scheduler)] == [(0, False)]
        kinds = [event["kind"]
                 for event in journal_events(scheduler, "enqueued")]
        assert kinds.count("decide") == 1
        assert kinds.count("fold") == 2  # one fixed side, the random side
        assert kinds.index("fold") > kinds.index("decide")
        assert chunk_keys(TraceStore(tmp_path / "store")) == []

    def test_final_round_decide_unit_keeps_chunks_for_the_folds(
            self, tmp_path):
        """A final-look decide unit, as an older scheduler enqueued
        before the upgrade, must leave the fold units their chunks."""
        direct = direct_adaptive(tmp_path, overrides=TO_BUDGET)
        unit_runs = 7
        scheduler = CampaignScheduler(
            tmp_path / "store", tmp_path / "queue",
            ServiceConfig(workers=0, unit_runs=unit_runs))
        cid = scheduler.submit("dummy", TO_BUDGET)
        state = scheduler.campaigns[cid]
        while state.stage != STAGE_FOLDING:
            scheduler.tick()
        # the fold units are enqueued but have not run yet
        schedule = look_schedule(OwlConfig(**TO_BUDGET))
        final = schedule.num_rounds - 1
        unit = decide_unit(
            cid, state.spec(), final, state.plan["rep_indices"],
            round_chunk_offsets(schedule.fixed, unit_runs)[final + 1],
            round_chunk_offsets(schedule.random, unit_runs)[final + 1])
        assert scheduler.queue.enqueue(unit)
        scheduler._execute_local(unit.uid)
        assert scheduler.queue.result(unit.uid)["status"] == "done"

        store = TraceStore(tmp_path / "store")
        chunks = chunk_keys(store)
        assert chunks  # nothing collected
        program, _fixed_inputs, _random = resolve("dummy")
        config = OwlConfig(**TO_BUDGET)
        owl = Owl(program, name="dummy", config=config)
        campaign = Campaign(store, owl.name, config, owl.device_config)
        random_key = campaign.evidence_key("random")
        assert store.get(random_key) is None
        _evidence, done = campaign.load_checkpoint(random_key)
        assert done == config.random_runs  # a full-budget checkpoint

        restarted = CampaignScheduler(
            tmp_path / "store", tmp_path / "queue",
            ServiceConfig(workers=0, unit_runs=unit_runs))
        assert restarted.recover() == [cid]
        assert restarted.wait([cid], timeout=240.0)
        results = restarted.results(cid)
        assert results["stage"] == STAGE_COMPLETE
        assert results["report_json"] == direct.report.to_json()
        assert chunk_keys(TraceStore(tmp_path / "store")) == []
