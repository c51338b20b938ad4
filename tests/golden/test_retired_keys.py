"""Stores and queues written while ``OwlConfig`` still had the retired
engine-selection fields (``vectorized``, ``columnar``, ``cohort``,
``replica_batch``) resume to the golden report.

Both durable layers persist the config as its ``dataclasses.asdict``
form; these tests write that form with the retired keys added, exactly
as an older version left it, and finish the campaign through
``owl resume`` and ``CampaignScheduler.recover``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.apps.registry import resolve
from repro.cli import main as cli_main
from repro.core.pipeline import OwlConfig
from repro.service import CampaignScheduler, ServiceConfig
from repro.service.scheduler import STAGE_COMPLETE
from repro.store import TraceStore
from repro.store.campaign import STATUS_IN_PROGRESS, Campaign
from tests.golden import goldens

WORKLOAD = "dummy"
RETIRED = dict(vectorized=False, columnar=False, cohort=False,
               replica_batch=False)


def golden_config() -> OwlConfig:
    runs, adaptive = goldens.MODES["classic"]
    return OwlConfig(fixed_runs=runs, random_runs=runs, analyzer="ks",
                     adaptive=adaptive, always_analyze=True)


def golden_report_digest() -> str:
    return goldens.load_digests()[
        goldens.cell_id(WORKLOAD, "ks", "classic")]["report"]


def legacy_config_dict() -> dict:
    return dict(dataclasses.asdict(golden_config()), **RETIRED)


def test_store_with_retired_keys_resumes_to_golden(tmp_path, capsys):
    store = TraceStore(tmp_path / "store")
    config = golden_config()
    campaign = Campaign(store, WORKLOAD, config)
    _program, fixed_inputs, _random = resolve(WORKLOAD)
    inputs_fp = campaign.inputs_fingerprint(
        [campaign.input_fingerprint(value) for value in fixed_inputs()])
    # the in-progress campaign row an interrupted older run left behind
    store.put_json(campaign.campaign_key(inputs_fp), "campaign",
                   {"workload": WORKLOAD, "inputs": inputs_fp,
                    "config": legacy_config_dict()},
                   meta={"workload": WORKLOAD,
                         "status": STATUS_IN_PROGRESS,
                         "seed": config.seed, "inputs": inputs_fp})

    with goldens.portable_call_sites():
        code = cli_main(["resume", "--store", str(tmp_path / "store"),
                         "--json"])
    out = capsys.readouterr().out
    assert code == 1  # dummy leaks
    report_json = out[out.index("{"):].rstrip("\n")
    assert hashlib.sha256(report_json.encode()).hexdigest() == \
        golden_report_digest()


def test_queue_with_retired_keys_recovers_to_golden(tmp_path):
    service_config = ServiceConfig(workers=0, unit_runs=4)
    first = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                              service_config)
    cid = first.submit(WORKLOAD, dataclasses.asdict(golden_config()))
    with goldens.portable_call_sites():
        for _ in range(3):
            first.tick()
    del first
    # rewrite every persisted config (campaign spec, queued units) into
    # the form an older version wrote
    rewritten = 0
    for path in (tmp_path / "queue").rglob("*.json"):
        payload = json.loads(path.read_text())
        spec = payload.get("spec", payload)
        if isinstance(spec.get("config"), dict):
            spec["config"].update(RETIRED)
            path.write_text(json.dumps(payload, sort_keys=True))
            rewritten += 1
    assert rewritten >= 2  # the campaign spec and at least one unit

    second = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                               service_config)
    with goldens.portable_call_sites():
        assert second.recover() == [cid]
        assert second.wait([cid], timeout=240)
    results = second.results(cid)
    assert results["stage"] == STAGE_COMPLETE
    assert hashlib.sha256(results["report_json"].encode()).hexdigest() == \
        golden_report_digest()
