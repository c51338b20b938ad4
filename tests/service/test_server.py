"""The asyncio front door: JSON-lines protocol over a unix socket."""

import threading

import pytest

from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig
from repro.errors import CampaignError
from repro.service import CampaignScheduler, ServiceClient, ServiceConfig
from repro.service import client
from repro.service.address import parse_connect
from repro.service.server import serve_forever

TINY = dict(fixed_runs=4, random_runs=4, seed=21, store_checkpoint_every=2)


@pytest.fixture
def service(tmp_path):
    """A live in-process service on a unix socket; shut down after."""
    scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                  ServiceConfig(workers=0, unit_runs=2))
    address = ("unix", str(tmp_path / "owl.sock"))
    thread = threading.Thread(target=serve_forever,
                              args=(scheduler, address), daemon=True)
    thread.start()
    client.wait_until_up(address, timeout=30)
    yield address, scheduler
    try:
        client.shutdown(address)
    except (CampaignError, OSError):
        pass  # already shut down by the test
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestProtocol:
    def test_ping(self, service):
        address, _scheduler = service
        assert client.ping(address) is True

    def test_unknown_op_is_an_error_response(self, service):
        address, _scheduler = service
        response = client.request(address, {"op": "frobnicate"})
        assert response["ok"] is False
        assert "frobnicate" in response["error"]

    def test_malformed_json_does_not_kill_the_server(self, service):
        import json
        import socket

        address, _scheduler = service
        _kind, path = address
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(str(path))
        try:
            sock.sendall(b'{"op": "ping"  \n')
            line = sock.makefile("rb").readline()
        finally:
            sock.close()
        response = json.loads(line)
        assert response["ok"] is False
        # and the server is still serving
        assert client.ping(address)


class TestSubmitToResults:
    def test_full_round_trip_matches_direct_detect(self, service, tmp_path):
        address, _scheduler = service
        service_client = ServiceClient(address)
        cid = service_client.submit("dummy", config=TINY).campaign
        final = service_client.wait_for(cid, timeout=240)
        assert final.stage == "complete"
        results = service_client.results(cid)

        program, fixed_inputs, random_input = resolve("dummy")
        owl = Owl(program, name="dummy", config=OwlConfig(**TINY))
        direct = owl.detect(fixed_inputs(), random_input=random_input,
                            store=tmp_path / "direct")
        assert results.report_json == direct.report.to_json()

    def test_concurrent_tenants_coalesce(self, service):
        address, scheduler = service
        service_client = ServiceClient(address)
        cids = [service_client.submit("dummy", config=TINY).campaign
                for _ in range(3)]
        for cid in cids:
            assert service_client.wait_for(
                cid, timeout=240).stage == "complete"
        reports = {service_client.results(cid).report_json
                   for cid in cids}
        assert len(reports) == 1
        coalesced = [cid for cid in cids
                     if scheduler.campaigns[cid].coalesced_into is not None]
        assert len(coalesced) == 2

    def test_status_lists_campaigns(self, service):
        address, _scheduler = service
        service_client = ServiceClient(address)
        cid = service_client.submit("dummy", config=TINY).campaign
        service_client.wait_for(cid, timeout=240)
        assert cid in service_client.overview().campaigns
        assert service_client.status(cid).stage == "complete"

    def test_results_for_unknown_campaign_errors(self, service):
        address, _scheduler = service
        with pytest.raises(CampaignError):
            ServiceClient(address).results("c9999")


class TestShutdown:
    def test_shutdown_stops_the_server(self, tmp_path):
        scheduler = CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                                      ServiceConfig(workers=0))
        address = ("unix", str(tmp_path / "owl.sock"))
        thread = threading.Thread(target=serve_forever,
                                  args=(scheduler, address), daemon=True)
        thread.start()
        client.wait_until_up(address, timeout=30)
        client.shutdown(address)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not client.ping(address)
        assert scheduler is not None  # scheduler outlives the server


class TestAddressParsing:
    def test_unix_default(self):
        assert parse_connect("/tmp/a.sock") == ("unix", "/tmp/a.sock")

    def test_tcp_when_port_given(self):
        assert parse_connect("tcp://127.0.0.1:7700") == \
            ("tcp", ("127.0.0.1", 7700))
