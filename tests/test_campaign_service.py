"""The JSON-over-HTTP campaign service: submit a spec, run workers,
poll status, pull the deterministic export — plus input validation
(bad bodies, unknown ids, traversal attempts).
"""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro import runtime
from repro.campaign import Campaign, CampaignRunner, CampaignSpec, run_worker
from repro.campaign.report import export
from repro.campaign.service import (
    CampaignService,
    ServiceError,
    _campaign_id,
    make_server,
)


def small_spec_dict(name="svc", accesses=250):
    return CampaignSpec.build(
        name,
        [["swim", "art"]],
        ["demand-first", "padc"],
        accesses,
        include_alone=False,
    ).to_dict()


@pytest.fixture
def server(tmp_path):
    """A live service on an ephemeral port, rooted in tmp_path."""
    import threading

    executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
    httpd = make_server(host="127.0.0.1", port=0, root=tmp_path / "campaigns",
                        runtime=executor)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}", executor
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def request(url, payload=None, method=None):
    """(status, parsed-or-text body) for one HTTP call."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            body = response.read().decode()
            status = response.status
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        body = error.read().decode()
        status = error.code
        content_type = error.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, json.loads(body)
    return status, body


class TestServiceEndpoints:
    def test_healthz(self, server):
        base, _ = server
        status, body = request(f"{base}/healthz")
        assert status == 200
        assert body["ok"] is True

    def test_submit_poll_work_export_roundtrip(self, server, tmp_path):
        base, executor = server
        status, created = request(
            f"{base}/campaigns", payload={"spec": small_spec_dict()}, method="POST"
        )
        assert status == 201, created
        assert created["jobs"] == 2
        campaign_id = created["id"]

        status, body = request(f"{base}/campaigns/{campaign_id}/status")
        assert status == 200
        assert body["counts"]["pending"] == 2
        assert not body["complete"]

        # A worker drains the submitted campaign out-of-band.
        campaign = Campaign.open(created["directory"])
        stats = run_worker(campaign, runtime=executor, worker_id="w1", poll=0.05)
        assert stats.done == 2

        status, body = request(f"{base}/campaigns/{campaign_id}/status")
        assert status == 200
        assert body["complete"]
        assert body["counts"]["done"] == 2

        status, listing = request(f"{base}/campaigns")
        assert status == 200
        assert [entry["id"] for entry in listing["campaigns"]] == [campaign_id]

        # The HTTP export is the same bytes the library produces.
        status, csv_text = request(
            f"{base}/campaigns/{campaign_id}/export?format=csv"
        )
        assert status == 200
        assert csv_text == export(campaign, executor.store, fmt="csv")
        status, json_rows = request(
            f"{base}/campaigns/{campaign_id}/export?format=json"
        )
        assert status == 200
        assert json_rows == json.loads(export(campaign, executor.store, fmt="json"))

    def test_repost_same_spec_is_idempotent(self, server):
        base, _ = server
        payload = {"spec": small_spec_dict()}
        status1, first = request(f"{base}/campaigns", payload=payload, method="POST")
        status2, second = request(f"{base}/campaigns", payload=payload, method="POST")
        assert status1 == status2 == 201
        assert first["id"] == second["id"]
        assert first["fingerprint"] == second["fingerprint"]

    def test_different_spec_same_directory_conflicts(self, server):
        base, _ = server
        status, _ = request(
            f"{base}/campaigns",
            payload={"spec": small_spec_dict(), "directory": "pinned"},
            method="POST",
        )
        assert status == 201
        status, body = request(
            f"{base}/campaigns",
            payload={"spec": small_spec_dict(accesses=999), "directory": "pinned"},
            method="POST",
        )
        assert status == 409
        assert "different spec" in body["error"]

    def test_bare_spec_body_accepted(self, server):
        base, _ = server
        status, created = request(
            f"{base}/campaigns", payload=small_spec_dict("bare"), method="POST"
        )
        assert status == 201
        assert created["name"] == "bare"


class TestServiceValidation:
    def test_invalid_spec_is_400(self, server):
        base, _ = server
        status, body = request(
            f"{base}/campaigns",
            payload={"spec": {"name": "x"}},  # missing required fields
            method="POST",
        )
        assert status == 400
        assert "error" in body
        status, body = request(
            f"{base}/campaigns", payload={"spec": ["not", "a", "spec"]}, method="POST"
        )
        assert status == 400
        assert "JSON object" in body["error"]

    def test_non_json_body_is_400(self, server):
        base, _ = server
        req = urllib.request.Request(
            f"{base}/campaigns", data=b"not json{", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("accesses", "abc", "accesses: expected integer, got string"),
            ("workloads", 5, "workloads: expected array, got integer"),
            ("directory", 5, "directory: expected string, got integer"),
        ],
    )
    def test_wrong_json_type_is_400_naming_the_field(
        self, server, tmp_path, field, value, message
    ):
        base, _ = server
        payload = {"spec": small_spec_dict(), "directory": "typed"}
        if field == "directory":
            payload["directory"] = value
        else:
            payload["spec"][field] = value
        status, body = request(f"{base}/campaigns", payload=payload, method="POST")
        assert status == 400
        assert body["error"] == message
        assert not (tmp_path / "campaigns").exists()

    @pytest.mark.parametrize(
        "field,value,message",
        [
            (
                "variants",
                {"v": {"num_channels": "two"}},
                "variant 'v', policy 'demand-first': num_channels must be an "
                "integer, got 'two'",
            ),
            (
                "variants",
                {"v": {"num_channels": 0}},
                "variant 'v', policy 'demand-first': num_channels must be "
                "positive, got 0",
            ),
            ("sim_kwargs", {"bogus": 1}, "unknown sim_kwargs key 'bogus'"),
        ],
    )
    def test_unrunnable_value_is_400(self, server, tmp_path, field, value, message):
        base, _ = server
        payload = {"spec": small_spec_dict(), "directory": "unrunnable"}
        payload["spec"][field] = value
        status, body = request(f"{base}/campaigns", payload=payload, method="POST")
        assert status == 400
        assert body["error"].startswith(message)
        assert not (tmp_path / "campaigns").exists()

    def test_non_numeric_content_length_is_400(self, server):
        base, _ = server
        host, port = base.rsplit("/", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.putrequest("POST", "/campaigns")
            connection.putheader("Content-Length", "abc")
            connection.endheaders(json.dumps(small_spec_dict()).encode())
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_unknown_campaign_is_404(self, server):
        base, _ = server
        status, body = request(f"{base}/campaigns/no-such-campaign/status")
        assert status == 404
        status, body = request(f"{base}/campaigns/no-such-campaign/export")
        assert status == 404

    def test_unknown_endpoint_is_404(self, server):
        base, _ = server
        status, _ = request(f"{base}/nope")
        assert status == 404

    def test_bad_export_format_is_400(self, server, tmp_path):
        base, executor = server
        _, created = request(
            f"{base}/campaigns", payload={"spec": small_spec_dict()}, method="POST"
        )
        status, body = request(
            f"{base}/campaigns/{created['id']}/export?format=xml"
        )
        assert status == 400
        assert "xml" in body["error"]

    def test_series_step_downsampling_and_validation(self, server):
        base, _ = server
        _, created = request(
            f"{base}/campaigns", payload={"spec": small_spec_dict()}, method="POST"
        )
        campaign_id = created["id"]
        # Valid steps are echoed back (no samples yet: jobs list is empty).
        status, body = request(f"{base}/campaigns/{campaign_id}/series")
        assert status == 200
        assert body["step"] == 1
        status, body = request(f"{base}/campaigns/{campaign_id}/series?step=5")
        assert status == 200
        assert body["step"] == 5
        assert body["jobs"] == []
        # Non-integer and non-positive steps are 400s, not server errors.
        status, body = request(f"{base}/campaigns/{campaign_id}/series?step=abc")
        assert status == 400
        assert "step" in body["error"]
        status, body = request(f"{base}/campaigns/{campaign_id}/series?step=0")
        assert status == 400
        assert "step" in body["error"]

    def test_traversal_ids_rejected(self):
        for raw in ("", ".", "..", "a/b", "a\\b", "../etc"):
            with pytest.raises(ServiceError) as excinfo:
                _campaign_id(raw)
            assert excinfo.value.status == 400
        assert _campaign_id("smoke-abc123") == "smoke-abc123"

    def test_unknown_backend_is_400(self, server):
        """The retired ``backend`` key is an unknown field, in an
        envelope and in a bare spec alike."""
        base, _ = server
        for payload in (
            {"spec": small_spec_dict(), "backend": "postgres"},
            {**small_spec_dict(), "backend": "postgres"},
        ):
            status, body = request(f"{base}/campaigns", payload=payload, method="POST")
            assert status == 400
            assert "unknown" in body["error"] and "'backend'" in body["error"]

    def test_unknown_preset_is_400(self, server):
        base, _ = server
        status, body = request(
            f"{base}/campaigns", payload={"spec": "nope"}, method="POST"
        )
        assert status == 400
        assert body["error"].startswith("unknown campaign preset 'nope'")


class TestServiceObject:
    """CampaignService handlers directly (no HTTP), for the error paths."""

    def test_non_dict_body_rejected(self, tmp_path):
        service = CampaignService(root=tmp_path)
        with pytest.raises(ServiceError) as excinfo:
            service.create_campaign(["not", "a", "dict"])
        assert excinfo.value.status == 400

    def test_list_skips_non_campaign_dirs(self, tmp_path):
        service = CampaignService(root=tmp_path)
        (tmp_path / "stray").mkdir(parents=True)
        (tmp_path / "stray" / "notes.txt").write_text("not a campaign")
        assert service.list_campaigns() == {"campaigns": []}

    def test_service_export_matches_serial_runner(self, tmp_path):
        """The service path exports what a local single-process run does."""
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        service = CampaignService(root=tmp_path / "campaigns", runtime=executor)
        created = service.create_campaign({"spec": small_spec_dict()})
        campaign = Campaign.open(created["directory"])
        run_worker(campaign, runtime=executor, worker_id="w1", poll=0.05)
        text, content_type = service.export(created["id"], "csv")
        assert content_type == "text/csv"

        spec = CampaignSpec.from_dict(small_spec_dict())
        baseline_rt = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache2"))
        baseline = Campaign.create(spec, tmp_path / "baseline")
        CampaignRunner(baseline, runtime=baseline_rt).run()
        assert text == export(baseline, baseline_rt.store, fmt="csv")
