"""Minimal JSON-over-HTTP front-end for campaign submission and status.

``python -m repro.campaign serve`` exposes the campaign layer as a
stdlib-only service (``http.server`` — no third-party dependency), the
submit/poll/export half of the ROADMAP's simulation-as-a-service item;
workers (``python -m repro.campaign worker``) do the actual simulating.

Endpoints (all JSON unless noted):

* ``GET  /`` and ``GET /dashboard`` — the live fleet dashboard
  (dependency-free static HTML + inline JS polling the JSON below).
* ``GET  /healthz`` — liveness probe.
* ``GET  /campaigns`` — every campaign under the service root with its
  status histogram.
* ``POST /campaigns`` — body is a :class:`CampaignSpec` dict with an
  optional ``"directory"``, or the envelope ``{"spec": {...},
  "directory": "..."}``; any other key, or a field of the wrong JSON
  type, is a 400 naming it.  Creates the campaign directory and its
  spec snapshot and returns its id; the first worker enqueues the jobs.
  Re-POSTing an identical spec is idempotent; a different spec for the
  same directory is a 409.
* ``GET  /campaigns/<id>/status`` — status counts + human summary.
* ``GET  /campaigns/<id>/export?format=csv|json`` — the deterministic
  export (``text/csv`` or ``application/json``).
* ``GET  /campaigns/<id>/metrics`` — the full dashboard payload
  (progress + live series + FDP histogram + queue pressure), computed
  from the streamed ``samples`` table (DESIGN.md §14).
* ``GET  /campaigns/<id>/progress|series|fdp|pressure`` (``series``
  accepts ``?step=N`` for server-side downsampling) — the same
  aggregates individually.
* ``GET  /campaigns/<id>/samples?after=N`` — raw streamed sample rows
  past cursor ``N`` plus the next cursor, for incremental tailing.

Campaign ids are directory basenames under the service root
(``--root``, default the shared campaigns root); requests cannot escape
it.  All campaign logic is routed through the one
:class:`~repro.campaign.executor.Campaign` handle (``Campaign.create`` /
``Campaign.open``, which ``repro.api`` also hands out), so the HTTP
surface stays a thin shim over the same public API library users call.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.campaign.executor import SPEC_FILE, Campaign, CampaignError, campaigns_root
from repro.campaign.spec import SpecError, _typed

DEFAULT_PORT = 8642

# Maximum accepted request body; a CampaignSpec is a few KB of JSON,
# anything bigger is a mistake or abuse.
MAX_BODY_BYTES = 4 * 1024 * 1024


class ServiceError(Exception):
    """An HTTP-mappable service failure."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _campaign_id(raw: str) -> str:
    """Validate a campaign id: a plain directory basename, no traversal."""
    if not raw or raw in (".", "..") or "/" in raw or "\\" in raw:
        raise ServiceError(400, f"invalid campaign id {raw!r}")
    return raw


class CampaignService:
    """The service's request-independent state: root directory + runtime."""

    def __init__(self, root=None, runtime=None):
        self.root = Path(root) if root is not None else campaigns_root()
        self.runtime = runtime

    # -- handlers (plain data in, plain data out) -----------------------------

    def health(self) -> Dict:
        return {"ok": True, "root": str(self.root)}

    def _open(self, campaign_id: str) -> Campaign:
        directory = self.root / _campaign_id(campaign_id)
        try:
            return Campaign.open(directory, runtime=self.runtime)
        except CampaignError as error:
            raise ServiceError(404, str(error)) from error

    def dashboard(self) -> str:
        from repro.dashboard import render_page

        return render_page()

    def list_campaigns(self) -> Dict:
        campaigns = []
        if self.root.is_dir():
            for entry in sorted(self.root.iterdir()):
                if not (entry / SPEC_FILE).is_file():
                    continue
                try:
                    campaigns.append(Campaign.open(entry).status())
                except CampaignError:
                    continue  # unreadable snapshot: not served, not fatal
        return {"campaigns": campaigns}

    def create_campaign(self, payload: Dict) -> Dict:
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        if "spec" in payload:
            spec = payload["spec"]
            unknown = sorted(set(payload) - {"spec", "directory"})
            if unknown:
                raise ServiceError(
                    400,
                    f"unknown request field {', '.join(map(repr, unknown))}; "
                    "a request body is a bare spec or "
                    '{"spec": ..., "directory": ...}',
                )
        else:
            # A bare spec: CampaignSpec.from_dict rejects unknown fields.
            spec = {key: value for key, value in payload.items() if key != "directory"}
        try:
            directory = None
            if "directory" in payload:
                name = _typed(payload["directory"], "directory", "string")
                directory = self.root / _campaign_id(name)
            campaign = Campaign.create(spec, directory, root=self.root)
        except SpecError as error:
            raise ServiceError(400, str(error)) from error
        except CampaignError as error:
            raise ServiceError(409, str(error)) from error
        return {
            "id": campaign.directory.name,
            "directory": str(campaign.directory),
            "name": campaign.name,
            "fingerprint": campaign.spec.fingerprint(),
            "jobs": len(campaign.unique_jobs()),
        }

    def status(self, campaign_id: str) -> Dict:
        return self._open(campaign_id).status()

    def export(self, campaign_id: str, fmt: str) -> Tuple[str, str]:
        if fmt not in ("csv", "json"):
            raise ServiceError(400, f"unknown export format {fmt!r}; use csv or json")
        text = self._open(campaign_id).export(fmt=fmt)
        content_type = "text/csv" if fmt == "csv" else "application/json"
        return text, content_type

    # -- live telemetry aggregates (DESIGN.md §14) ----------------------------

    def metrics(self, campaign_id: str) -> Dict:
        return self._open(campaign_id).metrics()

    def progress(self, campaign_id: str) -> Dict:
        return self._open(campaign_id).progress()

    def series(self, campaign_id: str, step: int = 1) -> Dict:
        from repro.dashboard.aggregate import series

        if step < 1:
            raise ServiceError(400, f"'step' must be >= 1, got {step}")
        return series(self._open(campaign_id), step=step)

    def fdp(self, campaign_id: str) -> Dict:
        from repro.dashboard.aggregate import fdp_histogram

        return fdp_histogram(self._open(campaign_id))

    def pressure(self, campaign_id: str) -> Dict:
        from repro.dashboard.aggregate import queue_pressure

        return queue_pressure(self._open(campaign_id))

    def samples(self, campaign_id: str, after: int) -> Dict:
        rows, cursor = self._open(campaign_id).ledger.samples_since(after)
        return {"rows": rows, "cursor": cursor}


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs+paths onto the CampaignService handlers."""

    service: CampaignService  # installed by make_server
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # quiet by default; the CLI announces the address once

    def _send(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, payload: Dict) -> None:
        self._send(status, json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   "application/json")

    def _read_body(self) -> Dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            self.close_connection = True  # the body's end is unknown
            raise ServiceError(
                400, f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length <= 0:
            raise ServiceError(400, "request body required")
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(400, f"request body is not valid JSON: {error}")

    def _route(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if method == "GET" and parts in ([], ["dashboard"]):
                return self._send(200, self.service.dashboard(), "text/html")
            if method == "GET" and parts == ["healthz"]:
                return self._send_json(200, self.service.health())
            if method == "GET" and parts == ["campaigns"]:
                return self._send_json(200, self.service.list_campaigns())
            if method == "POST" and parts == ["campaigns"]:
                return self._send_json(201, self.service.create_campaign(self._read_body()))
            if method == "GET" and len(parts) == 3 and parts[0] == "campaigns":
                if parts[2] == "status":
                    return self._send_json(200, self.service.status(parts[1]))
                if parts[2] == "export":
                    query = parse_qs(parsed.query)
                    fmt = (query.get("format") or ["csv"])[0]
                    text, content_type = self.service.export(parts[1], fmt)
                    return self._send(200, text, content_type)
                if parts[2] == "metrics":
                    return self._send_json(200, self.service.metrics(parts[1]))
                if parts[2] == "progress":
                    return self._send_json(200, self.service.progress(parts[1]))
                if parts[2] == "series":
                    query = parse_qs(parsed.query)
                    raw = (query.get("step") or ["1"])[0]
                    try:
                        step = int(raw)
                    except ValueError:
                        raise ServiceError(
                            400,
                            f"'step' must be a positive integer, got {raw!r}",
                        ) from None
                    return self._send_json(
                        200, self.service.series(parts[1], step=step)
                    )
                if parts[2] == "fdp":
                    return self._send_json(200, self.service.fdp(parts[1]))
                if parts[2] == "pressure":
                    return self._send_json(200, self.service.pressure(parts[1]))
                if parts[2] == "samples":
                    query = parse_qs(parsed.query)
                    raw = (query.get("after") or ["0"])[0]
                    try:
                        after = int(raw)
                    except ValueError:
                        raise ServiceError(
                            400, f"'after' must be an integer cursor, got {raw!r}"
                        ) from None
                    return self._send_json(200, self.service.samples(parts[1], after))
            raise ServiceError(404, f"no such endpoint: {method} {parsed.path}")
        except ServiceError as error:
            self._send_json(error.status, {"error": str(error)})

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")


def make_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    root=None,
    runtime=None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the campaign HTTP server."""
    service = CampaignService(root=root, runtime=runtime)
    handler = type("CampaignHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    root=None,
    runtime=None,
    announce=print,
) -> None:
    """Run the campaign service until interrupted."""
    server = make_server(host=host, port=port, root=root, runtime=runtime)
    bound_host, bound_port = server.server_address[:2]
    announce(
        f"campaign service on http://{bound_host}:{bound_port} "
        f"(root: {CampaignService(root=root).root}); "
        f"live dashboard at http://{bound_host}:{bound_port}/dashboard"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
