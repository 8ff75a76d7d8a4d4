"""Live fleet dashboard over streamed campaign telemetry (DESIGN.md §14).

Two halves, mirroring the log-buffer/api split of stdlib web dashboards:

* :mod:`repro.dashboard.aggregate` — pure functions folding the campaign
  job store (states + streamed ``samples``) into the JSON the service
  endpoints return: progress/ETA, per-core PAR and drop-rate series,
  FDP aggressiveness histograms, queue-pressure rollups;
* :mod:`repro.dashboard.page` — the dependency-free static HTML+JS view
  (inline sparklines and the fleet heatmap) that polls those endpoints;
  served by ``python -m repro.campaign serve`` at ``/``.

Nothing here touches the simulator: the dashboard is a read-only
consumer of :class:`~repro.campaign.Campaign` handles.
"""

from repro.dashboard.aggregate import (
    campaign_metrics,
    fdp_histogram,
    progress,
    queue_pressure,
    series,
)
from repro.dashboard.page import render_page

__all__ = [
    "campaign_metrics",
    "fdp_histogram",
    "progress",
    "queue_pressure",
    "render_page",
    "series",
]
