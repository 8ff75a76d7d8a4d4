"""Sweep-orchestration subsystem: validated specs, a persistent job
store, and resumable fault-tolerant execution by any number of workers.

Layered on :mod:`repro.runtime`, in six parts:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, the typed and
  upfront-validated contract declaring a grid of workloads × policies ×
  config overrides × seeds, expanded deterministically into content-hash
  keyed jobs;
* :mod:`repro.campaign.jobstore` — the campaign store: one shared
  WAL-mode SQLite database (``jobs.sqlite``, next to the spec snapshot)
  holding one row per job (its status, attempts, and the last attempt's
  timing, error and cache hit), atomic job claims with worker leases
  and heartbeat renewal so a SIGKILL'd worker's jobs are reclaimed, and
  the streamed telemetry samples;
* :mod:`repro.campaign.executor` — :class:`Campaign`, the one handle
  over a campaign directory (``repro.api.Campaign`` is this class),
  with its status, export and live-telemetry reads; and :func:`drain`
  and :func:`submit`: resume that serves finished jobs from the result
  store and reopens the rest, then runs the worker loop in this process
  or in a pool of worker processes;
* :mod:`repro.campaign.worker` — the pull-based worker loop
  (claim → execute → persist → mark done) that executes every campaign
  job: fault-isolated, with bounded retries (a crashing job records its
  traceback and its siblings finish), run concurrently by any number of
  processes or machines against one job store;
* :mod:`repro.campaign.service` — a stdlib JSON-over-HTTP front-end
  (POST a spec, GET status/export) routed through :class:`Campaign`;
* :mod:`repro.campaign.report` — status summaries and deterministic
  CSV/JSON export of the job states joined with the result store,
  identical bytes however the campaign was driven, interrupted or not.

``python -m repro.campaign`` (also ``python -m repro campaign``) drives
it: ``run``, ``create``, ``status``, ``resume``, ``worker``, ``serve``,
``export``.  The figure scripts' multiprogrammed sweeps submit through
:func:`submit`, making them thin views over the campaign store.

(Presets live in :mod:`repro.campaign.presets`; it is imported lazily
because it pulls in :mod:`repro.experiments`, which itself imports this
package.)
"""

from repro.campaign.jobstore import (
    Claim,
    JobState,
    SqliteJobStore,
    status_counts,
)
from repro.campaign.spec import (
    CampaignJob,
    CampaignSpec,
    PolicyVariant,
    SpecError,
    Workload,
    expand,
    unique_jobs,
)
from repro.campaign.executor import (
    Campaign,
    CampaignError,
    CampaignRun,
    campaigns_root,
    default_directory,
    drain,
    submit,
)

from repro.campaign.worker import WorkerStats, run_worker

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignJob",
    "CampaignRun",
    "CampaignSpec",
    "Claim",
    "JobState",
    "PolicyVariant",
    "SpecError",
    "SqliteJobStore",
    "Workload",
    "WorkerStats",
    "campaigns_root",
    "default_directory",
    "drain",
    "expand",
    "run_worker",
    "status_counts",
    "submit",
    "unique_jobs",
]
