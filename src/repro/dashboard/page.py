"""The dependency-free dashboard page: static HTML + inline JS.

One self-contained document — no frameworks, no CDN fetches, no build
step — served by ``python -m repro.campaign serve`` at ``/`` and
``/dashboard``.  The inline script polls the JSON endpoints
(``/campaigns``, ``/campaigns/<id>/metrics``) every couple of seconds
and redraws:

* a **fleet heatmap**: one cell per job, colored by ledger state
  (pending grey, running amber, done green, failed red, interrupted
  purple), with streamed-sample counts on hover;
* per-job **sparklines** (inline SVG) of per-core PAR, prefetch drop
  rate and request-buffer occupancy, straight off the streamed samples;
* the **FDP aggressiveness histogram** and queue-pressure rollup.

Everything renders from the aggregate payloads verbatim; this module
owns presentation only.
"""

from __future__ import annotations

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro · campaign fleet</title>
<style>
  :root {
    --bg: #11151a; --panel: #1a2027; --ink: #d7dde4; --dim: #77828e;
    --pending: #3a434d; --running: #d9a426; --done: #3da35d;
    --failed: #d9534f; --interrupted: #8e6bbf; --accent: #5aa7d9;
  }
  * { box-sizing: border-box; }
  body { margin: 0; background: var(--bg); color: var(--ink);
         font: 14px/1.45 ui-monospace, "SF Mono", Menlo, Consolas, monospace; }
  header { padding: 14px 20px; border-bottom: 1px solid #252d36;
           display: flex; align-items: baseline; gap: 14px; }
  header h1 { font-size: 16px; margin: 0; font-weight: 600; }
  header .sub { color: var(--dim); font-size: 12px; }
  main { padding: 16px 20px; max-width: 1200px; }
  .panel { background: var(--panel); border: 1px solid #252d36;
           border-radius: 6px; padding: 12px 14px; margin-bottom: 14px; }
  .panel h2 { font-size: 13px; margin: 0 0 8px; color: var(--accent);
              font-weight: 600; text-transform: uppercase;
              letter-spacing: 0.06em; }
  .muted { color: var(--dim); }
  .error { color: var(--failed); }
  select { background: var(--panel); color: var(--ink);
           border: 1px solid #2c3540; border-radius: 4px; padding: 3px 6px;
           font: inherit; }
  .heatmap { display: flex; flex-wrap: wrap; gap: 4px; }
  .cell { width: 22px; height: 22px; border-radius: 3px;
          background: var(--pending); position: relative; }
  .cell.running { background: var(--running); }
  .cell.done { background: var(--done); }
  .cell.failed { background: var(--failed); }
  .cell.interrupted { background: var(--interrupted); }
  .legend { margin-top: 8px; font-size: 12px; color: var(--dim); }
  .legend span { display: inline-block; margin-right: 14px; }
  .legend i { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 4px; vertical-align: -1px; }
  .stats { display: flex; gap: 24px; flex-wrap: wrap; }
  .stat .value { font-size: 20px; font-weight: 600; }
  .stat .label { font-size: 11px; color: var(--dim);
                 text-transform: uppercase; letter-spacing: 0.06em; }
  .job { border-top: 1px solid #252d36; padding: 10px 0; }
  .job:first-of-type { border-top: none; }
  .job .name { margin-bottom: 6px; }
  .sparkrow { display: flex; gap: 18px; flex-wrap: wrap; }
  .spark { font-size: 11px; color: var(--dim); }
  .spark svg { display: block; background: #141920; border-radius: 3px; }
  .bars { display: flex; align-items: flex-end; gap: 8px; height: 90px; }
  .bar { background: var(--accent); width: 34px; border-radius: 3px 3px 0 0;
         min-height: 2px; }
  .bar-label { text-align: center; font-size: 11px; color: var(--dim);
               margin-top: 4px; }
  table { border-collapse: collapse; font-size: 12px; width: 100%; }
  th, td { text-align: right; padding: 3px 10px; }
  th:first-child, td:first-child { text-align: left; }
  th { color: var(--dim); font-weight: 400; border-bottom: 1px solid #252d36; }
</style>
</head>
<body>
<header>
  <h1>repro campaign fleet</h1>
  <span class="sub">prefetch-aware DRAM controller reproduction — live telemetry</span>
  <span class="sub" id="poll-state"></span>
</header>
<main>
  <div class="panel">
    <h2>Campaign</h2>
    <select id="campaign-select"></select>
    <span class="muted" id="campaign-meta"></span>
  </div>
  <div class="panel">
    <h2>Progress</h2>
    <div class="stats" id="progress-stats"></div>
  </div>
  <div class="panel">
    <h2>Fleet heatmap</h2>
    <div class="heatmap" id="heatmap"></div>
    <div class="legend">
      <span><i style="background:var(--pending)"></i>pending</span>
      <span><i style="background:var(--running)"></i>running</span>
      <span><i style="background:var(--done)"></i>done</span>
      <span><i style="background:var(--failed)"></i>failed</span>
      <span><i style="background:var(--interrupted)"></i>interrupted</span>
    </div>
  </div>
  <div class="panel">
    <h2>Live series</h2>
    <div id="series"></div>
  </div>
  <div class="panel">
    <h2>FDP aggressiveness</h2>
    <div class="bars" id="fdp-bars"></div>
    <div class="muted" id="fdp-note"></div>
  </div>
  <div class="panel">
    <h2>Queue pressure</h2>
    <div id="pressure"></div>
  </div>
</main>
<script>
"use strict";
const POLL_MS = 2000;
let selected = null;

function el(tag, attrs, text) {
  const node = document.createElement(tag);
  for (const key in (attrs || {})) node.setAttribute(key, attrs[key]);
  if (text !== undefined) node.textContent = text;
  return node;
}

function sparkline(values, width, height, color) {
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("width", width);
  svg.setAttribute("height", height);
  if (!values.length) return svg;
  let lo = Math.min(...values), hi = Math.max(...values);
  if (hi === lo) { hi = lo + 1; }
  const step = values.length > 1 ? (width - 4) / (values.length - 1) : 0;
  const points = values.map((v, i) => {
    const x = 2 + i * step;
    const y = height - 3 - (v - lo) / (hi - lo) * (height - 6);
    return x.toFixed(1) + "," + y.toFixed(1);
  }).join(" ");
  const line = document.createElementNS("http://www.w3.org/2000/svg", "polyline");
  line.setAttribute("points", points);
  line.setAttribute("fill", "none");
  line.setAttribute("stroke", color);
  line.setAttribute("stroke-width", "1.5");
  svg.appendChild(line);
  return svg;
}

function spark(label, values, color) {
  const box = el("div", {class: "spark"});
  box.appendChild(sparkline(values, 150, 40, color));
  const lo = values.length ? Math.min(...values) : 0;
  const hi = values.length ? Math.max(...values) : 0;
  box.appendChild(el("div", {}, label + "  [" + lo + " … " + hi + "]"));
  return box;
}

function renderProgress(progress) {
  const stats = document.getElementById("progress-stats");
  stats.replaceChildren();
  const items = [
    [progress.done + "/" + progress.total, "jobs done"],
    [(progress.counts.running || 0), "running"],
    [(progress.counts.failed || 0), "failed"],
    [progress.samples, "samples streamed"],
    [progress.eta_seconds ? progress.eta_seconds.toFixed(1) + "s" : "—", "eta (serial)"],
  ];
  for (const [value, label] of items) {
    const stat = el("div", {class: "stat"});
    stat.appendChild(el("div", {class: "value"}, String(value)));
    stat.appendChild(el("div", {class: "label"}, label));
    stats.appendChild(stat);
  }
}

function renderHeatmap(progress) {
  const map = document.getElementById("heatmap");
  map.replaceChildren();
  for (const job of progress.states) {
    const cell = el("div", {
      class: "cell " + job.status,
      title: job.label + " — " + job.status + " (" + job.samples + " samples)",
    });
    map.appendChild(cell);
  }
}

function renderSeries(series) {
  const root = document.getElementById("series");
  root.replaceChildren();
  if (!series.jobs.length) {
    root.appendChild(el("div", {class: "muted"},
      "no streamed samples yet — run workers with --stream"));
    return;
  }
  for (const job of series.jobs) {
    const box = el("div", {class: "job"});
    box.appendChild(el("div", {class: "name"},
      job.label + "  (" + job.cycles.length + " intervals)"));
    const row = el("div", {class: "sparkrow"});
    for (let core = 0; core < job.num_cores; core++) {
      row.appendChild(spark("core " + core + " PAR", job.par[core], "#5aa7d9"));
      row.appendChild(spark("core " + core + " drop rate", job.drop_rate[core], "#d9534f"));
    }
    row.appendChild(spark("buffer mean", job.buffer_mean, "#d9a426"));
    box.appendChild(row);
    root.appendChild(box);
  }
  if (series.dropped_jobs) {
    root.appendChild(el("div", {class: "muted"},
      series.dropped_jobs + " more streamed job(s) not shown"));
  }
}

function renderFdp(fdp) {
  const bars = document.getElementById("fdp-bars");
  bars.replaceChildren();
  const levels = Object.keys(fdp.levels);
  const peak = Math.max(1, ...levels.map(level => fdp.levels[level]));
  for (const level of levels) {
    const wrap = el("div");
    const bar = el("div", {class: "bar"});
    bar.style.height = Math.round(fdp.levels[level] / peak * 80) + "px";
    bar.title = fdp.levels[level] + " samples";
    wrap.appendChild(bar);
    wrap.appendChild(el("div", {class: "bar-label"}, "L" + level));
    bars.appendChild(wrap);
  }
  const note = document.getElementById("fdp-note");
  note.textContent = levels.length
    ? (fdp.samples_without_fdp
       ? fdp.samples_without_fdp + " core-interval samples without FDP"
       : "")
    : "no FDP samples yet";
}

function renderPressure(pressure) {
  const root = document.getElementById("pressure");
  root.replaceChildren();
  const summary = el("div", {class: "muted"},
    pressure.intervals + " intervals · buffer mean " + pressure.buffer_mean +
    " / max " + pressure.buffer_max + " · " + pressure.drops + " drops · " +
    pressure.demand_overflows + " demand overflows · bus " +
    pressure.bus_utilization);
  root.appendChild(summary);
  if (!pressure.per_job.length) return;
  const table = el("table");
  const head = el("tr");
  for (const column of ["job", "intervals", "buf mean", "buf max",
                        "overflows", "drops", "bus", "bank"]) {
    head.appendChild(el("th", {}, column));
  }
  table.appendChild(head);
  for (const row of pressure.per_job) {
    const tr = el("tr");
    tr.appendChild(el("td", {}, row.label));
    for (const value of [row.intervals, row.buffer_mean, row.buffer_max,
                         row.demand_overflows, row.drops,
                         row.bus_utilization, row.bank_utilization]) {
      tr.appendChild(el("td", {}, String(value)));
    }
    table.appendChild(tr);
  }
  root.appendChild(table);
}

async function fetchJson(path) {
  const response = await fetch(path);
  if (!response.ok) throw new Error(path + " -> " + response.status);
  return response.json();
}

async function tick() {
  const state = document.getElementById("poll-state");
  try {
    const campaigns = (await fetchJson("/campaigns")).campaigns;
    const picker = document.getElementById("campaign-select");
    const ids = campaigns.map(c => c.id);
    if (picker.children.length !== ids.length ||
        ids.some((id, i) => picker.children[i].value !== id)) {
      picker.replaceChildren();
      for (const c of campaigns) picker.appendChild(el("option", {value: c.id}, c.id));
      if (selected && ids.includes(selected)) picker.value = selected;
    }
    if (!campaigns.length) {
      state.textContent = "no campaigns";
      return;
    }
    selected = picker.value || ids[0];
    const metrics = await fetchJson("/campaigns/" + selected + "/metrics");
    document.getElementById("campaign-meta").textContent = metrics.name;
    renderProgress(metrics.progress);
    renderHeatmap(metrics.progress);
    renderSeries(metrics.series);
    renderFdp(metrics.fdp);
    renderPressure(metrics.pressure);
    state.textContent = "live · " + new Date().toLocaleTimeString();
    state.className = "sub";
  } catch (error) {
    state.textContent = "poll failed: " + error.message;
    state.className = "sub error";
  }
}

document.getElementById("campaign-select").addEventListener("change",
  event => { selected = event.target.value; tick(); });
tick();
setInterval(tick, POLL_MS);
</script>
</body>
</html>
"""


def render_page() -> str:
    """The complete dashboard document (static; all state arrives via JS polls)."""
    return _PAGE
