"""Configuration dataclasses for every subsystem of the PADC reproduction.

All times are expressed in *processor cycles*.  The baseline follows the
paper's Table 3/4 configuration: a 4 GHz-class core clock against DDR3-1333
DRAM whose 15 ns command latencies become 60-cycle latencies.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class DRAMTimings:
    """DDR3-style command latencies, in processor cycles.

    The paper uses 15 ns per command (precharge tRP, activate tRCD,
    read/write CL) on a DDR3-1333 part; at a 4 GHz core clock that is 60
    cycles per command.  A 64-byte line on a 16B-wide DDR bus with BL=4
    occupies the data bus for 3 ns = 12 cycles.  An access that hits the
    open row needs CL, one to a precharged bank tRCD + CL, and one that
    conflicts with the open row tRP + tRCD + CL: the paper's 1:2:3
    latency ratio (§2.1), applied by ``Channel.service``.  Column
    accesses pipeline with earlier bursts, so a bank with an open row
    streams at full bus rate: this is what makes row-buffer locality
    worth fighting for.
    """

    t_rp: int = 60
    t_rcd: int = 60
    cl: int = 60
    burst: int = 12


@dataclass(frozen=True)
class DRAMConfig:
    """Shape and policy of the DRAM subsystem (paper Table 4)."""

    timings: DRAMTimings = field(default_factory=DRAMTimings)
    num_channels: int = 1
    banks_per_channel: int = 8
    row_buffer_bytes: int = 4 * 1024
    line_bytes: int = 64
    open_row_policy: bool = True
    permutation_interleaving: bool = False
    request_buffer_size: int = 128
    # All-bank auto-refresh (disabled by default, as in the paper's model):
    # every refresh_interval cycles the banks refresh for refresh_cycles.
    refresh_enabled: bool = False
    refresh_interval: int = 31_200
    refresh_cycles: int = 640

    @property
    def lines_per_row(self) -> int:
        return self.row_buffer_bytes // self.line_bytes


@dataclass(frozen=True)
class CacheConfig:
    """Last-level (L2) cache configuration (paper Table 3)."""

    size_bytes: int = 512 * 1024
    associativity: int = 8
    line_bytes: int = 64
    mshr_entries: int = 32
    shared: bool = False

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class CoreConfig:
    """First-order out-of-order core model (paper Table 3)."""

    rob_size: int = 256
    retire_width: int = 4
    runahead: bool = False
    runahead_max_depth: int = 64


# The prefetcher and prefetch-filter names of PrefetcherConfig.
PREFETCHER_KINDS: Tuple[str, ...] = ("stream", "stride", "cdc", "markov", "none")
FILTER_KINDS: Tuple[str, ...] = ("ddpf", "fdp")


@dataclass(frozen=True)
class PrefetcherConfig:
    """Hardware prefetcher selection and aggressiveness.

    ``kind`` is one of ``"stream"``, ``"stride"``, ``"cdc"``, ``"markov"``
    or ``"none"``.  ``filter_kind`` optionally layers a prefetch filter:
    ``"ddpf"`` (dynamic data prefetch filtering) or ``"fdp"``
    (feedback-directed throttling).  A candidate that finds the MSHRs or
    the request buffer full is dropped, as in the paper's prefetcher
    (§6.1): that lost coverage is what rigid demand-first scheduling
    pays.
    """

    kind: str = "stream"
    num_streams: int = 32
    degree: int = 4
    distance: int = 64
    filter_kind: Optional[str] = None

    @property
    def enabled(self) -> bool:
        return self.kind != "none"


# drop_threshold table from paper Table 6: (accuracy upper bound, cycles).
DEFAULT_DROP_THRESHOLDS: Tuple[Tuple[float, int], ...] = (
    (0.10, 100),
    (0.30, 1_500),
    (0.70, 50_000),
    (1.01, 100_000),
)


@dataclass(frozen=True)
class PADCConfig:
    """Knobs of the Prefetch-Aware DRAM Controller (paper §4, Table 6)."""

    promotion_threshold: float = 0.85
    accuracy_interval: int = 100_000
    drop_thresholds: Tuple[Tuple[float, int], ...] = DEFAULT_DROP_THRESHOLDS
    use_urgency: bool = True
    use_ranking: bool = False
    age_granularity: int = 100


#: Simulation backends, fastest first: the scheduling round that the one
#: simulation loop (``repro.sim.loop``) runs.  Both are certified
#: byte-identical by the golden-equivalence matrix, the stored loop
#: digests and the differential fuzzer (DESIGN.md §11), which is what
#: justifies excluding the backend knob from result-cache keys: a cached
#: result answers for either backend.
#:
#: * ``"event"`` — the engine's fast cached-key round;
#: * ``"reference"`` — the naive round that re-derives every priority
#:   per round; the differential oracle.
BACKENDS: Tuple[str, ...] = ("event", "reference")

DEFAULT_BACKEND = "event"


class BackendError(ValueError):
    """An unknown simulation-backend name; the message lists the choices."""


def resolve_backend(name: Optional[str]) -> str:
    """Validate a backend spelling; ``None`` means the default.

    Raises :class:`BackendError` (a ``ValueError``) for unknown names so
    every backend-accepting surface shares one error message.
    """
    if name is None:
        return DEFAULT_BACKEND
    if name not in BACKENDS:
        raise BackendError(
            f"unknown backend {name!r}; known backends: {', '.join(BACKENDS)}"
        )
    return name


class PolicyError(ValueError):
    """An unknown scheduling-policy name; the message suggests fixes."""


@dataclass(frozen=True)
class PolicyEntry:
    """One row of the policy table.

    ``policy`` is the canonical scheduler name handed to
    :func:`repro.controller.policies.make_policy`; ``padc`` holds the
    :class:`PADCConfig` knob settings the spelling implies (e.g. the
    paper's "padc-rank" is PADC with ``use_ranking=True``).
    """

    policy: str
    padc: Tuple[Tuple[str, object], ...] = ()


# The single policy-name registry.  Every surface that accepts a policy
# string — SystemConfig.with_policy, baseline_config, campaign
# PolicyVariant/alone_policy validation — resolves through this table,
# so an unknown spelling fails with the same did-you-mean error
# everywhere instead of diverging per entry point.
POLICY_TABLE: Dict[str, PolicyEntry] = {
    # The paper's headline policies (Figure 9's x-axis).
    "no-pref": PolicyEntry("no-pref"),
    "demand-first": PolicyEntry("demand-first"),
    "demand-prefetch-equal": PolicyEntry("demand-prefetch-equal"),
    "prefetch-first": PolicyEntry("prefetch-first"),
    "aps": PolicyEntry("aps"),
    "padc": PolicyEntry("padc"),
    # Comparison points (§6.12 APD-on-rigid, §6.6 PAR-BS interaction).
    "demand-first-apd": PolicyEntry("demand-first-apd"),
    "parbs": PolicyEntry("parbs"),
    # Scheduler-sweep baselines: plain FR-FCFS under its usual name, and
    # strict FCFS as the row-buffer-oblivious lower bound.
    "frfcfs": PolicyEntry("demand-prefetch-equal"),
    "fcfs": PolicyEntry("fcfs"),
    # Aliases bundling PADC knob settings (paper §6.6 and §6.8).
    "padc-rank": PolicyEntry("padc", (("use_ranking", True),)),
    "aps-rank": PolicyEntry("aps", (("use_ranking", True),)),
    "padc-no-urgency": PolicyEntry("padc", (("use_urgency", False),)),
}


def resolve_policy(name: str) -> PolicyEntry:
    """Look a policy spelling up in :data:`POLICY_TABLE`.

    Raises :class:`PolicyError` (a ``ValueError``) with a did-you-mean
    suggestion for unknown names; this is the one error message every
    policy-accepting surface shares.
    """
    try:
        return POLICY_TABLE[name]
    except (KeyError, TypeError):
        close = difflib.get_close_matches(str(name), list(POLICY_TABLE), n=3)
        hint = f" (did you mean {', '.join(close)}?)" if close else ""
        raise PolicyError(
            f"unknown scheduling policy {name!r}{hint}; "
            f"known policies: {', '.join(POLICY_TABLE)}"
        ) from None


@dataclass(frozen=True)
class SystemConfig:
    """Full system: cores, caches, prefetchers, DRAM, scheduling policy.

    ``policy`` is a canonical scheduler name of :data:`POLICY_TABLE`
    (an entry's ``policy``, e.g. ``"demand-first"`` or ``"padc"``, which
    is APS + APD); :meth:`with_policy` also resolves the table's aliases.
    """

    num_cores: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    padc: PADCConfig = field(default_factory=PADCConfig)
    policy: str = "demand-first"

    def with_policy(self, policy: str, **padc_overrides) -> "SystemConfig":
        """Return a copy of this config with a different scheduling policy.

        ``policy`` is resolved through :data:`POLICY_TABLE`, so table
        aliases work (``with_policy("padc-rank")`` is PADC with
        ``use_ranking=True``) and an unknown name raises the shared
        did-you-mean :class:`PolicyError`.  Explicit ``padc_overrides``
        win over the table's knob settings.
        """
        entry = resolve_policy(policy)
        merged = dict(entry.padc)
        merged.update(padc_overrides)
        padc = replace(self.padc, **merged) if merged else self.padc
        return replace(self, policy=entry.policy, padc=padc)


def baseline_config(
    num_cores: int = 1,
    policy: str = "demand-first",
    prefetcher_kind: str = "stream",
    *,
    shared_cache: bool = False,
    num_channels: int = 1,
    cache_kb_per_core: Optional[int] = None,
    row_buffer_kb: int = 4,
    open_row: bool = True,
    permutation: bool = False,
    runahead: bool = False,
    filter_kind: Optional[str] = None,
    use_ranking: Optional[bool] = None,
    use_urgency: Optional[bool] = None,
) -> SystemConfig:
    """Build the paper's baseline configuration for an N-core CMP.

    Mirrors Tables 3 and 4: 512KB private L2 per core (1MB for single
    core), 64/64/128/256-entry request buffers for 1/2/4/8 cores, one
    memory controller with 8 banks and 4KB row buffers.

    ``policy`` resolves through :data:`POLICY_TABLE` (unknown names get
    the shared did-you-mean error); table aliases such as ``padc-rank``
    pre-set the PADC knobs, and explicit ``use_ranking``/``use_urgency``
    arguments override them.  An argument of the wrong type or range
    raises ``TypeError``/``ValueError`` naming it.
    """
    sizes = [
        ("num_cores", num_cores),
        ("num_channels", num_channels),
        ("row_buffer_kb", row_buffer_kb),
    ]
    if cache_kb_per_core is not None:
        sizes.append(("cache_kb_per_core", cache_kb_per_core))
    for name, value in sizes:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    flags = [
        ("shared_cache", shared_cache),
        ("open_row", open_row),
        ("permutation", permutation),
        ("runahead", runahead),
    ]
    for name, value in (("use_ranking", use_ranking), ("use_urgency", use_urgency)):
        if value is not None:
            flags.append((name, value))
    for name, value in flags:
        if not isinstance(value, bool):
            raise TypeError(f"{name} must be a boolean, got {value!r}")
    if prefetcher_kind not in PREFETCHER_KINDS:
        raise ValueError(
            f"unknown prefetcher_kind {prefetcher_kind!r}; "
            f"known: {', '.join(PREFETCHER_KINDS)}"
        )
    if filter_kind is not None and filter_kind not in FILTER_KINDS:
        raise ValueError(
            f"unknown filter_kind {filter_kind!r}; known: {', '.join(FILTER_KINDS)}"
        )
    entry = resolve_policy(policy)
    padc_knobs = {"use_ranking": False, "use_urgency": True}
    padc_knobs.update(dict(entry.padc))
    if use_ranking is not None:
        padc_knobs["use_ranking"] = use_ranking
    if use_urgency is not None:
        padc_knobs["use_urgency"] = use_urgency
    if cache_kb_per_core is None:
        cache_kb_per_core = 1024 if num_cores == 1 else 512
    # 48 in-flight line fills per core: enough that the *shared* DRAM
    # request buffer (not the private MSHR file) is the binding resource
    # in multi-core runs, which is where the paper's §6.1 buffer-pressure
    # effects (useless prefetches denying service to demands) play out.
    mshr_per_core = 48
    if shared_cache:
        cache = CacheConfig(
            size_bytes=cache_kb_per_core * 1024 * num_cores,
            associativity=4 * num_cores,
            shared=True,
            mshr_entries=mshr_per_core * num_cores,
        )
    else:
        cache = CacheConfig(
            size_bytes=cache_kb_per_core * 1024, mshr_entries=mshr_per_core
        )
    request_buffer = {1: 64, 2: 64, 4: 128, 8: 256}.get(num_cores, 32 * num_cores)
    dram = DRAMConfig(
        num_channels=num_channels,
        request_buffer_size=request_buffer,
        row_buffer_bytes=row_buffer_kb * 1024,
        open_row_policy=open_row,
        permutation_interleaving=permutation,
    )
    return SystemConfig(
        num_cores=num_cores,
        core=CoreConfig(runahead=runahead),
        cache=cache,
        dram=dram,
        prefetcher=PrefetcherConfig(kind=prefetcher_kind, filter_kind=filter_kind),
        padc=PADCConfig(**padc_knobs),
        policy=entry.policy,
    )


ALL_POLICIES: Sequence[str] = (
    "no-pref",
    "demand-first",
    "demand-prefetch-equal",
    "prefetch-first",
    "aps",
    "padc",
)
