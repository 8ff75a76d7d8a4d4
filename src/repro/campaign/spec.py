"""Declarative, validated sweep specifications.

A :class:`CampaignSpec` is the single self-contained contract for one
experiment sweep: a grid of workloads × policy variants × config-override
variants × seeds at one access count.  Following the validation-first
philosophy of the FastSim/PyExperimenter exemplars, every spec is checked
upfront — unknown benchmarks, policies, or ``baseline_config`` overrides
are rejected at construction time with actionable errors (including
did-you-mean suggestions), so the executor only ever sees runnable jobs.

:func:`expand` turns a spec into a deterministic, ordered list of
:class:`CampaignJob` values.  Each wraps one :class:`~repro.runtime.SimJob`
plus the grid coordinates it came from; the job's content hash
(``CampaignJob.key``) is the identity used by the job store, the result
store, and the resume logic.  Two expansions of equal specs produce the
same jobs in the same order, which is what makes resumed and
uninterrupted campaigns bit-for-bit comparable.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.params import PolicyError, baseline_config, resolve_policy
from repro.runtime import SimJob, content_hash
from repro.runtime.parallel import JOB_SIM_ARGS, SIM_KWARG_NAMES, suggest
from repro.workloads.profiles import ALL_BENCHMARKS

SPEC_VERSION = 1

# Top-level fields of a spec dict (the keys :meth:`CampaignSpec.to_dict`
# writes); ``from_dict`` rejects any other key so a typo cannot silently
# fall back to a default.
SPEC_FIELDS = (
    "spec_version",
    "name",
    "accesses",
    "workloads",
    "policies",
    "variants",
    "seeds",
    "include_alone",
    "alone_policy",
    "sim_kwargs",
)

# JSON-primitive types allowed as override / sim-kwarg values (anything
# else could not round-trip through the campaign.json snapshot).
_PRIMITIVES = (str, int, float, bool, type(None))


class SpecError(ValueError):
    """A campaign spec failed validation; the message says how to fix it."""


def _known_benchmark_names() -> List[str]:
    names = {profile.name for profile in ALL_BENCHMARKS}
    names.update(profile.name.rsplit("_", 1)[0] for profile in ALL_BENCHMARKS)
    return sorted(names)


def _config_override_names() -> List[str]:
    parameters = inspect.signature(baseline_config).parameters
    return sorted(set(parameters) - {"num_cores", "policy"})


def _check_overrides(overrides: Tuple[Tuple[str, object], ...], where: str) -> None:
    known = _config_override_names()
    for key, value in overrides:
        if key not in known:
            raise SpecError(
                f"{where}: unknown baseline_config override {key!r}"
                f"{suggest(str(key), known)}; known overrides: {', '.join(known)}"
            )
        if not isinstance(value, _PRIMITIVES):
            raise SpecError(
                f"{where}: override {key!r} has non-JSON value "
                f"{value!r} ({type(value).__name__}); use str/int/float/bool/None"
            )


def _as_override_tuple(overrides) -> Tuple[Tuple[str, object], ...]:
    if isinstance(overrides, Mapping):
        return tuple(sorted(overrides.items()))
    return tuple((str(key), value) for key, value in overrides)


def _json_type(value) -> str:
    """The JSON type name of ``value`` (a Python tuple counts as an array)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, Mapping):
        return "object"
    if isinstance(value, (list, tuple)):
        return "array"
    return type(value).__name__


def _typed(value, path: str, *types: str):
    """``value`` if its JSON type is one of ``types``, else a SpecError
    naming ``path`` and the type it got."""
    got = _json_type(value)
    if got not in types:
        raise SpecError(f"{path}: expected {' or '.join(types)}, got {got}")
    return value


_REQUIRED = object()


def _field(mapping: Mapping, key: str, where: str, *types: str, default=_REQUIRED):
    """``mapping[key]`` checked by :func:`_typed`, or ``default`` when absent."""
    if key not in mapping:
        if default is _REQUIRED:
            raise SpecError(f"{where} is missing required field {key!r}")
        return default
    return _typed(mapping[key], f"{where}.{key}" if where else key, *types)


def _strings(value, path: str) -> Tuple[str, ...]:
    return tuple(
        _typed(item, f"{path}[{index}]", "string")
        for index, item in enumerate(_typed(value, path, "array"))
    )


@dataclass(frozen=True)
class Workload:
    """One multiprogrammed mix: benchmark names plus its base seed."""

    benchmarks: Tuple[str, ...]
    seed: int = 0

    @classmethod
    def make(cls, benchmarks: Sequence[str], seed: int = 0) -> "Workload":
        return cls(tuple(str(name) for name in benchmarks), int(seed))


@dataclass(frozen=True)
class PolicyVariant:
    """One point on the policy axis.

    ``label`` is the display/ledger name; ``policy`` is the scheduler
    policy handed to :func:`~repro.params.baseline_config`; ``overrides``
    are extra ``baseline_config`` keyword arguments — e.g. the paper's
    "padc-rank" is ``PolicyVariant("padc-rank", "padc", use_ranking=True)``.
    """

    label: str
    policy: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, label: str, policy: Optional[str] = None, **overrides) -> "PolicyVariant":
        return cls(str(label), str(policy or label), _as_override_tuple(overrides))


PolicyLike = Union[str, PolicyVariant]


@dataclass(frozen=True)
class CampaignSpec:
    """The validated contract for one sweep campaign.

    The grid is ``workloads × policies × variants × seeds``; every grid
    cell becomes one multiprogrammed simulation whose seed is
    ``workload.seed + seed_offset``.  With ``include_alone`` each
    workload additionally contributes one single-core ``alone_policy``
    run per benchmark (seed ``workload.seed + seed_offset + position``),
    exactly mirroring how :func:`repro.experiments.runner.alone_ipcs`
    seeds the paper's IPC_alone baselines — so campaign jobs and
    figure-script jobs share cache entries by construction.
    """

    name: str
    workloads: Tuple[Workload, ...]
    policies: Tuple[PolicyVariant, ...]
    accesses: int
    variants: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = (("base", ()),)
    seeds: Tuple[int, ...] = (0,)
    include_alone: bool = True
    alone_policy: str = "demand-first"
    sim_kwargs: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        self.validate()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        workloads: Sequence,
        policies: Sequence[PolicyLike],
        accesses: int,
        variants: Optional[Mapping[str, Mapping[str, object]]] = None,
        seeds: Sequence[int] = (0,),
        include_alone: bool = True,
        alone_policy: str = "demand-first",
        **sim_kwargs,
    ) -> "CampaignSpec":
        """Normalizing constructor.

        ``workloads`` entries may be :class:`Workload` values or plain
        benchmark-name sequences; plain sequences get ``seed = position``
        (matching the per-mix seeding of the figure scripts).
        ``policies`` entries may be :class:`PolicyVariant` values or bare
        policy names.  ``variants`` maps variant label → baseline_config
        overrides applied to every policy (insertion order preserved).
        """
        normalized_workloads = tuple(
            entry
            if isinstance(entry, Workload)
            else Workload.make(entry, seed=index)
            for index, entry in enumerate(workloads)
        )
        normalized_policies = tuple(
            entry if isinstance(entry, PolicyVariant) else PolicyVariant.make(entry)
            for entry in policies
        )
        if variants is None:
            variants = {"base": {}}
        normalized_variants = tuple(
            (str(label), _as_override_tuple(overrides))
            for label, overrides in variants.items()
        )
        return cls(
            name=str(name),
            workloads=normalized_workloads,
            policies=normalized_policies,
            accesses=int(accesses),
            variants=normalized_variants,
            seeds=tuple(int(seed) for seed in seeds),
            include_alone=bool(include_alone),
            alone_policy=str(alone_policy),
            sim_kwargs=tuple(sorted(sim_kwargs.items())),
        )

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Reject any inconsistency upfront, with an actionable message."""
        if not self.name or not all(c.isalnum() or c in "._-" for c in self.name):
            raise SpecError(
                f"campaign name {self.name!r} must be non-empty and use only "
                "letters, digits, '.', '_' or '-' (it names the campaign directory)"
            )
        if not isinstance(self.accesses, int) or self.accesses <= 0:
            raise SpecError(
                f"accesses must be a positive int, got {self.accesses!r}"
            )
        if not self.workloads:
            raise SpecError("a campaign needs at least one workload")
        known_benchmarks = _known_benchmark_names()
        for index, workload in enumerate(self.workloads):
            if not workload.benchmarks:
                raise SpecError(f"workload {index} is empty")
            for name in workload.benchmarks:
                if name.startswith("trace:"):
                    # Trace workloads validate through the trace resolver:
                    # spec-knob typos and unknown trace names fail here —
                    # with the resolver's own did-you-mean suggestions —
                    # before a single job runs.  Lazy import: specs
                    # without traces never load the trace subsystem.
                    from repro.trace import (
                        TraceFormatError,
                        TraceLookupError,
                        validate_trace_spec,
                    )

                    try:
                        validate_trace_spec(name)
                    except (TraceLookupError, TraceFormatError, OSError) as error:
                        raise SpecError(
                            f"workload {index}: {error}"
                        ) from None
                elif name not in known_benchmarks:
                    raise SpecError(
                        f"workload {index}: unknown benchmark {name!r}"
                        f"{suggest(name, known_benchmarks)}; "
                        f"{len(known_benchmarks)} known names include "
                        f"{', '.join(known_benchmarks[:6])}, ..."
                    )
        if not self.policies:
            raise SpecError("a campaign needs at least one policy")
        labels = [variant.label for variant in self.policies]
        if len(set(labels)) != len(labels):
            raise SpecError(f"duplicate policy labels: {labels}")
        for variant in self.policies:
            # Route through the shared policy table so unknown spellings
            # fail with the exact same did-you-mean error that
            # SystemConfig.with_policy and baseline_config raise.
            try:
                resolve_policy(variant.policy)
            except PolicyError as error:
                raise SpecError(f"policy {variant.label!r}: {error}") from None
            _check_overrides(variant.overrides, f"policy {variant.label!r}")
        if not self.variants:
            raise SpecError("a campaign needs at least one config variant")
        variant_labels = [label for label, _ in self.variants]
        if len(set(variant_labels)) != len(variant_labels):
            raise SpecError(f"duplicate variant labels: {variant_labels}")
        for label, overrides in self.variants:
            _check_overrides(overrides, f"variant {label!r}")
        # Build every distinct config the grid runs, so an override value
        # of the wrong type or range fails here rather than in a worker.
        for cores in sorted({len(workload.benchmarks) for workload in self.workloads}):
            for label, overrides in self.variants:
                for variant in self.policies:
                    merged = dict(overrides)
                    merged.update(variant.overrides)
                    try:
                        baseline_config(cores, policy=variant.policy, **merged)
                    except (TypeError, ValueError) as error:
                        raise SpecError(
                            f"variant {label!r}, policy {variant.label!r}: {error}"
                        ) from None
        if not self.seeds:
            raise SpecError("a campaign needs at least one seed offset")
        if len(set(self.seeds)) != len(self.seeds):
            raise SpecError(f"duplicate seed offsets: {list(self.seeds)}")
        for index, workload in enumerate(self.workloads):
            for offset in self.seeds:
                if workload.seed + offset < 0:
                    raise SpecError(
                        f"workload {index} (seed {workload.seed}) with seed offset "
                        f"{offset} gives simulation seed {workload.seed + offset}; "
                        "simulation seeds must be >= 0"
                    )
        try:
            resolve_policy(self.alone_policy)
        except PolicyError as error:
            raise SpecError(f"alone_policy: {error}") from None
        for key, value in self.sim_kwargs:
            if key in JOB_SIM_ARGS:
                raise SpecError(
                    f"sim_kwargs[{key!r}] is set by every job from the spec's "
                    "workloads, accesses and seeds; remove it"
                )
            if key not in SIM_KWARG_NAMES:
                hint = suggest(str(key), SIM_KWARG_NAMES)
                raise SpecError(
                    f"unknown sim_kwargs key {key!r}{hint}; "
                    f"known keys: {', '.join(SIM_KWARG_NAMES)}"
                )
            if not isinstance(value, _PRIMITIVES):
                raise SpecError(
                    f"sim_kwargs[{key!r}] has non-JSON value {value!r}; "
                    "use str/int/float/bool/None"
                )

    # -- identity & serialization ---------------------------------------------

    def fingerprint(self) -> str:
        """Content hash over the whole spec (every field, every level)."""
        return content_hash({"spec_version": SPEC_VERSION, "spec": self})

    def to_dict(self) -> Dict:
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "accesses": self.accesses,
            "workloads": [
                {"benchmarks": list(w.benchmarks), "seed": w.seed}
                for w in self.workloads
            ],
            "policies": [
                {
                    "label": p.label,
                    "policy": p.policy,
                    "overrides": dict(p.overrides),
                }
                for p in self.policies
            ],
            "variants": [
                {"label": label, "overrides": dict(overrides)}
                for label, overrides in self.variants
            ],
            "seeds": list(self.seeds),
            "include_alone": self.include_alone,
            "alone_policy": self.alone_policy,
            "sim_kwargs": dict(self.sim_kwargs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`; also accepts the hand-written
        shorthand (plain benchmark lists, bare policy names).

        This is the JSON input edge, so nothing is coerced: unknown
        top-level fields are rejected with a did-you-mean, and a field of
        the wrong JSON type (``"accesses": "abc"``, ``"include_alone":
        "false"``) is a :class:`SpecError` naming its path and the type
        it got.  :meth:`build` keeps its coercion for Python callers.
        """
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"a campaign spec must be a JSON object, got {type(payload).__name__}"
            )
        for key in payload:
            if key not in SPEC_FIELDS:
                raise SpecError(
                    f"unknown spec field {key!r}{suggest(str(key), SPEC_FIELDS)}; "
                    f"known fields: {', '.join(SPEC_FIELDS)}"
                )
        for key in ("name", "accesses", "workloads", "policies"):
            if key not in payload:
                raise SpecError(
                    f"spec payload is missing required field {key!r}; required: "
                    "name, accesses, workloads, policies"
                )
        version = _field(payload, "spec_version", "", "integer", default=SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(
                f"unsupported spec_version {version}; this build reads "
                f"version {SPEC_VERSION}"
            )
        workloads = []
        for index, entry in enumerate(_field(payload, "workloads", "", "array")):
            path = f"workloads[{index}]"
            if isinstance(_typed(entry, path, "array", "object"), Mapping):
                benchmarks = _strings(
                    _field(entry, "benchmarks", path, "array"), f"{path}.benchmarks"
                )
                seed = _field(entry, "seed", path, "integer", default=index)
            else:
                benchmarks, seed = _strings(entry, path), index
            workloads.append(Workload(benchmarks, seed))
        policies = []
        for index, entry in enumerate(_field(payload, "policies", "", "array")):
            path = f"policies[{index}]"
            if isinstance(_typed(entry, path, "string", "object"), str):
                policies.append(PolicyVariant(entry, entry))
                continue
            label = _field(entry, "label", path, "string")
            policy = _field(entry, "policy", path, "string", default=label)
            overrides = _field(entry, "overrides", path, "object", default={})
            policies.append(PolicyVariant(label, policy, _as_override_tuple(overrides)))
        raw_variants = _field(
            payload, "variants", "", "array", "object", default=[{"label": "base"}]
        )
        if isinstance(raw_variants, Mapping):
            variants = [
                (label, _typed(overrides, f"variants.{label}", "object"))
                for label, overrides in raw_variants.items()
            ]
        else:
            variants = []
            for index, entry in enumerate(raw_variants):
                path = f"variants[{index}]"
                _typed(entry, path, "object")
                label = _field(entry, "label", path, "string")
                overrides = _field(entry, "overrides", path, "object", default={})
                variants.append((label, overrides))
        seeds = _field(payload, "seeds", "", "array", default=[0])
        sim_kwargs = _field(payload, "sim_kwargs", "", "object", default={})
        return cls(
            name=_field(payload, "name", "", "string"),
            workloads=tuple(workloads),
            policies=tuple(policies),
            accesses=_field(payload, "accesses", "", "integer"),
            variants=tuple(
                (label, _as_override_tuple(overrides)) for label, overrides in variants
            ),
            seeds=tuple(
                _typed(seed, f"seeds[{index}]", "integer")
                for index, seed in enumerate(seeds)
            ),
            include_alone=_field(payload, "include_alone", "", "boolean", default=True),
            alone_policy=_field(
                payload, "alone_policy", "", "string", default="demand-first"
            ),
            sim_kwargs=tuple(sorted(sim_kwargs.items())),
        )


# -- expansion ----------------------------------------------------------------


@dataclass(frozen=True)
class CampaignJob:
    """One grid cell of a campaign: a SimJob plus its coordinates."""

    kind: str  # "grid" | "alone"
    workload_index: int
    benchmarks: Tuple[str, ...]
    policy: str  # the policy *label*
    variant: str
    seed: int  # the actual simulation seed
    seed_offset: int
    position: int  # benchmark slot for alone jobs, -1 for grid jobs
    job: SimJob = field(compare=False)

    @cached_property
    def key(self) -> str:
        """The job's content hash, computed on first use and then kept.

        A :class:`~repro.campaign.executor.Campaign` handle keeps its
        expansion, so every reader of one handle shares one hash per
        job; a new handle expands afresh and re-reads trace digests.
        """
        return self.job.key()

    def describe(self) -> str:
        names = "+".join(self.benchmarks)
        return f"{self.kind}:{names} policy={self.policy} variant={self.variant} seed={self.seed}"


def expand(spec: CampaignSpec) -> List[CampaignJob]:
    """Deterministically expand a spec into its full job list.

    The order is fixed (workload → seed → variant → policy, then the
    workload's alone runs), so two expansions of equal specs agree on
    both membership and sequence.  Duplicate simulations (e.g. the same
    alone run reached from two grid cells) keep every instance here;
    :func:`unique_jobs` collapses them to first occurrence by content key.
    """
    sim_kwargs = dict(spec.sim_kwargs)
    jobs: List[CampaignJob] = []
    for workload_index, workload in enumerate(spec.workloads):
        cores = len(workload.benchmarks)
        for seed_offset in spec.seeds:
            run_seed = workload.seed + seed_offset
            for variant_label, variant_overrides in spec.variants:
                for policy in spec.policies:
                    overrides = dict(variant_overrides)
                    overrides.update(dict(policy.overrides))
                    config = baseline_config(cores, policy=policy.policy, **overrides)
                    jobs.append(
                        CampaignJob(
                            kind="grid",
                            workload_index=workload_index,
                            benchmarks=workload.benchmarks,
                            policy=policy.label,
                            variant=variant_label,
                            seed=run_seed,
                            seed_offset=seed_offset,
                            position=-1,
                            job=SimJob.make(
                                config,
                                workload.benchmarks,
                                spec.accesses,
                                seed=run_seed,
                                **sim_kwargs,
                            ),
                        )
                    )
            if spec.include_alone:
                alone_config = baseline_config(1, policy=spec.alone_policy)
                for position, benchmark in enumerate(workload.benchmarks):
                    jobs.append(
                        CampaignJob(
                            kind="alone",
                            workload_index=workload_index,
                            benchmarks=(benchmark,),
                            policy=spec.alone_policy,
                            variant="base",
                            seed=run_seed + position,
                            seed_offset=seed_offset,
                            position=position,
                            job=SimJob.make(
                                alone_config,
                                (benchmark,),
                                spec.accesses,
                                seed=run_seed + position,
                            ),
                        )
                    )
    return jobs


def unique_jobs(jobs: Sequence[CampaignJob]) -> List[CampaignJob]:
    """First instance per content key, preserving expansion order."""
    seen = set()
    unique: List[CampaignJob] = []
    for job in jobs:
        key = job.key
        if key not in seen:
            seen.add(key)
            unique.append(job)
    return unique
