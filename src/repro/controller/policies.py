"""Rigid DRAM scheduling policies (paper §1, §3).

All policies are variants of FR-FCFS [27].  A policy exposes the same
priority order two ways:

* :meth:`SchedulingPolicy.priority` — the *reference* form: a comparison
  tuple rebuilt from scratch on every call.  Tuples compare element-wise,
  larger wins, and every tuple ends with ``(-arrival, -seq)`` so that
  ties fall back to oldest-first (FCFS) and then to admission order.
* :meth:`SchedulingPolicy.priority_key` — the *packed* form: the same
  order collapsed into one integer (see :mod:`repro.controller.cost` for
  the bit layout).  The engine caches each request's packed key for both
  row-buffer outcomes and recomputes it only when :attr:`epoch` moves or
  the request is promoted (DESIGN.md §10).  A ranking policy's core rank
  moves almost every round, so it stays out of the cached key: the
  policy publishes :attr:`SchedulingPolicy.rank_add`, which the round
  adds when it compares.

The two forms are totally ordered identically — the golden-equivalence
tests and a hypothesis property pin the packed key (plus ``rank_add``)
to ``priority`` policy by policy.

* ``demand-first`` — demands over prefetches, then row-hit, then FCFS.
  This is the paper's baseline.
* ``demand-prefetch-equal`` (alias ``frfcfs``) — pure FR-FCFS: row-hit
  first, then FCFS, ignoring the P bit.
* ``prefetch-first`` — prefetches over demands (the worst-performing rigid
  policy, footnote 2).
* ``fcfs`` — strict oldest-first, ignoring even the row buffer (the
  pre-FR-FCFS baseline; useful as a lower bound in scheduler sweeps).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.controller.accuracy import PrefetchAccuracyTracker
from repro.controller.cost import FCFS_BITS
from repro.controller.request import MemRequest


class SchedulingPolicy:
    """Base class: maps a request to a comparable priority (tuple or int).

    ``epoch`` stamps the validity of every packed key cached on a request:
    a policy bumps it whenever *any* input to ``priority_key`` other than
    the request itself or the bank's open row changes (accuracy-interval
    boundaries, PAR-BS batch formation).  Per-request changes (promotion)
    instead invalidate that request's own cache.
    """

    name = "abstract"

    #: True for policies whose ``begin_tick`` does real work; the engine
    #: skips the call (one attribute load instead of a method call) for
    #: the rigid policies on the hot path.
    needs_begin_tick = False

    #: True when ``begin_tick``'s only input from the queues is the
    #: per-core count of queued demands/prefetches.  The engine then
    #: maintains those counts incrementally and calls
    #: :meth:`begin_tick_census` instead of handing over the queues —
    #: O(cores) per round instead of O(queued requests).  Policies that
    #: read more than the census (PAR-BS batch marking reads admission
    #: order) keep the queue scan.
    census_based = False

    def begin_tick_census(self, demand_counts, prefetch_counts) -> None:
        """Census form of :meth:`begin_tick` (see :attr:`census_based`)."""
        raise NotImplementedError

    #: ``priority_key(r, True) - priority_key(r, False)``: the row-hit
    #: bit sits at a fixed position in every key layout, so the hit
    #: variant is the miss variant plus a per-policy constant.  The
    #: engine computes one key per request and derives the other with a
    #: single add (DESIGN.md §10).
    hit_delta = 0

    #: Per-core offsets applied at selection time, or ``None``.  A
    #: ranking policy (APS Rule 2) keeps its per-round core rank out of
    #: ``priority_key`` and publishes it here, already shifted into the
    #: key's rank field; the fast round adds ``rank_add[core]`` to every
    #: key that carries the C bit, i.e. is at least :attr:`critical_bit`
    #: (C is the top flag).  Republishing it invalidates no cached key.
    rank_add: Optional[List[int]] = None

    #: The C flag's value in a packed key (used with :attr:`rank_add`).
    critical_bit = 0

    def __init__(self):
        self.epoch = 0

    def begin_tick(self, queues, now: int) -> None:
        """Hook called once per scheduling round (used by ranking)."""

    def notify_interval(self) -> None:
        """An accuracy interval ended; invalidate keys if the policy cares."""

    def priority(self, request: MemRequest, row_hit: bool) -> Tuple:
        raise NotImplementedError

    def priority_key(self, request: MemRequest, row_hit: bool) -> int:
        raise NotImplementedError


class FCFSPolicy(SchedulingPolicy):
    """Strict first-come-first-served: age decides, row buffer ignored."""

    name = "fcfs"

    def priority(self, request: MemRequest, row_hit: bool) -> Tuple:
        return (-request.arrival, -request.seq)

    def priority_key(self, request: MemRequest, row_hit: bool) -> int:
        return request.fcfs_key


class DemandFirstPolicy(SchedulingPolicy):
    """Prioritize demands over prefetches, then row-hits, then oldest."""

    name = "demand-first"
    hit_delta = 1 << FCFS_BITS

    def priority(self, request: MemRequest, row_hit: bool) -> Tuple:
        return (not request.is_prefetch, row_hit, -request.arrival, -request.seq)

    def priority_key(self, request: MemRequest, row_hit: bool) -> int:
        flags = ((not request.is_prefetch) << 1) | row_hit
        return (flags << FCFS_BITS) | request.fcfs_key


class DemandPrefetchEqualPolicy(SchedulingPolicy):
    """Pure FR-FCFS: row-hits first, then oldest, P bit ignored."""

    name = "demand-prefetch-equal"
    hit_delta = 1 << FCFS_BITS

    def priority(self, request: MemRequest, row_hit: bool) -> Tuple:
        return (row_hit, -request.arrival, -request.seq)

    def priority_key(self, request: MemRequest, row_hit: bool) -> int:
        return (row_hit << FCFS_BITS) | request.fcfs_key


class PrefetchFirstPolicy(SchedulingPolicy):
    """Prioritize prefetches over demands (for completeness, footnote 2)."""

    name = "prefetch-first"
    hit_delta = 1 << FCFS_BITS

    def priority(self, request: MemRequest, row_hit: bool) -> Tuple:
        return (request.is_prefetch, row_hit, -request.arrival, -request.seq)

    def priority_key(self, request: MemRequest, row_hit: bool) -> int:
        flags = (request.is_prefetch << 1) | row_hit
        return (flags << FCFS_BITS) | request.fcfs_key


def make_policy(
    name: str,
    tracker: Optional[PrefetchAccuracyTracker] = None,
    use_urgency: bool = True,
    use_ranking: bool = False,
    num_cores: int = 1,
) -> SchedulingPolicy:
    """Instantiate a scheduling policy by name.

    ``"aps"`` and ``"padc"`` both use Adaptive Prefetch Scheduling and
    require an accuracy ``tracker`` (APD is layered on separately by the
    engine for ``"padc"``).  ``"demand-first-apd"`` schedules demand-first
    but still runs the dropper (used by the §6.12 comparison).
    ``"no-pref"`` shares demand-first because with the prefetcher disabled
    every FR-FCFS variant behaves identically.
    """
    from repro.controller.aps import AdaptivePrefetchScheduler

    if name in ("demand-first", "no-pref", "demand-first-apd"):
        return DemandFirstPolicy()
    if name == "demand-prefetch-equal":
        return DemandPrefetchEqualPolicy()
    if name == "prefetch-first":
        return PrefetchFirstPolicy()
    if name == "fcfs":
        return FCFSPolicy()
    if name == "parbs":
        from repro.controller.batch import BatchScheduler

        return BatchScheduler(num_cores)
    if name in ("aps", "padc"):
        if tracker is None:
            raise ValueError(f"policy {name!r} requires an accuracy tracker")
        return AdaptivePrefetchScheduler(
            tracker, use_urgency=use_urgency, use_ranking=use_ranking
        )
    # Unknown or alias spelling: resolve through the shared policy table
    # so the error (did-you-mean included) matches every other surface;
    # aliases recurse with their canonical name and bundled knobs.
    from repro.params import resolve_policy

    entry = resolve_policy(name)
    knobs = dict(entry.padc)
    return make_policy(
        entry.policy,
        tracker=tracker,
        use_urgency=knobs.get("use_urgency", use_urgency),
        use_ranking=knobs.get("use_ranking", use_ranking),
        num_cores=num_cores,
    )
