"""Hardware storage cost model of PADC (paper §4.4, Tables 1 and 2).

The cost is pure combinatorics over the machine shape:

* prefetch accuracy measurement: a P bit per cache line and per request
  buffer entry, plus 16-bit PSC, 16-bit PUC and 8-bit PAR per core;
* APS: a U bit per request buffer entry;
* APD: core ID (log2 N cores) and a 10-bit AGE field per entry;
* ranking (optional, §6.5): a log2(N)-bit RANK per entry plus a critical-
  request counter per core.

For the paper's 4-core system (512KB L2 per core → 8192 lines, 128-entry
request buffer) this yields 34,720 bits ≈ 4.25KB, and 1,824 bits if the
caches already implement prefetch bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

# -- packed priority-key layout (DESIGN.md §10) ---------------------------
#
# The scheduler caches each request's priority as ONE integer instead of
# re-building a comparison tuple every round, mirroring how the hardware
# comparator tree of Figure 18 concatenates the C/RH/U/RANK/AGE fields
# into a single priority word.  Every policy packs its flag bits above a
# shared FCFS word so that integer comparison reproduces tuple comparison
# exactly:
#
#     | policy flags (C, RH, U, RANK, ...) | 40-bit ~arrival | 28-bit ~seq |
#
# ``~x`` denotes the complement ``LIMIT - x`` — larger packed values win,
# so older requests (smaller arrival/seq) must encode higher.  The
# trailing sequence number is a tie-break the tuple path shares: it makes
# every key unique, which is what licenses the engine's order-scrambling
# swap-pop removal (selection no longer depends on queue order).
#
# Field widths are deliberately generous: 2**40 cycles is ~4.6 hours of
# simulated time at the model's 4 GHz clock and 2**28 admissions is two
# orders of magnitude above the largest campaign run to date.

ARRIVAL_BITS = 40
SEQ_BITS = 28
FCFS_BITS = ARRIVAL_BITS + SEQ_BITS
ARRIVAL_LIMIT = (1 << ARRIVAL_BITS) - 1
SEQ_LIMIT = (1 << SEQ_BITS) - 1

# Rank fields (APS Rule 2 / PAR-BS shortest-job-first) hold a negated
# outstanding-request count, biased to keep the packed field non-negative.
# Counts are bounded by the request buffer (<= 256 entries at 8 cores,
# and nobody configures anywhere near 32k), far below the bias; field
# value 0 is reserved as "below every real rank" (PAR-BS's unranked-core
# sentinel).  PAR-BS packs its rank into the cached key (it moves only
# at batch formation).  APS-rank's cached key holds only the bias, and
# the scheduling round adds ``-count << FCFS_BITS`` to critical keys when
# it compares, so the biased field never leaves [bias - 256, bias].
RANK_BITS = 16
RANK_BIAS = 1 << (RANK_BITS - 1)


def pack_fcfs(arrival: int, seq: int) -> int:
    """The shared low word: oldest-first, admission order as tie-break."""
    return ((ARRIVAL_LIMIT - arrival) << SEQ_BITS) | (SEQ_LIMIT - seq)


def key_layout_summary() -> Dict[str, int]:
    """Bit budget of the packed priority key (for docs and the bench CLI)."""
    return {
        "arrival_bits": ARRIVAL_BITS,
        "seq_bits": SEQ_BITS,
        "rank_bits": RANK_BITS,
        "fcfs_bits": FCFS_BITS,
        "max_flag_bits": 3 + RANK_BITS,  # parbs: M, D, RH + rank field
        "total_bits_worst_case": FCFS_BITS + 3 + RANK_BITS,
    }


@dataclass(frozen=True)
class StorageCost:
    """Bit-level breakdown of the PADC storage requirements."""

    prefetch_bits: int
    psc_bits: int
    puc_bits: int
    par_bits: int
    urgent_bits: int
    core_id_bits: int
    age_bits: int
    rank_bits: int = 0
    rank_counter_bits: int = 0

    @property
    def total_bits(self) -> int:
        return (
            self.prefetch_bits
            + self.psc_bits
            + self.puc_bits
            + self.par_bits
            + self.urgent_bits
            + self.core_id_bits
            + self.age_bits
            + self.rank_bits
            + self.rank_counter_bits
        )

    @property
    def total_bits_without_p_bits(self) -> int:
        """Cost when the processor already employs prefetch bits.

        Footnote 8: many designs already carry a P bit per cache line and
        request buffer entry, in which case the whole P row is free and
        only 1,824 bits remain on the 4-core baseline (Table 2).
        """
        return self.total_bits - self.prefetch_bits

    def as_dict(self) -> Dict[str, int]:
        return {
            "P": self.prefetch_bits,
            "PSC": self.psc_bits,
            "PUC": self.puc_bits,
            "PAR": self.par_bits,
            "U": self.urgent_bits,
            "ID": self.core_id_bits,
            "AGE": self.age_bits,
            "RANK": self.rank_bits,
            "RANK_CTR": self.rank_counter_bits,
            "total": self.total_bits,
        }


def padc_storage_cost(
    num_cores: int = 4,
    cache_lines_per_core: int = 8192,
    request_buffer_entries: int = 128,
    with_ranking: bool = False,
    psc_bits: int = 16,
    puc_bits: int = 16,
    par_bits: int = 8,
    age_bits: int = 10,
) -> StorageCost:
    """Compute PADC's storage cost in bits (paper Table 1 formulas)."""
    if num_cores < 1:
        raise ValueError("num_cores must be >= 1")
    core_id_width = max(1, math.ceil(math.log2(num_cores))) if num_cores > 1 else 1
    return StorageCost(
        prefetch_bits=cache_lines_per_core * num_cores + request_buffer_entries,
        psc_bits=num_cores * psc_bits,
        puc_bits=num_cores * puc_bits,
        par_bits=num_cores * par_bits,
        urgent_bits=request_buffer_entries,
        core_id_bits=request_buffer_entries * core_id_width,
        age_bits=request_buffer_entries * age_bits,
        rank_bits=request_buffer_entries * core_id_width if with_ranking else 0,
        rank_counter_bits=num_cores * 16 if with_ranking else 0,
    )


def cost_as_fraction_of_l2(cost: StorageCost, l2_bytes_total: int) -> float:
    """Storage cost as a fraction of total L2 data capacity (Table 2)."""
    return cost.total_bits / (l2_bytes_total * 8)
