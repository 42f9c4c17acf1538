"""Simple-ratio association indices from occurrence ledgers.

The sampling unit is the video. For individuals i and j with N_i and N_j
videos of presence and x_ij videos of joint presence, the simple ratio is

    x_ij / (N_i + N_j - x_ij)

the fraction of videos featuring either individual in which both appear.
Both association modes count from the same ledger: a video's joint
records decide who was seen in it and who was seen together.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import AssociationMatrix, OccurrenceLedger

__all__ = ["OccurrenceCounts", "count_occurrences", "simple_ratio_matrix", "unobserved_individuals"]


@dataclass
class OccurrenceCounts:
    """Presence counts per individual and joint counts per unordered pair.

    count_occurrences builds it from LedgerEntry.pairs, so each pair key is
    a sorted pair of distinct names, counted at most as often as either.
    """

    per_individual: dict[str, int]
    per_pair: dict[tuple[str, str], int]


def count_occurrences(ledger: OccurrenceLedger) -> OccurrenceCounts:
    """Count presences and joint presences over a ledger.

    In each video an individual counts once when some joint record names
    it, and a pair counts once when some record names both: the whole
    video's record in video-level mode, a proximal pair's in proximal mode.
    """
    per_individual: dict[str, int] = {}
    per_pair: dict[tuple[str, str], int] = {}
    for entry in ledger.entries:
        for name in entry.present:
            per_individual[name] = per_individual.get(name, 0) + 1
        for pair in entry.pairs:
            per_pair[pair] = per_pair.get(pair, 0) + 1
    return OccurrenceCounts(per_individual=per_individual, per_pair=per_pair)


def simple_ratio_matrix(counts: OccurrenceCounts, names: list[str]) -> AssociationMatrix:
    """Build the simple-ratio association matrix over the given name order.

    names holds every counted individual: the roster's names, which every
    ledger name has passed, or the sorted counted names. Names without
    counts get zero rows. Dyads whose denominator is zero (neither
    individual ever seen) are 0 by convention; unobserved_individuals
    distinguishes them from true zero association.
    """
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    values = [[0.0] * n for _ in range(n)]
    for (a, b), x in counts.per_pair.items():
        denom = counts.per_individual[a] + counts.per_individual[b] - x
        if denom <= 0:
            continue
        i, j = index[a], index[b]
        values[i][j] = values[j][i] = x / denom
    return AssociationMatrix(names=list(names), values=values)


def unobserved_individuals(counts: OccurrenceCounts, names: list[str]) -> list[str]:
    """Names never seen in any video; their zero dyads are unobserved, not
    measured absences."""
    return [name for name in names if counts.per_individual.get(name, 0) == 0]
