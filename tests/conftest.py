"""Shared fixtures: the bundled troop matrix, small graph, ledger and class-score builders and a matrix lookup."""

from __future__ import annotations

import pytest

from troopnet import bundled
from troopnet.ingest import AssociationMatrix, ClassScores, LedgerEntry
from troopnet.network import network_report


@pytest.fixture(scope="session")
def troop_matrix():
    return bundled.load_troop_matrix()


@pytest.fixture(scope="session")
def troop_report(troop_matrix):
    return network_report(troop_matrix)


def matrix_from_dyads(names: list[str], dyads: dict[tuple[str, str], float]) -> AssociationMatrix:
    """Build an AssociationMatrix from a sparse {(a, b): weight} map."""
    index = {name: i for i, name in enumerate(names)}
    values = [[0.0] * len(names) for _ in names]
    for (a, b), w in dyads.items():
        values[index[a]][index[b]] = values[index[b]][index[a]] = w
    return AssociationMatrix(names=list(names), values=values)


def matrix_value(m: AssociationMatrix, a: str, b: str) -> float:
    """The association index of a and b, looked up through m.names."""
    return m.values[m.names.index(a)][m.names.index(b)]


def video_entry(video_id: str, present) -> LedgerEntry:
    """A video-level ledger entry: one joint record of the names present, none without names."""
    names = frozenset(present)
    return LedgerEntry(video_id=video_id, records=(names,) if names else ())


def pair_entry(video_id: str, pairs) -> LedgerEntry:
    """A proximal ledger entry: one joint record per pair, in sorted order."""
    records = tuple(map(frozenset, sorted({tuple(sorted(pair)) for pair in pairs})))
    return LedgerEntry(video_id=video_id, records=records)


def class_scores(score_maps, names=None) -> list:
    """A ClassScores for each {name: score} map of score_maps, None for None.

    All share one names tuple and positions map, as a parsed stream's do:
    names, or the first map's keys in order. Each map scores every name.
    """
    if names is None:
        names = next((tuple(m) for m in score_maps if m is not None), ())
    names = tuple(names)
    positions = {name: k for k, name in enumerate(names)}
    return [None if m is None else ClassScores(names, positions, [m[name] for name in names]) for m in score_maps]
