"""Tests for occurrence counting and the simple-ratio index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from troopnet.association import (
    OccurrenceCounts,
    count_occurrences,
    simple_ratio_matrix,
    unobserved_individuals,
)
from troopnet.ingest import LedgerEntry, OccurrenceLedger, PairEntry, PairLedger
from troopnet.rng import Rng

from conftest import matrix_value


def _ledger(*videos):
    entries = [LedgerEntry(f"v{k}", frozenset(present)) for k, present in enumerate(videos)]
    return OccurrenceLedger(entries=entries)


def test_count_occurrences_hand_case():
    ledger = _ledger({"A", "B"}, {"A"}, {"B", "C"}, {"A", "B", "C"})
    counts = count_occurrences(ledger)
    assert counts.per_individual == {"A": 3, "B": 3, "C": 2}
    assert counts.per_pair == {("A", "B"): 2, ("A", "C"): 1, ("B", "C"): 2}


def test_simple_ratio_worked_example():
    # A in 5 videos, B in 4, together in 2: 2 / (5 + 4 - 2) = 2/7
    videos = [{"A", "B"}] * 2 + [{"A"}] * 3 + [{"B"}] * 2
    counts = count_occurrences(_ledger(*videos))
    m = simple_ratio_matrix(counts, ["A", "B"])
    assert matrix_value(m, "A", "B") == pytest.approx(2.0 / 7.0, abs=1e-9)
    assert abs(matrix_value(m, "A", "B") - 0.285714) < 1e-6


def test_simple_ratio_one_iff_always_together():
    counts = count_occurrences(_ledger({"A", "B"}, {"A", "B"}, {"C"}))
    m = simple_ratio_matrix(counts, ["A", "B", "C"])
    assert matrix_value(m, "A", "B") == 1.0
    assert matrix_value(m, "A", "C") == 0.0
    counts2 = count_occurrences(_ledger({"A", "B"}, {"A", "B"}, {"A"}))
    m2 = simple_ratio_matrix(counts2, ["A", "B"])
    assert matrix_value(m2, "A", "B") < 1.0


def test_simple_ratio_unseen_names_get_zero_rows():
    counts = count_occurrences(_ledger({"A", "B"}))
    m = simple_ratio_matrix(counts, ["A", "B", "Ghost"])
    assert matrix_value(m, "A", "Ghost") == 0.0
    assert matrix_value(m, "B", "Ghost") == 0.0
    assert unobserved_individuals(counts, ["A", "B", "Ghost"]) == ["Ghost"]


def test_simple_ratio_rejects_name_not_in_order():
    counts = count_occurrences(_ledger({"A", "B"}))
    with pytest.raises(ValueError, match="name order"):
        simple_ratio_matrix(counts, ["A"])


def test_matrix_row_order_follows_names():
    counts = count_occurrences(_ledger({"A", "B"}, {"B"}))
    m = simple_ratio_matrix(counts, ["B", "A"])
    assert m.names == ["B", "A"]
    assert m.values[0, 1] == matrix_value(m, "A", "B") == 0.5


def test_occurrence_counts_validation():
    with pytest.raises(ValueError, match="sorted"):
        OccurrenceCounts({"A": 1, "B": 1}, {("B", "A"): 1})
    with pytest.raises(ValueError, match="exceeds"):
        OccurrenceCounts({"A": 1, "B": 5}, {("A", "B"): 2})
    with pytest.raises(ValueError, match="non-negative"):
        OccurrenceCounts({"A": -1}, {})


def test_pair_ledger_counting():
    entries = [
        PairEntry("v1", frozenset({("A", "B"), ("B", "C")})),
        PairEntry("v2", frozenset({("A", "B")})),
        PairEntry("v3", frozenset()),
    ]
    counts = count_occurrences(PairLedger(entries=entries))
    assert counts.per_pair == {("A", "B"): 2, ("B", "C"): 1}
    # presence means taking part in at least one joint record of the video
    assert counts.per_individual == {"A": 2, "B": 2, "C": 1}
    m = simple_ratio_matrix(counts, ["A", "B", "C"])
    assert matrix_value(m, "A", "B") == 1.0
    # B in two videos, C in one, together in one: 1 / (2 + 1 - 1)
    assert matrix_value(m, "B", "C") == 0.5


def test_video_duplication_leaves_ratios_unchanged():
    videos = [{"A", "B"}, {"A"}, {"B", "C"}, {"C"}]
    once = simple_ratio_matrix(count_occurrences(_ledger(*videos)), ["A", "B", "C"])
    thrice = simple_ratio_matrix(count_occurrences(_ledger(*(videos * 3))), ["A", "B", "C"])
    assert np.array_equal(once.values, thrice.values)


def _random_ledger(seed, max_videos=20, max_individuals=10):
    rng = Rng(seed)
    names = [f"n{k:02d}" for k in range(2 + rng.randrange(max_individuals - 1))]
    entries = []
    for v in range(1 + rng.randrange(max_videos)):
        present = frozenset(nm for nm in names if rng.random() < 0.4)
        entries.append(LedgerEntry(f"v{v:03d}", present))
    return OccurrenceLedger(entries=entries), names


def _double_loop_ratio(ledger, a, b):
    """Simple ratio recounted directly from the video list."""
    n_a = sum(1 for e in ledger.entries if a in e.present)
    n_b = sum(1 for e in ledger.entries if b in e.present)
    x = sum(1 for e in ledger.entries if a in e.present and b in e.present)
    denom = n_a + n_b - x
    return x / denom if denom > 0 else 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_matrix_matches_double_loop_recount(seed):
    ledger, names = _random_ledger(seed)
    m = simple_ratio_matrix(count_occurrences(ledger), names)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert matrix_value(m, a, b) == _double_loop_ratio(ledger, a, b)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_matrix_is_valid_association_matrix(seed):
    ledger, names = _random_ledger(seed)
    m = simple_ratio_matrix(count_occurrences(ledger), names)
    # the AssociationMatrix constructor enforces symmetry, zero diagonal and
    # the [0, 1] range; spot-check the invariants anyway
    assert np.array_equal(m.values, m.values.T)
    assert np.all(np.diag(m.values) == 0.0)
    assert np.all(m.values >= 0.0)
    assert np.all(m.values <= 1.0)


def test_empty_ledger_gives_zero_matrix():
    counts = count_occurrences(OccurrenceLedger(entries=[]))
    m = simple_ratio_matrix(counts, ["A", "B"])
    assert np.all(m.values == 0.0)
    assert unobserved_individuals(counts, ["A", "B"]) == ["A", "B"]
