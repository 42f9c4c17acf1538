"""Tests for occurrence counting and the simple-ratio index."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from troopnet.association import (
    OccurrenceCounts,
    count_occurrences,
    simple_ratio_matrix,
    unobserved_individuals,
)
from troopnet.ingest import OccurrenceLedger, write_matrix
from troopnet.rng import Rng

from conftest import matrix_value, pair_entry, video_entry


def _ledger(*videos):
    entries = [video_entry(f"v{k}", present) for k, present in enumerate(videos)]
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


def test_matrix_row_order_follows_names():
    counts = count_occurrences(_ledger({"A", "B"}, {"B"}))
    m = simple_ratio_matrix(counts, ["B", "A"])
    assert m.names == ["B", "A"]
    assert m.values[0][1] == matrix_value(m, "A", "B") == 0.5


def test_pair_ledger_counting():
    entries = [
        pair_entry("v1", {("A", "B"), ("B", "C")}),
        pair_entry("v2", {("A", "B")}),
        pair_entry("v3", set()),
    ]
    counts = count_occurrences(OccurrenceLedger(entries=entries))
    assert counts.per_pair == {("A", "B"): 2, ("B", "C"): 1}
    # presence means taking part in at least one joint record of the video
    assert counts.per_individual == {"A": 2, "B": 2, "C": 1}
    m = simple_ratio_matrix(counts, ["A", "B", "C"])
    assert matrix_value(m, "A", "B") == 1.0
    # B in two videos, C in one, together in one: 1 / (2 + 1 - 1)
    assert matrix_value(m, "B", "C") == 0.5


def _two_branch_counts(videos, proximal: bool) -> OccurrenceCounts:
    """count_occurrences as it was with a ledger type per mode: videos holds
    each video's present names (video-level) or its sorted pairs (proximal)."""
    per_individual: dict[str, int] = {}
    per_pair: dict[tuple[str, str], int] = {}
    if proximal:
        for pairs in videos:
            names = set()
            for pair in pairs:
                names.update(pair)
                per_pair[pair] = per_pair.get(pair, 0) + 1
            for name in names:
                per_individual[name] = per_individual.get(name, 0) + 1
    else:
        for present in videos:
            names = sorted(present)
            for name in names:
                per_individual[name] = per_individual.get(name, 0) + 1
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    per_pair[(a, b)] = per_pair.get((a, b), 0) + 1
    return OccurrenceCounts(per_individual=per_individual, per_pair=per_pair)


_NAMES = ["A", "B", "C", "Dee", "Zo\u00eb"]
_PRESENT = st.frozensets(st.sampled_from(_NAMES))
_PAIRS = st.frozensets(st.lists(st.sampled_from(_NAMES), min_size=2, max_size=2, unique=True).map(sorted).map(tuple))


@given(st.lists(_PRESENT, max_size=12), st.lists(_PAIRS, max_size=12))
@settings(max_examples=200, deadline=None)
def test_counts_and_ratios_equal_the_two_branch_oracle(presences, pair_sets):
    for videos, entry, proximal in ((presences, video_entry, False), (pair_sets, pair_entry, True)):
        got = count_occurrences(OccurrenceLedger([entry(f"v{k}", v) for k, v in enumerate(videos)]))
        want = _two_branch_counts(videos, proximal)
        assert got == want
        got_matrix, want_matrix = (simple_ratio_matrix(c, _NAMES) for c in (got, want))
        assert write_matrix(got_matrix) == write_matrix(want_matrix)


def test_video_duplication_leaves_ratios_unchanged():
    videos = [{"A", "B"}, {"A"}, {"B", "C"}, {"C"}]
    once = simple_ratio_matrix(count_occurrences(_ledger(*videos)), ["A", "B", "C"])
    thrice = simple_ratio_matrix(count_occurrences(_ledger(*(videos * 3))), ["A", "B", "C"])
    assert once.values == thrice.values


def _random_ledger(seed, max_videos=20, max_individuals=10):
    rng = Rng(seed)
    names = [f"n{k:02d}" for k in range(2 + rng.randrange(max_individuals - 1))]
    entries = []
    for v in range(1 + rng.randrange(max_videos)):
        present = frozenset(nm for nm in names if rng.random() < 0.4)
        entries.append(video_entry(f"v{v:03d}", present))
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
    # the [0, 1] range; spot-check the invariants anyway, and the row lists
    assert all(type(v) is float for row in m.values for v in row)
    assert m.values == [list(col) for col in zip(*m.values)]
    assert all(row[i] == 0.0 for i, row in enumerate(m.values))
    assert all(0.0 <= v <= 1.0 for row in m.values for v in row)


def test_empty_ledger_gives_zero_matrix():
    counts = count_occurrences(OccurrenceLedger(entries=[]))
    m = simple_ratio_matrix(counts, ["A", "B"])
    assert m.values == [[0.0, 0.0], [0.0, 0.0]]
    assert unobserved_individuals(counts, ["A", "B"]) == ["A", "B"]
