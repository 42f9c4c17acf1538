"""Tests for detection and identification metrics."""

from __future__ import annotations

import dataclasses
import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from troopnet import evaluation
from troopnet.evaluation import IdSample, confusion_matrix, pooled_detection_metrics, topk_accuracy
from troopnet.geometry import BBox, iou
from troopnet.ingest import Detection, Individual, Roster
from troopnet.rng import Rng, derive_seed
from troopnet.tracking import Track, TrackerParams, fuse_identity

from conftest import class_scores


def _det(x, y, w, h, score):
    return Detection(frame_index=0, bbox=BBox(x, y, w, h), score=score)


G1 = BBox(0.0, 0.0, 10.0, 10.0)
G2 = BBox(100.0, 0.0, 10.0, 10.0)


# ---------------------------------------------------------------------------
# matching


class MatchPair(NamedTuple):
    prediction_index: int
    gt_index: int
    iou: float


class MatchResult(NamedTuple):
    pairs: list[MatchPair]
    unmatched_predictions: list[int]
    unmatched_gts: list[int]


def match_detections(preds, gts, iou_threshold) -> MatchResult:
    """The one greedy pass, evaluation._greedy, read off as its matched pairs
    in score order and the unmatched predictions and ground truths in index
    order."""
    steps = list(evaluation._greedy(preds, gts, iou_threshold))
    pairs = [MatchPair(i, j, iou(preds[i].bbox, gts[j])) for i, j in steps if j >= 0]
    matched = {p.gt_index for p in pairs}
    return MatchResult(
        pairs=pairs,
        unmatched_predictions=sorted(i for i, j in steps if j < 0),
        unmatched_gts=[j for j in range(len(gts)) if j not in matched],
    )


def false_negative_rate(preds, gts, iou_threshold, score_threshold=0.5) -> float:
    """Reference FNR of one frame: the ground truths left unmatched by
    matching only the predictions kept at the score threshold; 0.0 without
    ground truths."""
    if not gts:
        return 0.0
    kept = [p for p in preds if p.score >= score_threshold]
    return len(match_detections(kept, gts, iou_threshold).unmatched_gts) / len(gts)


def test_match_single_perfect_pair():
    result = match_detections([_det(0.0, 0.0, 10.0, 10.0, 0.9)], [G1], 0.5)
    assert len(result.pairs) == 1
    assert result.pairs[0].prediction_index == 0
    assert result.pairs[0].gt_index == 0
    assert result.pairs[0].iou == 1.0
    assert result.unmatched_predictions == []
    assert result.unmatched_gts == []


def test_match_at_threshold_counts():
    # boxes (0,0,2,2) and (1,1,2,2) overlap with IoU exactly 1/7
    pred = _det(1.0, 1.0, 2.0, 2.0, 0.9)
    gt = BBox(0.0, 0.0, 2.0, 2.0)
    assert match_detections([pred], [gt], 1.0 / 7.0).pairs
    assert not match_detections([pred], [gt], 1.0 / 7.0 + 1e-12).pairs


def test_match_higher_score_claims_first():
    overlap_low = _det(2.0, 0.0, 10.0, 10.0, 0.3)  # IoU 2/3 with G1
    overlap_high = _det(4.0, 0.0, 10.0, 10.0, 0.9)  # IoU 3/7 with G1
    result = match_detections([overlap_low, overlap_high], [G1], 0.25)
    assert [(p.prediction_index, p.gt_index) for p in result.pairs] == [(1, 0)]
    assert result.unmatched_predictions == [0]


def test_match_iou_tie_takes_lower_gt_index():
    result = match_detections([_det(0.0, 0.0, 10.0, 10.0, 0.9)], [G1, G1], 0.5)
    assert result.pairs[0].gt_index == 0
    assert result.unmatched_gts == [1]


def test_match_unmatched_lists_sorted():
    far = BBox(500.0, 500.0, 5.0, 5.0)
    result = match_detections(
        [_det(300.0, 300.0, 5.0, 5.0, 0.2), _det(400.0, 300.0, 5.0, 5.0, 0.9)],
        [far],
        0.5,
    )
    assert result.unmatched_predictions == [0, 1]
    assert result.unmatched_gts == [0]


def test_match_rejects_bad_threshold():
    for value in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"iou_threshold must be in \(0, 1\]"):
            pooled_detection_metrics([], value)


# ---------------------------------------------------------------------------
# PR curve and average precision


def _two_gt_instance():
    preds = [
        _det(0.0, 0.0, 10.0, 10.0, 0.9),  # hits G1
        _det(300.0, 300.0, 10.0, 10.0, 0.8),  # hits nothing
        _det(100.0, 0.0, 10.0, 10.0, 0.7),  # hits G2
    ]
    return preds, [G1, G2]


def _ap(preds, gts, iou_threshold):
    return pooled_detection_metrics([(preds, gts)], iou_threshold)["average_precision"]


def _fnr(preds, gts, iou_threshold, score_threshold=0.5):
    return pooled_detection_metrics([(preds, gts)], iou_threshold, score_threshold)["false_negative_rate"]


def test_average_precision_hand_case_101point():
    preds, gts = _two_gt_instance()
    ap = _ap(preds, gts, 0.5)
    assert ap == pytest.approx(253.0 / 303.0, abs=1e-9)


def test_average_precision_perfect_run():
    preds = [_det(0.0, 0.0, 10.0, 10.0, 0.9), _det(100.0, 0.0, 10.0, 10.0, 0.8)]
    assert _ap(preds, [G1, G2], 0.5) == pytest.approx(1.0, abs=1e-12)


def test_average_precision_empty_rules():
    assert _ap([], [], 0.5) == 1.0
    assert _ap([_det(0.0, 0.0, 5.0, 5.0, 0.9)], [], 0.5) == 0.0
    assert _ap([], [G1], 0.5) == 0.0


def _random_instance(seed, max_boxes=12):
    """Seeded detection instance with effectively unique scores."""
    rng = Rng(seed)

    def uniform(lo, hi):
        return lo + (hi - lo) * rng.random()

    gts = [
        BBox(uniform(0.0, 400.0), uniform(0.0, 400.0),
             20.0 + uniform(0.0, 60.0), 20.0 + uniform(0.0, 60.0))
        for _ in range(rng.randrange(max_boxes + 1))
    ]
    preds = []
    for _ in range(rng.randrange(max_boxes + 1)):
        if gts and rng.random() < 0.6:
            base = gts[rng.randrange(len(gts))]
            box = BBox(
                base.x + uniform(-15.0, 15.0),
                base.y + uniform(-15.0, 15.0),
                base.w * (0.8 + uniform(0.0, 0.4)),
                base.h * (0.8 + uniform(0.0, 0.4)),
            )
        else:
            box = BBox(uniform(0.0, 400.0), uniform(0.0, 400.0),
                       20.0 + uniform(0.0, 60.0), 20.0 + uniform(0.0, 60.0))
        preds.append(Detection(frame_index=0, bbox=box, score=uniform(0.05, 1.0)))
    return preds, gts


def _oracle_ap_101(preds, gts, iou_threshold):
    """101-point AP by literally rematching at every distinct score threshold."""
    if not gts:
        return 1.0 if not preds else 0.0
    if not preds:
        return 0.0
    points = []
    for threshold in sorted({p.score for p in preds}, reverse=True):
        kept = [p for p in preds if p.score >= threshold]
        kept.sort(key=lambda p: -p.score)
        taken = [False] * len(gts)
        matched = 0
        for p in kept:
            best, best_j = 0.0, -1
            for j, gt in enumerate(gts):
                overlap = iou(p.bbox, gt)
                if not taken[j] and overlap >= iou_threshold and overlap > best:
                    best, best_j = overlap, j
            if best_j >= 0:
                taken[best_j] = True
                matched += 1
        points.append((matched / len(gts), matched / len(kept)))
    total = 0.0
    for i in range(101):
        r = i / 100.0
        best = 0.0
        for recall, precision in points:
            if recall >= r and precision > best:
                best = precision
        total += best
    return total / 101.0


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_ap_equals_exhaustive_threshold_oracle(seed):
    preds, gts = _random_instance(seed)
    assert _ap(preds, gts, 0.5) == pytest.approx(
        _oracle_ap_101(preds, gts, 0.5), abs=1e-9
    )


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_ap_and_fnr_invariant_under_permutation(seed):
    preds, gts = _random_instance(seed)
    assume(preds and gts)
    rng = Rng(derive_seed(seed, "perm"))
    preds2 = [preds[i] for i in rng.permutation(len(preds))]
    gts2 = [gts[i] for i in rng.permutation(len(gts))]
    assert _ap(preds2, gts2, 0.5) == _ap(preds, gts, 0.5)
    assert _fnr(preds2, gts2, 0.5) == _fnr(preds, gts, 0.5)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_breaking_a_match_never_raises_ap(seed):
    preds, gts = _random_instance(seed)
    assume(preds and gts)
    result = match_detections(preds, gts, 0.5)
    assume(result.pairs)
    before = _ap(preds, gts, 0.5)
    k = result.pairs[0].prediction_index
    moved = list(preds)
    moved[k] = Detection(frame_index=0, bbox=BBox(10_000.0, 10_000.0, 5.0, 5.0), score=preds[k].score)
    assert _ap(moved, gts, 0.5) <= before + 1e-12


# ---------------------------------------------------------------------------
# false negative rate


def test_fnr_zero_when_all_found():
    preds = [_det(0.0, 0.0, 10.0, 10.0, 0.9), _det(100.0, 0.0, 10.0, 10.0, 0.8)]
    assert _fnr(preds, [G1, G2], 0.5) == 0.0


def test_fnr_counts_misses():
    preds = [
        _det(0.0, 0.0, 10.0, 10.0, 0.9),
        _det(100.0, 0.0, 10.0, 10.0, 0.9),
        _det(200.0, 0.0, 10.0, 10.0, 0.9),
        _det(300.0, 0.0, 10.0, 10.0, 0.9),
    ]
    gts = [G1, G2, BBox(200.0, 0.0, 10.0, 10.0), BBox(300.0, 0.0, 10.0, 10.0),
           BBox(400.0, 0.0, 10.0, 10.0)]
    assert _fnr(preds, gts, 0.5) == pytest.approx(0.2)


def test_fnr_score_threshold_drops_predictions():
    preds = [_det(0.0, 0.0, 10.0, 10.0, 0.4)]
    assert _fnr(preds, [G1], 0.5, score_threshold=0.5) == 1.0
    assert _fnr(preds, [G1], 0.5, score_threshold=0.3) == 0.0


def test_fnr_empty_rules():
    assert _fnr([], [], 0.5) == 0.0
    assert _fnr([_det(0.0, 0.0, 5.0, 5.0, 0.9)], [], 0.5) == 0.0
    assert _fnr([], [G1], 0.5) == 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_score_threshold_must_be_finite(value):
    preds = [_det(0.0, 0.0, 10.0, 10.0, 0.9)]
    with pytest.raises(ValueError, match="score_threshold must be finite"):
        pooled_detection_metrics([(preds, [G1])], score_threshold=value)


# ---------------------------------------------------------------------------
# top-k accuracy


def test_topk_hand_case_with_tie():
    samples = [IdSample({"A": 0.3, "B": 0.3, "C": 0.4}, "B")]
    # rank order is C, then B (ties rank the later name first), then A
    assert topk_accuracy(samples, 1) == 0.0
    assert topk_accuracy(samples, 2) == 1.0


def test_topk_counts_fraction():
    samples = [
        IdSample({"A": 0.9, "B": 0.1}, "A"),
        IdSample({"A": 0.9, "B": 0.1}, "B"),
    ]
    assert topk_accuracy(samples, 1) == 0.5
    assert topk_accuracy(samples, 2) == 1.0


def test_topk_monotone_in_k():
    rng = Rng(7)
    names = ["A", "B", "C", "D", "E"]
    samples = []
    for _ in range(40):
        scores = {nm: rng.random() for nm in names}
        samples.append(IdSample(scores, names[rng.randrange(len(names))]))
    values = [topk_accuracy(samples, k) for k in range(1, 6)]
    assert values == sorted(values)
    assert values[-1] == 1.0


def test_topk_errors():
    # a sample topk cannot rank is refused as it is built
    with pytest.raises(ValueError, match="empty"):
        topk_accuracy([IdSample({}, "A")], 1)
    with pytest.raises(ValueError, match="true_label 'A' has no class score"):
        topk_accuracy([IdSample({"B": 1.0}, "A")], 1)


def test_a_sample_keeps_its_outcome_not_its_scores():
    sample = IdSample({"A": 0.2, "B": 0.8, "C": 0.5}, "A")
    assert IdSample.__slots__ == ("true_label", "rank", "predicted")
    assert [f.name for f in dataclasses.fields(IdSample)] == ["true_label", "rank", "predicted"]
    assert (sample.true_label, sample.rank, sample.predicted) == ("A", 2, "B")
    assert not hasattr(sample, "class_scores")
    # the outcome is the sample's content: equal outcomes are equal samples
    assert sample == IdSample({"C": 0.75, "B": 1.0, "A": 0.0}, "A")
    assert sample != IdSample({"A": 0.2, "B": 0.8, "C": 0.1}, "A")
    assert sample != IdSample({"A": 0.2, "B": 0.8, "C": 0.9}, "A")


# ---------------------------------------------------------------------------
# confusion matrix


ROSTER3 = Roster([Individual("A"), Individual("B"), Individual("C")])


def test_confusion_hand_case():
    samples = [IdSample({"A": 0.9, "B": 0.1}, "A")] * 3 + [IdSample({"A": 0.2, "B": 0.8}, "A")]
    m = confusion_matrix(samples, ROSTER3)
    assert m[0] == [0.75, 0.25, 0.0]
    assert m[1] == [0.0, 0.0, 0.0]


def test_confusion_rows_sum_to_one():
    rng = Rng(11)
    names = ROSTER3.names
    samples = []
    for _ in range(200):
        scores = {nm: rng.random() for nm in names}
        samples.append(IdSample(scores, names[rng.randrange(3)]))
    m = confusion_matrix(samples, ROSTER3)
    for r in range(3):
        assert abs(sum(m[r]) - 1.0) <= 1e-12


def test_confusion_argmax_tie_takes_later_name():
    m = confusion_matrix([IdSample({"A": 0.5, "B": 0.5}, "A")], ROSTER3)
    assert m[0] == [0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# the name ranking against a full sort


def _ranked_names(class_scores: dict[str, float]) -> list[str]:
    """Oracle: every name, score descending, equal scores ranking the
    lexicographically later name first (the sort the ranking key replaced)."""
    return sorted(class_scores, key=lambda nm: (class_scores[nm], nm), reverse=True)


def _oracle_confusion(pairs: list[tuple[dict[str, float], str]], roster: Roster) -> list[list[float]]:
    """Oracle: argmax counts by the full sort of each (scores, true label)
    pair, each non-empty row divided by its sum with np.divide (the numpy
    matrix the list version replaced)."""
    index = roster.positions
    counts = np.zeros((len(roster), len(roster)))
    for scores, label in pairs:
        counts[index[label], index[_ranked_names(scores)[0]]] += 1.0
    row_sums = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, row_sums, out=counts, where=row_sums > 0).tolist()


# few distinct scores, so equal scores and equal means are common
_TIED_SCORE = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_NAMES = st.lists(st.sampled_from(["A", "B", "a", "b", "Ayu", "ayu", "B2", "Bora"]), min_size=2, max_size=8, unique=True)


@st.composite
def _tied_id_case(draw):
    """Names, (scores, true label) pairs over them, and a k: a sample keeps
    no scores, so the oracles read the pairs it is built from."""
    names = draw(_NAMES)
    score_maps = st.fixed_dictionaries({nm: _TIED_SCORE for nm in names})
    pairs = draw(st.lists(st.tuples(score_maps, st.sampled_from(names)), min_size=1, max_size=20))
    return names, pairs, draw(st.integers(1, len(names) + 1))


@settings(max_examples=300, deadline=None)
@given(_tied_id_case())
def test_ranking_by_key_equals_the_full_sort(case):
    names, pairs, k = case
    samples = [IdSample(scores, label) for scores, label in pairs]
    for s, (scores, label) in zip(samples, pairs):
        ranked = _ranked_names(scores)
        assert (s.true_label, s.rank, s.predicted) == (label, ranked.index(label), ranked[0])
    hits = sum(label in _ranked_names(scores)[:k] for scores, label in pairs)
    assert topk_accuracy(samples, k) == hits / len(samples)
    roster = Roster([Individual(nm) for nm in names])
    assert confusion_matrix(samples, roster) == _oracle_confusion(pairs, roster)


def _sort_rank(scores: dict[str, float], label: str) -> tuple[int, str]:
    """Oracle: (rank, predicted) by one sort of the names on their (score,
    name) key, greatest first: the label's place and the first name (the
    sort that the constructor's count of greater pairs replaced)."""
    ranked = sorted(scores, key=lambda nm: (scores[nm], nm), reverse=True)
    return ranked.index(label), ranked[0]


# zeros of both signs, which compare equal, so only the name breaks their tie
_SIGNED_SCORE = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_sort_ranks_as_the_walk(data):
    names = data.draw(_NAMES)
    scores = data.draw(st.fixed_dictionaries({nm: _SIGNED_SCORE for nm in names}))
    label = data.draw(st.sampled_from(names))
    sample = IdSample(scores, label)
    assert (sample.rank, sample.predicted) == _sort_rank(scores, label)


@st.composite
def _tied_track(draw):
    names = draw(_NAMES)
    score_maps = st.none() | st.fixed_dictionaries({nm: _TIED_SCORE for nm in names})
    frames = class_scores(draw(st.lists(score_maps, min_size=1, max_size=6)), names)
    return Track(0, "v", [Detection(fi, G1, 0.9, scores) for fi, scores in enumerate(frames)])


@settings(max_examples=300, deadline=None)
@given(_tied_track())
def test_fused_identity_equals_the_full_sort_of_the_means(track):
    sums: dict[str, float] = {}
    scored = [obs.class_scores for obs in track.observations if obs.class_scores is not None]
    for scores in scored:
        for nm, value in scores.items():
            sums[nm] = sums.get(nm, 0.0) + value
    fused = fuse_identity(track, TrackerParams(min_track_len_for_id=1)).identity
    if not scored:
        assert fused is None
        return
    means = {nm: total / len(scored) for nm, total in sums.items()}
    best = _ranked_names(means)[0]
    assert (fused.name, fused.confidence) == (best, means[best])


# ---------------------------------------------------------------------------
# pooled metrics


def test_pooled_single_group_matches_plain_metrics():
    preds, gts = _two_gt_instance()
    out = pooled_detection_metrics([(preds, gts)], 0.5)
    assert out["false_negative_rate"] == false_negative_rate(preds, gts, 0.5)
    assert out["n_ground_truths"] == 2
    assert out["n_predictions"] == 3
    assert out["iou_threshold"] == 0.5
    assert out["score_threshold"] == 0.5


_grid_box = st.builds(
    BBox,
    st.integers(0, 3).map(lambda v: 8.0 * v),
    st.integers(0, 1).map(lambda v: 8.0 * v),
    st.sampled_from([8.0, 10.0, 12.0]),
    st.sampled_from([8.0, 10.0]),
)
_grid_group = st.tuples(
    st.lists(
        st.builds(Detection, st.just(0), _grid_box, st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])),
        max_size=6,
    ),
    st.lists(_grid_box, max_size=5),
)


@given(
    st.lists(_grid_group, max_size=4),
    st.sampled_from([0.1, 0.3, 0.5]),
    st.sampled_from([0.0, 0.3, 0.5, 0.6, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_pooled_fnr_equals_per_group_reference(groups, iou_threshold, score_threshold):
    # overlapping boxes and tied scores on a coarse grid exercise the greedy order
    n_gt = sum(len(gts) for _preds, gts in groups)
    missed = sum(
        round(false_negative_rate(preds, gts, iou_threshold, score_threshold) * len(gts))
        for preds, gts in groups
    )
    out = pooled_detection_metrics(groups, iou_threshold, score_threshold)
    assert out["false_negative_rate"] == ((missed / n_gt) if n_gt else 0.0)


def _curve_from_matching(preds, gts, iou_threshold):
    """(recall, precision, score) after each prediction in score order,
    counted afresh at each step from match_detections' pairs."""
    matched = {pair.prediction_index for pair in match_detections(preds, gts, iou_threshold).pairs}
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    points = []
    for k, i in enumerate(order, start=1):
        tp = sum(1 for seen in order[:k] if seen in matched)
        points.append((tp / len(gts) if gts else 0.0, tp / k, preds[i].score))
    return points


def _ap_101_from_curve(points, n_gt):
    """Mean over r = 0.00, 0.01, ..., 1.00 of the best precision at any
    recall of at least r (0.0 where none reaches r)."""
    if not n_gt or not points:
        return 1.0 if not n_gt and not points else 0.0
    grid = [max((p for rec, p, _s in points if rec >= i / 100.0), default=0.0) for i in range(101)]
    return math.fsum(grid) / 101.0


@given(_grid_group, st.sampled_from([0.1, 0.3, 0.5, 1.0]))
@settings(max_examples=200, deadline=None)
def test_pooled_ap_equals_matching_curve_oracle(group, iou_threshold):
    # rank order with ties by index, as the curve oracle counts them; a
    # threshold sweep that lets tied scores enter together would disagree
    preds, gts = group
    points = _curve_from_matching(preds, gts, iou_threshold)
    assert _ap(preds, gts, iou_threshold) == _ap_101_from_curve(points, len(gts))


def _walked_envelope_ap(flags: list[bool], n_gt: int) -> float:
    """Oracle: 101-point AP over n_gt > 0 ground truths from the score-ordered
    hit flags, by the (recall, precision) curve, its reversed-max envelope and
    an index walk over the recall levels (the code the one-pass curve in
    pooled_detection_metrics replaced)."""
    points = []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        tp += flag
        points.append((tp / n_gt, tp / k))
    envelope = list(accumulate((p for _r, p in reversed(points)), max))[::-1]
    values = []
    k = 0
    for i in range(101):
        r = i / 100.0
        while k < len(points) and points[k][0] < r:
            k += 1
        values.append(envelope[k] if k < len(points) else 0.0)
    return math.fsum(values) / 101.0


@given(st.lists(st.booleans(), max_size=40), st.integers(0, 6))
@settings(max_examples=500, deadline=None)
@example([False] * 5, 3)  # all miss
@example([True] * 7, 0)  # all hit, every ground truth found
@example([True] * 4, 5)  # all hit, some ground truths never found
@example([True, False, False, True, False, False, False, True], 2)  # runs of repeated recall
@example([], 4)  # ground truths, no predictions
def test_pooled_ap_equals_the_walked_envelope(flags, missed):
    # one group per prediction, all at one score, so the pooled order is the
    # group order: a hit sits on its group's ground truth, a miss has none
    n_gt = sum(flags) + missed
    assume(n_gt > 0)
    groups = [([_det(0.0, 0.0, 10.0, 10.0, 0.5)], [G1] if flag else []) for flag in flags]
    groups += [([], [G1])] * missed
    ap = pooled_detection_metrics(groups)["average_precision"]
    assert ap == _walked_envelope_ap(flags, n_gt)


def test_pooled_two_groups_hand_case():
    hit = ([_det(0.0, 0.0, 10.0, 10.0, 0.9)], [G1])
    miss = ([_det(300.0, 300.0, 10.0, 10.0, 0.8)], [G2])
    out = pooled_detection_metrics([hit, miss], 0.5)
    assert out["average_precision"] == pytest.approx(51.0 / 101.0, abs=1e-12)
    assert out["false_negative_rate"] == 0.5
    assert out["n_ground_truths"] == 2
    assert out["n_predictions"] == 2


def test_pooled_matching_confined_to_groups():
    # the prediction in group two sits exactly on group one's ground truth
    # but cannot match across the group boundary
    stray = ([_det(0.0, 0.0, 10.0, 10.0, 0.9)], [G2])
    out = pooled_detection_metrics([([], [G1]), stray], 0.5)
    assert out["false_negative_rate"] == 1.0


def test_pooled_empty_inputs():
    out = pooled_detection_metrics([], 0.5)
    assert out["average_precision"] == 1.0
    assert out["false_negative_rate"] == 0.0
    assert out["n_ground_truths"] == 0
    assert out["n_predictions"] == 0
