"""Detection and identification metrics.

Pooled 101-point average precision and false negative rate, top-k
accuracy and confusion matrices. Boxes are matched by one greedy pass:
predictions are taken in descending score order and each claims the
unmatched ground truth of highest IoU at or above the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .geometry import BBox, iou
from .ingest import Detection, Roster

__all__ = [
    "IdSample",
    "rank_key",
    "topk_accuracy",
    "confusion_matrix",
    "pooled_detection_metrics",
]


@dataclass
class IdSample:
    """One identification sample: a score map and the true label."""

    class_scores: dict[str, float]
    true_label: str


def _greedy(preds: list[Detection], gts: list[BBox], iou_threshold: float):
    """Greedy one-to-one matching of predictions to ground-truth boxes: yield
    (prediction index, matched ground-truth index or -1, IoU) for each
    prediction, in descending score order (ties by input order). Each takes
    the unmatched ground truth of highest IoU at or above the threshold, IoU
    ties going to the lower ground-truth index."""
    taken = [False] * len(gts)
    for i in sorted(range(len(preds)), key=lambda i: (-preds[i].score, i)):
        best_j = -1
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            overlap = iou(preds[i].bbox, gt)
            if overlap >= iou_threshold and overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
        yield i, best_j, best_iou


def _curve(flags: list[bool], n_gt: int) -> list[tuple[float, float]]:
    """(recall, precision) after each score-ordered prediction, over n_gt > 0
    ground truths."""
    points = []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        tp += flag
        points.append((tp / n_gt, tp / k))
    return points


def _envelope(points: list[tuple[float, float]]) -> list[float]:
    """The precision envelope max{P at recall >= r} at each curve point."""
    return list(accumulate((p for _r, p in reversed(points)), max))[::-1]


def rank_key(scores: dict[str, float]):
    """The key that ranks names by score: a name with a greater key ranks
    first, so equal scores rank the lexicographically later name first."""
    return lambda name: (scores[name], name)


def topk_accuracy(samples: list[IdSample], k: int) -> float:
    """Fraction of samples whose true label is outranked by fewer than k names."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not samples:
        raise ValueError("topk_accuracy needs at least one sample")
    hits = 0
    for i, sample in enumerate(samples):
        if not sample.class_scores:
            raise ValueError(f"sample {i}: empty class_scores")
        if sample.true_label not in sample.class_scores:
            raise ValueError(f"sample {i}: true label {sample.true_label!r} absent from class_scores")
        key = rank_key(sample.class_scores)
        own = key(sample.true_label)
        hits += sum(key(nm) > own for nm in sample.class_scores) < k
    return hits / len(samples)


def confusion_matrix(samples: list[IdSample], roster: Roster) -> list[list[float]]:
    """Confusion matrix, rows = true identity, columns = the best-ranked name.

    Rows with at least one sample are divided by their sum; all-zero rows
    stay zero. Row and column order follow the roster.
    """
    index = roster.positions
    counts = [[0.0] * len(roster) for _ in range(len(roster))]
    for i, sample in enumerate(samples):
        if not sample.class_scores:
            raise ValueError(f"sample {i}: empty class_scores")
        if sample.true_label not in index:
            raise ValueError(f"sample {i}: unknown true label {sample.true_label!r}")
        predicted = max(sample.class_scores, key=rank_key(sample.class_scores))
        if predicted not in index:
            raise ValueError(f"sample {i}: unknown predicted name {predicted!r}")
        counts[index[sample.true_label]][index[predicted]] += 1.0
    # the counts are whole numbers, so each row sum is exact
    return [[c / total for c in row] if (total := sum(row)) else row for row in counts]


def pooled_detection_metrics(
    groups: list[tuple[list[Detection], list[BBox]]],
    iou_threshold: float = 0.5,
    score_threshold: float = 0.5,
) -> dict:
    """Detection metrics pooled over frames or images.

    Matching is confined to each group; the PR curve pools all predictions
    by descending score (ties by group order, then index). Returns AP (the
    precision envelope max{P at recall >= r} averaged over r = 0.00, 0.01,
    ..., 1.00; 1.0 with neither ground truths nor predictions, 0.0 with
    only one), the false negative rate at the score threshold, and the
    underlying counts.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if not math.isfinite(score_threshold):
        raise ValueError(f"score_threshold must be finite, got {score_threshold}")
    pooled: list[tuple[float, int, int, bool]] = []  # (-score, group, idx, is_tp)
    n_gt = 0
    tp_at_threshold = 0
    for g, (preds, gts) in enumerate(groups):
        n_gt += len(gts)
        # The predictions kept at the score threshold are a prefix of the
        # score order, so matching them alone makes the same matches as the
        # full matching does over that prefix.
        for i, j, _o in _greedy(preds, gts, iou_threshold):
            pooled.append((-preds[i].score, g, i, j >= 0))
            if j >= 0 and preds[i].score >= score_threshold:
                tp_at_threshold += 1
    pooled.sort()
    if n_gt == 0:
        ap = 1.0 if not pooled else 0.0
    elif not pooled:
        ap = 0.0
    else:
        points = _curve([flag for *_, flag in pooled], n_gt)
        envelope = _envelope(points)
        values = []
        k = 0
        for i in range(101):
            r = i / 100.0
            while k < len(points) and points[k][0] < r:
                k += 1
            values.append(envelope[k] if k < len(points) else 0.0)
        ap = math.fsum(values) / 101.0
    return {
        "average_precision": ap,
        "false_negative_rate": ((n_gt - tp_at_threshold) / n_gt) if n_gt else 0.0,
        "iou_threshold": iou_threshold,
        "score_threshold": score_threshold,
        "n_ground_truths": n_gt,
        "n_predictions": len(pooled),
    }
