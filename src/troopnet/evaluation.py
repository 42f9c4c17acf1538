"""Detection and identification metrics.

Pooled 101-point average precision and false negative rate, top-k
accuracy and confusion matrices. Boxes are matched by one greedy pass:
predictions are taken in descending score order and each claims the
unmatched ground truth of highest IoU at or above the threshold.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from itertools import accumulate

from .geometry import BBox, iou
from .ingest import Detection, Roster

__all__ = [
    "IdSample",
    "topk_accuracy",
    "confusion_matrix",
    "pooled_detection_metrics",
]


@dataclass(frozen=True, slots=True, match_args=False)  # __match_args__ would name class_scores
class IdSample:
    """One identification sample as its outcome: true label, rank, predicted.

    The constructor holds the one sample rule: class_scores, read here and
    not kept, is non-empty and scores the true label. It ranks the (score,
    name) pairs by plain tuple comparison: rank counts the pairs greater
    than the true label's, predicted names the greatest. So a greater score
    ranks first, and equal scores (-0.0 and 0.0 among them) rank the
    lexicographically later name first; fuse_identity's tie rule is the same.
    """

    class_scores: InitVar[dict[str, float]]
    true_label: str
    rank: int = field(init=False)
    predicted: str = field(init=False)

    def __post_init__(self, scores: dict[str, float]):
        label = self.true_label
        if not scores:
            raise ValueError("class_scores is empty")
        if label not in scores:
            raise ValueError(f"true_label {label!r} has no class score")
        pairs = list(zip(scores.values(), scores))  # names are unique, so no two pairs are equal
        own = (scores[label], label)
        object.__setattr__(self, "rank", sum(map(own.__lt__, pairs)))
        object.__setattr__(self, "predicted", max(pairs)[1])


def _greedy(preds: list[Detection], gts: list[BBox], iou_threshold: float):
    """Greedy one-to-one matching of predictions to ground-truth boxes: yield
    (prediction index, matched ground-truth index or -1) for each
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
        yield i, best_j


def topk_accuracy(samples: list[IdSample], k: int) -> float:
    """Fraction of samples whose true label is outranked by fewer than k names.

    samples is not empty and k is at least 1: parse_id_samples and the --k
    flag check them.
    """
    return sum(sample.rank < k for sample in samples) / len(samples)


def confusion_matrix(samples: list[IdSample], roster: Roster) -> list[list[float]]:
    """Confusion matrix, rows = true identity, columns = the best-ranked name.

    Rows with at least one sample are divided by their sum; all-zero rows
    stay zero. Row and column order follow the roster, which holds every
    label and scored name: parse_id_samples checks them against it.
    """
    index = roster.positions
    counts = [[0.0] * len(roster) for _ in range(len(roster))]
    for sample in samples:
        counts[index[sample.true_label]][index[sample.predicted]] += 1.0
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
        for i, j in _greedy(preds, gts, iou_threshold):
            pooled.append((-preds[i].score, g, i, j >= 0))
            if j >= 0 and preds[i].score >= score_threshold:
                tp_at_threshold += 1
    pooled.sort()
    if n_gt == 0:
        ap = 1.0 if not pooled else 0.0
    else:
        # recall never falls, so bisection finds the first point at recall >= r;
        # a level no point reaches reads the 0.0 past the last point
        tps = list(accumulate(int(flag) for *_, flag in pooled))
        recalls = [tp / n_gt for tp in tps]
        precisions = [tp / k for k, tp in enumerate(tps, start=1)]
        envelope = list(accumulate(reversed(precisions), max))[::-1] + [0.0]
        ap = math.fsum(envelope[bisect_left(recalls, i / 100)] for i in range(101)) / 101.0
    return {
        "average_precision": ap,
        "false_negative_rate": ((n_gt - tp_at_threshold) / n_gt) if n_gt else 0.0,
        "iou_threshold": iou_threshold,
        "score_threshold": score_threshold,
        "n_ground_truths": n_gt,
        "n_predictions": len(pooled),
    }
