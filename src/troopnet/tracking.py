"""Face tracks from detection streams, identity fusion, and ledgers.

A track holds the stream's own Detection objects for one individual, in
frame order. Tracks are built by frame-to-frame association: within each
frame, active tracks and detections are matched one-to-one by minimum
total cost with cost = 1 - IoU, pairs below the IoU gate excluded, ties
as the solver returns them. A track unmatched for more than
max_gap_frames frames in a row is closed; unmatched detections open new
tracks. The result is a deterministic function of the stream and
parameters. tracks_to_ledger gives the one OccurrenceLedger type in both
association modes; the mode decides only each video's joint records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import add

from .geometry import BBox, ProximityParams, iou, is_proximal
from .ingest import Detection, DetectionStream, LedgerEntry, OccurrenceLedger

__all__ = [
    "Identity",
    "Track",
    "TrackerParams",
    "IdentityConflict",
    "build_tracks",
    "fuse_identity",
    "tracks_to_ledger",
    "ASSOCIATION_MODES",
]

ASSOCIATION_MODES = ("video-level", "proximal")  # tracks_to_ledger's mode values
_FORBIDDEN = 1e9  # cost placeholder for pairs outside the IoU gate


@dataclass
class Identity:
    name: str
    confidence: float


@dataclass
class Track:
    track_id: int
    video_id: str
    observations: list[Detection]
    identity: Identity | None = None

    def __post_init__(self):
        if not self.observations:
            raise ValueError("track needs at least one observation")
        indices = [o.frame_index for o in self.observations]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("track observations must have strictly increasing frame_index")
        names = None  # the class list of the scored observations
        for o in self.observations:
            if o.class_scores is not None:
                if names is None:
                    names = o.class_scores.names
                elif o.class_scores.names is not names and o.class_scores.names != names:
                    raise ValueError("track observations must score one class list")

    def __len__(self) -> int:
        return len(self.observations)


@dataclass(frozen=True)
class TrackerParams:
    iou_gate: float = 0.3
    max_gap_frames: int = 10
    min_track_len_for_id: int = 3

    def __post_init__(self):
        if not 0.0 < self.iou_gate <= 1.0:
            raise ValueError(f"iou_gate must be in (0, 1], got {self.iou_gate}")
        if not isinstance(self.max_gap_frames, int) or self.max_gap_frames < 0:
            raise ValueError(f"max_gap_frames must be a non-negative integer, got {self.max_gap_frames}")
        if not isinstance(self.min_track_len_for_id, int) or self.min_track_len_for_id < 1:
            raise ValueError(f"min_track_len_for_id must be a positive integer, got {self.min_track_len_for_id}")


@dataclass
class IdentityConflict:
    """Two or more simultaneous tracks fused to the same identity."""

    video_id: str
    frame_index: int
    name: str
    track_ids: tuple[int, ...]


def _assign(cost: list[list[float]]) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of a finite cost matrix, as (rows, cols) in ascending rows.

    A port of the rectangular shortest augmenting path solver (Crouse 2016)
    behind linear_sum_assignment. It keeps that code's float operations,
    their order and its tie rules, so it returns the same pairs.
    """
    transpose = len(cost[0]) < len(cost)  # a tall matrix is solved transposed
    cost = [list(column) for column in zip(*cost)] if transpose else cost
    nr, nc = len(cost), len(cost[0])
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        shortest = [math.inf] * nc
        seen_rows, seen_cols = [False] * nr, [False] * nc
        remaining = list(range(nc - 1, -1, -1))  # scanned from the last column
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            seen_rows[i] = True
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r, s = min_val + row[j] - ui - v[j], shortest[j]  # r summed left to right
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it  # a tie goes to an unassigned column
            min_val, j = lowest, remaining[index]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
        u[cur] += min_val
        for i in range(nr):
            if seen_rows[i] and i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if seen_cols[j]:
                v[j] -= min_val - shortest[j]
        j, i = sink, -1
        while i != cur:  # augment along the path back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    pairs = sorted((r, c) for c, r in enumerate(col4row)) if transpose else list(enumerate(col4row))
    return [r for r, _ in pairs], [c for _, c in pairs]


def build_tracks(stream: DetectionStream, params: TrackerParams = TrackerParams()) -> list[Track]:
    """Associate a stream's detections into tracks.

    Every detection lands in exactly one track: tracks hold the stream's
    own Detection objects, not copies. A frame keeps the pairs _assign
    returns, less those outside the gate: cost ties follow the solver,
    which at equal path cost takes a free column, else the first it scans
    (one track, two equally close detections: the first). When no two
    in-gate pairs share a track or a detection, the frame keeps them all
    without the solver, which would return exactly those. So identical
    input yields identical tracks. The stream's frame indices increase, and
    each detection carries its frame's index, as parse_detection_stream and
    synth build it.
    """
    active: list[Track] = []  # in track_id order: survivors keep it, new ids are larger
    done: list[Track] = []
    next_id = 0
    for frame in stream.frames:
        fi = frame.frame_index
        still_active = []
        for track in active:
            if fi - track.observations[-1].frame_index - 1 > params.max_gap_frames:
                done.append(track)
            else:
                still_active.append(track)
        active = still_active

        detections = frame.detections
        assignment: dict[int, int] = {}
        if active and detections:
            # each box's extents, its right and bottom edges rounded as iou rounds them
            spans = [(b.x, b.x + b.w, b.y, b.y + b.h) for b in (det.bbox for det in detections)]
            gated = []  # (row, column, cost) of each pair inside the gate
            for r, track in enumerate(active):
                last_bbox = track.observations[-1].bbox
                left, right = last_bbox.x, last_bbox.x + last_bbox.w
                top, bottom = last_bbox.y, last_bbox.y + last_bbox.h
                for c, (det_left, det_right, det_top, det_bottom) in enumerate(spans):
                    # boxes apart on either axis have iou 0.0, below any gate
                    if det_left < right and left < det_right and det_top < bottom and top < det_bottom:
                        overlap = iou(last_bbox, detections[c].bbox)
                        if overlap >= params.iou_gate:
                            gated.append((r, c, 1.0 - overlap))
            if len({r for r, _, _ in gated}) == len({c for _, c, _ in gated}) == len(gated):
                # no two share a track or a detection: an assignment without one of
                # them pays _FORBIDDEN more, so _assign would keep exactly these
                assignment = {c: r for r, c, _ in gated}
            else:
                cost = [[_FORBIDDEN] * len(detections) for _ in active]
                for r, c, pair_cost in gated:
                    cost[r][c] = pair_cost
                assignment = {c: r for r, c in zip(*_assign(cost)) if cost[r][c] < _FORBIDDEN}

        for c, det in enumerate(detections):
            if c in assignment:
                active[assignment[c]].observations.append(det)
            else:
                active.append(Track(track_id=next_id, video_id=stream.video_id, observations=[det]))
                next_id += 1

    done.extend(active)
    done.sort(key=lambda t: t.track_id)
    return done


def fuse_identity(track: Track, params: TrackerParams = TrackerParams()) -> Track:
    """Attach the fused identity: the class of the greatest (mean score,
    name) pair over the per-frame scores, so equal means go to the
    lexicographically later name, as in top-k; its mean is the confidence.

    Each scored frame adds its whole row to the sums, which start at 0.0,
    in frame order. Frames without class_scores contribute nothing. The
    identity is omitted when the track is shorter than min_track_len_for_id
    or no observation carries scores. Every scored frame of a track scores
    the same class list (Track checks it), every class of it; a roster name
    that the list leaves out is never scored, so it never wins. Names are
    not checked here; parse_detection_stream checks them against the roster.
    """
    if len(track.observations) < params.min_track_len_for_id:
        return replace(track, identity=None)
    scored = [obs.class_scores for obs in track.observations if obs.class_scores is not None]
    if not scored:
        return replace(track, identity=None)
    sums = [0.0] * len(scored[0].row)
    for scores in scored:
        sums = list(map(add, sums, scores.row))
    mean, best = max(zip([total / len(scored) for total in sums], scored[0].names))
    return replace(track, identity=Identity(name=best, confidence=mean))


def tracks_to_ledger(
    tracks: list[Track],
    mode: str = "video-level",
    prox: ProximityParams = ProximityParams(),
) -> tuple[OccurrenceLedger, list[IdentityConflict]]:
    """Turn identified tracks into a ledger, one entry per video.

    The mode decides the entry's joint records: video-level mode makes one
    record of every name an identified track of the video bears; proximal
    mode makes one record per pair whose boxes some frame shows proximal,
    in sorted order. Tracks without an identity are excluded. Simultaneous
    same-name tracks are kept and returned as identity conflicts, ordered
    by video (first appearance), frame and name. mode is one of
    ASSOCIATION_MODES: the --mode flag and the config key check it.
    """
    by_video: dict[str, list[Track]] = {}  # videos in order of first appearance
    for t in tracks:
        by_video.setdefault(t.video_id, []).append(t)

    entries: list[LedgerEntry] = []
    conflicts: list[IdentityConflict] = []
    for video_id, video_tracks in by_video.items():
        identified = [t for t in video_tracks if t.identity is not None]
        boxes_by_frame: dict[int, list[tuple[str, int, BBox]]] = {}
        for t in identified:
            for obs in t.observations:
                boxes_by_frame.setdefault(obs.frame_index, []).append((t.identity.name, t.track_id, obs.bbox))
        for fi in sorted(boxes_by_frame):
            boxes = boxes_by_frame[fi]
            if len(boxes) < 2:
                continue
            ids_by_name: dict[str, list[int]] = {}
            for name, track_id, _ in boxes:
                ids_by_name.setdefault(name, []).append(track_id)
            if len(ids_by_name) < len(boxes):
                for name in sorted(ids_by_name):
                    ids = ids_by_name[name]
                    if len(ids) > 1:
                        conflicts.append(IdentityConflict(video_id, fi, name, tuple(sorted(ids))))
        if mode == "video-level":
            names = frozenset(t.identity.name for t in identified)
            records = (names,) if names else ()
        else:
            pairs = set()
            for boxes in boxes_by_frame.values():
                for i, (name_a, _, box_a) in enumerate(boxes):
                    for name_b, _, box_b in boxes[i + 1 :]:
                        if name_a != name_b:
                            pair = (name_a, name_b) if name_a < name_b else (name_b, name_a)
                            if pair not in pairs and is_proximal(box_a, box_b, prox):
                                pairs.add(pair)
            records = tuple(map(frozenset, sorted(pairs)))
        entries.append(LedgerEntry(video_id=video_id, records=records))
    return OccurrenceLedger(entries), conflicts
