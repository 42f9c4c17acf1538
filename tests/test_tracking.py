"""Tests for track building, identity fusion and ledger construction."""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from troopnet import ingest, tracking
from troopnet.geometry import BBox, ProximityParams, iou, is_proximal
from troopnet.ingest import (
    Detection,
    DetectionStream,
    Frame,
    Individual,
    Roster,
    parse_detection_stream,
    write_detection_stream,
)
from troopnet.synth import NoiseParams, build_scenario
from troopnet.tracking import (
    Identity,
    Track,
    TrackerParams,
    build_tracks,
    fuse_identity,
    tracks_to_ledger,
)

from conftest import class_scores


def _frame(fi, *boxes, score=0.9):
    return Frame(fi, [Detection(frame_index=fi, bbox=b, score=score) for b in boxes])


def _stream(*frames, video_id="v"):
    return DetectionStream(video_id=video_id, frames=list(frames))


BOX = BBox(0.0, 0.0, 64.0, 64.0)
FAR = BBox(500.0, 0.0, 64.0, 64.0)


def test_persistent_box_single_track():
    stream = _stream(_frame(0, BOX), _frame(1, BOX), _frame(2, BOX))
    tracks = build_tracks(stream)
    assert len(tracks) == 1
    assert len(tracks[0]) == 3
    assert [o.frame_index for o in tracks[0].observations] == [0, 1, 2]


def test_two_distant_boxes_two_tracks():
    stream = _stream(*(_frame(fi, BOX, FAR) for fi in range(3)))
    tracks = build_tracks(stream)
    assert len(tracks) == 2
    assert all(len(t) == 3 for t in tracks)
    # track 0 keeps the first detection of frame 0
    assert tracks[0].observations[0].bbox == BOX
    assert tracks[1].observations[0].bbox == FAR


def test_gap_rule_bridges_and_splits():
    frames = [_frame(0, BOX), _frame(1, BOX), Frame(2, []), _frame(3, BOX)]
    bridged = build_tracks(_stream(*frames), TrackerParams(max_gap_frames=1))
    assert len(bridged) == 1
    assert [o.frame_index for o in bridged[0].observations] == [0, 1, 3]
    split = build_tracks(_stream(*frames), TrackerParams(max_gap_frames=0))
    assert len(split) == 2
    assert [o.frame_index for o in split[0].observations] == [0, 1]
    assert [o.frame_index for o in split[1].observations] == [3]


def test_iou_gate_opens_new_track():
    jumped = BBox(200.0, 200.0, 64.0, 64.0)
    stream = _stream(_frame(0, BOX), _frame(1, jumped))
    tracks = build_tracks(stream, TrackerParams(iou_gate=0.3))
    assert len(tracks) == 2


def test_every_detection_lands_in_exactly_one_track():
    stream = _stream(
        _frame(0, BOX, FAR),
        _frame(1, BOX),
        _frame(2, BOX, FAR, BBox(0.0, 300.0, 10.0, 10.0)),
    )
    tracks = build_tracks(stream)
    assert sum(len(t) for t in tracks) == stream.detection_count


def test_track_ids_sequential_in_first_appearance_order():
    stream = _stream(_frame(0, BOX), _frame(5, BOX, FAR))
    tracks = build_tracks(stream, TrackerParams(max_gap_frames=10))
    assert [t.track_id for t in tracks] == [0, 1]


def test_assignment_prefers_higher_overlap():
    # two tracks, two detections; each detection overlaps both, but the
    # optimal total cost pairs each with its nearer box
    a0 = BBox(0.0, 0.0, 64.0, 64.0)
    b0 = BBox(40.0, 0.0, 64.0, 64.0)
    a1 = BBox(8.0, 0.0, 64.0, 64.0)
    b1 = BBox(48.0, 0.0, 64.0, 64.0)
    stream = _stream(_frame(0, a0, b0), _frame(1, a1, b1))
    tracks = build_tracks(stream, TrackerParams(iou_gate=0.1))
    assert len(tracks) == 2
    assert tracks[0].observations[1].bbox == a1
    assert tracks[1].observations[1].bbox == b1


def test_cost_tie_goes_to_lower_detection_index():
    # both detections overlap the single track equally; the first one wins
    left = BBox(32.0, 0.0, 64.0, 64.0)
    right = BBox(-32.0, 0.0, 64.0, 64.0)
    stream = _stream(_frame(0, BOX), _frame(1, left, right))
    tracks = build_tracks(stream, TrackerParams(iou_gate=0.1))
    assert tracks[0].observations[1].bbox == left
    assert tracks[1].observations == [Detection(1, right, 0.9, None)]


def test_determinism_identical_streams():
    stream = _stream(*(_frame(fi, BOX, FAR) for fi in range(5)))
    assert build_tracks(stream) == build_tracks(stream)


def test_track_validation():
    with pytest.raises(ValueError, match="observation"):
        Track(track_id=0, video_id="v", observations=[])
    with pytest.raises(ValueError, match="increasing"):
        Track(
            track_id=0,
            video_id="v",
            observations=[Detection(3, BOX, 0.5), Detection(2, BOX, 0.5)],
        )


def test_tracks_hold_the_streams_own_detections():
    stream = _stream(_frame(0, BOX, FAR), _frame(1), _frame(2, FAR, BOX), _frame(3, BOX))
    tracks = build_tracks(stream)
    held = {id(o): o for t in tracks for o in t.observations}
    streamed = [d for frame in stream.frames for d in frame.detections]
    assert len(held) == len(streamed)
    assert all(held.get(id(d)) is d for d in streamed)


def test_detection_frame_index_must_be_its_frames():
    # build_tracks reads a detection's frame from its record: both builders of a stream,
    # synth and the parser, give each detection its frame's index
    _, streams = build_scenario(3, 4, 2, 3, 6, NoiseParams(fp_rate=0.2, fn_rate=0.2))
    assert all(stream.detection_count for stream in streams.values())
    for stream in streams.values():
        for built in (stream, parse_detection_stream(write_detection_stream(stream), stream.video_id)):
            assert all(d.frame_index == f.frame_index for f in built.frames for d in f.detections)


def test_tracker_params_validation():
    with pytest.raises(ValueError):
        TrackerParams(iou_gate=0.0)
    with pytest.raises(ValueError):
        TrackerParams(iou_gate=1.5)
    with pytest.raises(ValueError):
        TrackerParams(max_gap_frames=-1)
    with pytest.raises(ValueError):
        TrackerParams(min_track_len_for_id=0)


@st.composite
def _random_streams(draw, max_dets=4, sides=(48.0,)):
    n_frames = draw(st.integers(1, 8))
    frames = []
    for fi in range(n_frames):
        n_dets = draw(st.integers(0, max_dets))
        dets = []
        for _ in range(n_dets):
            x = draw(st.integers(0, 6)) * 40.0
            y = draw(st.integers(0, 2)) * 40.0
            w, h = draw(st.sampled_from(sides)), draw(st.sampled_from(sides))
            dets.append(Detection(frame_index=fi, bbox=BBox(x, y, w, h), score=0.9))
        frames.append(Frame(fi, dets))
    return DetectionStream(video_id="v", frames=frames)


@given(_random_streams())
@settings(max_examples=60, deadline=None)
def test_conservation_on_random_streams(stream):
    tracks = build_tracks(stream)
    assert sum(len(t) for t in tracks) == stream.detection_count
    # no observation object shared between tracks, frame indices increase
    for t in tracks:
        indices = [o.frame_index for o in t.observations]
        assert indices == sorted(set(indices))


@given(_random_streams(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_raising_gap_never_adds_tracks(stream, gap):
    fewer = len(build_tracks(stream, TrackerParams(max_gap_frames=gap + 1)))
    more = len(build_tracks(stream, TrackerParams(max_gap_frames=gap)))
    assert fewer <= more


# ---------------------------------------------------------------------------
# the assignment solver against its reference, linear_sum_assignment

# exact ties, near ties (0.1 + 0.2 against 0.3) and the gate's sentinel
_TIE_COSTS = [0.0, 0.25, 0.5, 0.5, 1.0, 1 / 3, 0.3, 0.1 + 0.2, 1.0 - 0.7, tracking._FORBIDDEN]


@st.composite
def _cost_matrices(draw):
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    row = st.lists(st.sampled_from(_TIE_COSTS), min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


def _reference_assign(cost):
    rows, cols = linear_sum_assignment(np.asarray(cost))
    return rows.tolist(), cols.tolist()


@given(_cost_matrices())
@settings(max_examples=400, deadline=None)
def test_assign_returns_the_reference_pairs(cost):
    assert tracking._assign(cost) == _reference_assign(cost)


@given(_random_streams(max_dets=8), st.sampled_from([0.05, 0.3]))
@settings(max_examples=150, deadline=None)
def test_tracks_equal_with_the_reference_solver(stream, gate):
    params = TrackerParams(iou_gate=gate)
    with mock.patch.object(tracking, "_assign", _reference_assign):
        reference = build_tracks(stream, params)
    assert build_tracks(stream, params) == reference


def _always_solve_tracks(stream, params):
    """build_tracks without its shortcuts: iou for every pair, and _assign on every frame."""
    active, done, next_id = [], [], 0
    for frame in stream.frames:
        fi = frame.frame_index
        done += [t for t in active if fi - t.observations[-1].frame_index - 1 > params.max_gap_frames]
        active = [t for t in active if fi - t.observations[-1].frame_index - 1 <= params.max_gap_frames]
        detections = frame.detections
        assignment = {}
        if active and detections:
            cost = [[tracking._FORBIDDEN] * len(detections) for _ in active]
            for r, track in enumerate(active):
                for c, det in enumerate(detections):
                    overlap = iou(track.observations[-1].bbox, det.bbox)
                    if overlap >= params.iou_gate:
                        cost[r][c] = 1.0 - overlap
            assignment = {c: r for r, c in zip(*tracking._assign(cost)) if cost[r][c] < tracking._FORBIDDEN}
        for c, det in enumerate(detections):
            if c in assignment:
                active[assignment[c]].observations.append(det)
            else:
                active.append(Track(track_id=next_id, video_id=stream.video_id, observations=[det]))
                next_id += 1
    return sorted(done + active, key=lambda t: t.track_id)


# 40 px steps against sides of 40 and 80 px: edges that touch, boxes that
# cross from frame to frame, and several tracks gated to one detection
@given(
    _random_streams(max_dets=8, sides=(40.0, 48.0, 80.0)),
    st.sampled_from([0.05, 0.3, 1.0]),
    st.sampled_from([0, 10]),
)
@settings(max_examples=300, deadline=None)
def test_tracks_equal_the_always_solving_tracker(stream, gate, gap):
    params = TrackerParams(iou_gate=gate, max_gap_frames=gap)
    assert build_tracks(stream, params) == _always_solve_tracks(stream, params)


# edges that touch, edges a rounded y + h only just passes, and boxes apart on one axis alone
_EDGES = st.sampled_from([0.0, 0.5, 40.0, 48.0, 80.0, 1e16, 1e16 + 2.0, -1e-300])
_SIDES = st.sampled_from([1.0, 40.0, 48.0, 0.1 + 0.2, 3e-300])


@st.composite
def _box_pairs(draw):
    return [BBox(draw(_EDGES), draw(_EDGES), draw(_SIDES), draw(_SIDES)) for _ in range(2)]


@given(_box_pairs())
@settings(max_examples=400, deadline=None)
def test_a_pair_apart_on_either_axis_has_iou_zero(boxes):
    # build_tracks' extent tests, each edge rounded as iou rounds it
    a, b = boxes
    overlaps = b.x < a.x + a.w and a.x < b.x + b.w and b.y < a.y + a.h and a.y < b.y + b.h
    if not overlaps:
        assert iou(a, b) == 0.0


@st.composite
def _columns_of_boxes(draw):
    """Streams whose boxes share x but not y, and the reverse, so that each extent test alone skips pairs."""
    frames = []
    for fi in range(draw(st.integers(1, 6))):
        dets = [
            Detection(fi, BBox(draw(_EDGES), draw(_EDGES), draw(_SIDES), draw(_SIDES)), 0.9)
            for _ in range(draw(st.integers(0, 5)))
        ]
        frames.append(Frame(fi, dets))
    return DetectionStream("v", frames)


@given(_columns_of_boxes() | _random_streams(max_dets=8, sides=(40.0, 80.0)), st.sampled_from([1e-9, 0.3]))
@settings(max_examples=300, deadline=None)
def test_the_extent_tests_keep_the_tracks_of_iou_on_every_pair(stream, gate):
    params = TrackerParams(iou_gate=gate)
    assert build_tracks(stream, params) == _always_solve_tracks(stream, params)


def test_a_box_below_another_is_never_scored():
    # per frame: A and B share x and lie 200 px apart in y, C is beside A; each track
    # overlaps only its own box, so iou runs 3 times, where the x test alone leaves 5
    a, b, c = BBox(0.0, 0.0, 64.0, 64.0), BBox(0.0, 200.0, 64.0, 64.0), BBox(200.0, 0.0, 64.0, 64.0)
    stream = _stream(_frame(0, a, b, c), _frame(1, a, b, c))
    with mock.patch.object(tracking, "iou", side_effect=iou) as counted:
        tracks = build_tracks(stream)
    assert counted.call_count == 3
    assert [[o.bbox for o in t.observations] for t in tracks] == [[a, a], [b, b], [c, c]]


def test_exact_tie_keeps_the_solver_pairs():
    # two tracks on one box; next frame, one box 40 px below it and one on it.
    # Both matchings cost 1 - 1/11. The tracks follow _assign's pairs; a repair
    # toward the lower track for the lower detection would swap them.
    stacked = BBox(0.0, 0.0, 48.0, 48.0)
    below = BBox(0.0, 40.0, 48.0, 48.0)
    tie = 1.0 - iou(stacked, below)
    assert tracking._assign([[tie, 0.0], [tie, 0.0]]) == ([0, 1], [1, 0])
    stream = _stream(_frame(0, stacked, stacked), _frame(1, below, stacked))
    tracks = build_tracks(stream, TrackerParams(iou_gate=0.05))
    assert [[o.bbox for o in t.observations] for t in tracks] == [[stacked, stacked], [stacked, below]]


# ---------------------------------------------------------------------------
# identity fusion


def _scored_track(score_maps, video_id="v"):
    observations = [
        Detection(fi, BOX, 0.9, scores) for fi, scores in enumerate(class_scores(score_maps))
    ]
    return Track(track_id=0, video_id=video_id, observations=observations)


def test_fuse_identity_mean_argmax():
    track = _scored_track(
        [
            {"A": 0.6, "B": 0.4},
            {"A": 0.2, "B": 0.8},
            {"A": 0.9, "B": 0.1},
        ]
    )
    fused = fuse_identity(track)
    assert fused.identity == Identity("A", pytest.approx((0.6 + 0.2 + 0.9) / 3))


def test_fuse_identity_unanimous_confidence_one():
    track = _scored_track([{"A": 1.0}] * 3)
    fused = fuse_identity(track)
    assert fused.identity == Identity("A", 1.0)


def test_fuse_identity_short_track_skipped():
    track = _scored_track([{"A": 1.0}])
    assert fuse_identity(track).identity is None
    assert fuse_identity(track, TrackerParams(min_track_len_for_id=1)).identity is not None


def test_fuse_identity_no_scores_skipped():
    track = _scored_track([None, None, None])
    assert fuse_identity(track).identity is None


def test_fuse_identity_missing_frames_contribute_nothing():
    track = _scored_track([{"A": 0.9}, None, {"A": 0.3}])
    fused = fuse_identity(track)
    assert fused.identity == Identity("A", pytest.approx(0.6))


def test_fuse_identity_tie_goes_to_later_name():
    track = _scored_track([{"A": 0.5, "B": 0.5}] * 3)
    assert fuse_identity(track).identity.name == "B"


def test_fuse_identity_does_not_mutate_input():
    track = _scored_track([{"A": 1.0}] * 3)
    fuse_identity(track)
    assert track.identity is None


def test_fuse_identity_adds_minus_zero_as_zero():
    # the sums start at 0.0, so a -0.0 mean is 0.0, and an equal 0.0 goes to the later name
    track = _scored_track([{"A": -0.0, "B": 0.0}] * 3)
    identity = fuse_identity(track).identity
    assert (identity.name, identity.confidence.hex()) == ("B", (0.0).hex())
    track = _scored_track([{"B": -0.0, "A": 0.0}] * 3)
    assert fuse_identity(track).identity.confidence.hex() == (0.0).hex()


def test_a_track_scores_one_class_list():
    ab, ba = class_scores([{"A": 0.5, "B": 0.5}]), class_scores([{"B": 0.5, "A": 0.5}])
    with pytest.raises(ValueError) as exc:
        Track(0, "v", [Detection(0, BOX, 0.9, ab[0]), Detection(1, BOX, 0.9), Detection(2, BOX, 0.9, ba[0])])
    assert str(exc.value) == "track observations must score one class list"
    # equal lists need not be one object, and unscored observations are exempt
    again = class_scores([{"A": 0.25, "B": 0.75}])
    Track(0, "v", [Detection(0, BOX, 0.9), Detection(1, BOX, 0.9, ab[0]), Detection(2, BOX, 0.9, again[0])])


# ---------------------------------------------------------------------------
# class scores as one row per detection against the object form they replaced:
# the object-form parser and the per-name fusion, kept here as the oracle


def _object_form_stream(text: str, roster):
    """Oracle: the stream parser of the object form, for well-formed streams:
    the stream without scores (Track takes no dicts), and each detection's
    {name: score} object, checked by the object form's own check, by id."""
    frames, scores = [], {}
    for line in text.splitlines():
        obj = json.loads(line)
        detections = []
        for raw in obj["detections"]:
            det = Detection(obj["frame_index"], BBox(*map(float, raw["bbox"])), float(raw["score"]))
            if raw.get("class_scores") is not None:
                scores[id(det)] = ingest._class_scores(raw["class_scores"], roster)
            detections.append(det)
        frames.append(Frame(obj["frame_index"], detections))
    return DetectionStream("v", frames), scores


def _fuse_by_name(track, scores, params):
    """Oracle: the per-name fusion, a sum per name in observation order and the max by (mean, name)."""
    if len(track.observations) < params.min_track_len_for_id:
        return None
    sums: dict[str, float] = {}
    scored_frames = 0
    for obs in track.observations:
        if id(obs) not in scores:
            continue
        scored_frames += 1
        for name, value in scores[id(obs)].items():
            sums[name] = sums.get(name, 0.0) + value
    if scored_frames == 0:
        return None
    means = {name: total / scored_frames for name, total in sums.items()}
    best = max(means, key=lambda name: (means[name], name))
    return Identity(best, means[best])


# few distinct scores, so equal means are common; -0.0 and JSON integers too
_ROW_SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 0, 1, 0.1, 0.2, 0.7]) | st.floats(0.0, 1.0)


@st.composite
def _scored_streams(draw):
    """(roster, classes, frames): the classes a shuffled subset of the roster, and
    frames of boxes on a coarse grid, each scoring every class or none. Most
    boxes stay in their cell from frame to frame, so tracks run long and
    their sums take many adds."""
    pool = ["Ayu", "Bora", "Cai", "ayu", "B2", "Dodo"]
    roster = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6, unique=True))
    classes = draw(st.permutations(roster))[: draw(st.integers(1, len(roster)))]
    cell = st.tuples(st.integers(0, 4), st.integers(0, 2))
    seats = draw(st.lists(cell, min_size=1, max_size=4, unique=True))
    frames = []
    for fi in range(draw(st.integers(1, 10))):
        cells = [seat for seat in seats if draw(st.integers(0, 4))] + draw(st.lists(cell, max_size=1))
        faces = []
        for x, y in cells:
            row = draw(st.none() | st.lists(_ROW_SCORES, min_size=len(classes), max_size=len(classes)))
            faces.append(([x * 40, y * 40, 48, 48], draw(st.sampled_from([0.5, 0.9])), row))
        frames.append((fi, faces))
    return Roster([Individual(name) for name in roster]), classes, frames


def _stream_texts(classes, frames) -> tuple[str, str]:
    """The same scores in the object form (names sorted, as its writer wrote them) and as rows."""
    def lines(scores):
        return "".join(
            json.dumps({"frame_index": fi, "detections": [
                {"bbox": box, "score": score, **({} if row is None else {"class_scores": scores(row)})}
                for box, score, row in faces
            ]}) + "\n"
            for fi, faces in frames
        )

    objects = lines(lambda row: dict(sorted(zip(classes, row))))
    return objects, json.dumps({"classes": classes}) + "\n" + lines(list)


@given(_scored_streams(), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_rows_give_what_the_object_form_gave(case, min_len):
    roster, classes, frames = case
    objects, rows = _stream_texts(classes, frames)
    params = TrackerParams(min_track_len_for_id=min_len)
    prox = ProximityParams(max_gap=3.0)

    stream = parse_detection_stream(rows, "v", roster)
    fused = [fuse_identity(t, params) for t in build_tracks(stream, params)]
    old_stream, scores = _object_form_stream(objects, roster)
    old = [replace(t, identity=_fuse_by_name(t, scores, params)) for t in build_tracks(old_stream, params)]

    def shape(tracks):
        return [(t.track_id, [(o.frame_index, o.bbox, o.score) for o in t.observations]) for t in tracks]

    def identities(tracks):
        return [None if t.identity is None else (t.identity.name, t.identity.confidence.hex()) for t in tracks]

    assert shape(fused) == shape(old)
    assert identities(fused) == identities(old)
    for mode in tracking.ASSOCIATION_MODES:
        assert tracks_to_ledger(fused, mode, prox) == tracks_to_ledger(old, mode, prox)


# ---------------------------------------------------------------------------
# ledgers from tracks


def _identified(track_id, video_id, name, frames, box=BOX):
    observations = [Detection(fi, box, 0.9) for fi in frames]
    return Track(
        track_id=track_id,
        video_id=video_id,
        observations=observations,
        identity=Identity(name, 0.9),
    )


def test_video_level_ledger():
    tracks = [
        _identified(0, "v1", "A", [0, 1]),
        _identified(1, "v1", "B", [0, 1]),
        _identified(0, "v2", "A", [0]),
        Track(track_id=2, video_id="v1", observations=[Detection(0, BOX, 0.5)]),
    ]
    ledger, conflicts = tracks_to_ledger(tracks, mode="video-level")
    by_id = {e.video_id: e.present for e in ledger.entries}
    assert by_id == {"v1": frozenset({"A", "B"}), "v2": frozenset({"A"})}
    assert conflicts == []


def test_identity_conflict_reported_and_kept():
    tracks = [
        _identified(0, "v1", "A", [0, 1]),
        _identified(1, "v1", "A", [1, 2], box=FAR),
    ]
    ledger, conflicts = tracks_to_ledger(tracks, mode="video-level")
    assert ledger.entries[0].present == frozenset({"A"})
    assert len(conflicts) == 1
    assert conflicts[0].video_id == "v1"
    assert conflicts[0].frame_index == 1
    assert conflicts[0].name == "A"
    assert conflicts[0].track_ids == (0, 1)


def test_proximal_ledger_uses_geometry():
    near = BBox(80.0, 0.0, 64.0, 64.0)
    deep = BBox(80.0, 0.0, 64.0, 300.0)
    tracks = [
        _identified(0, "v1", "A", [0]),
        _identified(1, "v1", "B", [0], box=near),
        _identified(2, "v1", "C", [0], box=deep),
    ]
    ledger, _conflicts = tracks_to_ledger(tracks, mode="proximal", prox=ProximityParams())
    assert ledger.entries[0].pairs == frozenset({("A", "B")})


def test_proximal_requires_same_frame():
    tracks = [
        _identified(0, "v1", "A", [0]),
        _identified(1, "v1", "B", [1]),  # same spot, different frame
    ]
    ledger, _ = tracks_to_ledger(tracks, mode="proximal")
    assert ledger.entries[0].pairs == frozenset()


def test_tracks_without_identity_excluded():
    tracks = [Track(track_id=0, video_id="v1", observations=[Detection(0, BOX, 0.9)])]
    ledger, _ = tracks_to_ledger(tracks, mode="video-level")
    assert ledger.entries[0].present == frozenset()


@st.composite
def _ledger_tracks(draw):
    """Tracks over 1-3 videos in any order, names from three, boxes on a coarse grid."""
    tracks = []
    videos = draw(st.lists(st.sampled_from(["v0", "v1", "v2"]), min_size=1, max_size=3, unique=True))
    for video_id in videos:
        for track_id in range(draw(st.integers(1, 6))):
            frames = sorted(draw(st.sets(st.integers(0, 3), min_size=1, max_size=4)))
            observations = [
                Detection(
                    fi,
                    BBox(draw(st.integers(0, 3)) * 40.0, draw(st.integers(0, 1)) * 40.0,
                         48.0, draw(st.sampled_from([48.0, 96.0]))),
                    0.9,
                )
                for fi in frames
            ]
            name = draw(st.none() | st.sampled_from("ABC"))
            identity = None if name is None else Identity(name, 0.9)
            tracks.append(Track(track_id, video_id, observations, identity))
    return draw(st.permutations(tracks))


def _ledger_oracle(tracks, prox):
    """Per video in first-appearance order: present names, proximal pairs;
    and the (video, frame, name, track ids) conflicts, by brute force."""
    videos = list(dict.fromkeys(t.video_id for t in tracks))
    present, pairs, conflicts = {}, {}, []
    for v in videos:
        boxes = [
            (t.identity.name, t.track_id, o.frame_index, o.bbox)
            for t in tracks
            if t.video_id == v and t.identity is not None
            for o in t.observations
        ]
        present[v] = frozenset(name for name, _, _, _ in boxes)
        pairs[v] = frozenset(
            tuple(sorted((na, nb)))
            for (na, _, fa, ba), (nb, _, fb, bb) in itertools.combinations(boxes, 2)
            if fa == fb and na != nb and is_proximal(ba, bb, prox)
        )
        for fi, name in sorted({(f, n) for n, _, f, _ in boxes}):
            ids = sorted(i for n, i, f, _ in boxes if (f, n) == (fi, name))
            if len(ids) > 1:
                conflicts.append((v, fi, name, tuple(ids)))
    return videos, present, pairs, conflicts


@given(_ledger_tracks())
@settings(max_examples=150, deadline=None)
def test_tracks_to_ledger_matches_brute_force(tracks):
    prox = ProximityParams()
    videos, present, pairs, conflicts = _ledger_oracle(tracks, prox)
    for mode, expected in (("video-level", present), ("proximal", pairs)):
        ledger, found = tracks_to_ledger(tracks, mode=mode, prox=prox)
        if mode == "video-level":
            assert [(e.video_id, e.present) for e in ledger.entries] == [(v, expected[v]) for v in videos]
        else:
            assert [(e.video_id, e.pairs) for e in ledger.entries] == [(v, expected[v]) for v in videos]
        assert [(c.video_id, c.frame_index, c.name, c.track_ids) for c in found] == conflicts
