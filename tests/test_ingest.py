"""Tests for wire-format parsers and writers."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
import re
import stat
import subprocess
import sys
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from troopnet import ingest
from troopnet.evaluation import IdSample
from troopnet.geometry import BBox
from troopnet.ingest import (
    AssociationMatrix,
    ClassScores,
    Detection,
    DetectionStream,
    Frame,
    Individual,
    LedgerEntry,
    OccurrenceLedger,
    ParseError,
    Roster,
    atomic_write_bytes,
    atomic_write_text,
    parse_association_matrix,
    parse_detection_stream,
    parse_ground_truth,
    parse_id_samples,
    parse_occurrence_ledger,
    parse_pair_ledger,
    parse_report,
    parse_roster,
    parse_tracks,
    write_detection_stream,
    write_ledger,
    write_matrix,
    write_pair_ledger,
    write_report,
    write_roster,
    write_tracks,
)
from troopnet.network import IndividualMeasures, NetworkReport
from troopnet.synth import NoiseParams, build_scenario
from troopnet.tracking import Identity, Track

from conftest import class_scores, matrix_value, pair_entry, video_entry


# ---------------------------------------------------------------------------
# roster


def test_roster_round_trip():
    roster = Roster(
        [
            Individual("Ayu", "female", 12),
            Individual("Bora", "male", None),
            Individual("Chiro", "unknown", 0),
        ]
    )
    text = write_roster(roster)
    again = parse_roster(text)
    assert again == roster
    assert write_roster(again) == text


def test_roster_blank_age_means_unknown():
    roster = parse_roster("name,sex,age_years\nAyu,female,\n")
    assert roster.individuals[0].age_years is None


def test_roster_header_enforced():
    with pytest.raises(ParseError, match="header"):
        parse_roster("nom,sexe,age\nAyu,female,3\n")


def test_roster_bad_sex_named_with_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_roster("name,sex,age_years\nAyu,f,3\n")


def test_roster_bad_age():
    with pytest.raises(ParseError, match="age_years"):
        parse_roster("name,sex,age_years\nAyu,female,three\n")
    with pytest.raises(ParseError):
        parse_roster("name,sex,age_years\nAyu,female,-1\n")


def test_roster_duplicate_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_roster("name,sex,age_years\nAyu,female,3\nAyu,male,4\n")


def test_roster_needs_an_individual():
    with pytest.raises(ValueError, match="needs at least one individual"):
        Roster([])
    with pytest.raises(ParseError) as exc:
        parse_roster("name,sex,age_years\n")
    assert str(exc.value) == "roster: needs at least one individual"


def test_roster_name_with_comma_rejected():
    # ledger cells join names with commas, so such a name would read back as two
    with pytest.raises(ValueError, match="comma"):
        Individual("Ayu,Bora")
    with pytest.raises(ParseError) as exc:
        parse_roster('name,sex,age_years\nCiri,female,3\n"Ayu,Bora",male,4\n')
    assert str(exc.value) == "roster line 3: individual name 'Ayu,Bora' contains a comma"


def test_roster_is_frozen_with_tuple_individuals():
    roster = Roster([Individual("Ayu"), Individual("Bora")])
    assert roster.individuals == (Individual("Ayu"), Individual("Bora"))
    assert parse_roster(write_roster(roster)) == roster
    with pytest.raises(dataclasses.FrozenInstanceError):
        roster.individuals = (Individual("Ciri"),)


def test_individual_validation():
    with pytest.raises(ValueError):
        Individual("")
    with pytest.raises(ValueError):
        Individual("Ayu", sex="girl")
    with pytest.raises(ValueError):
        Individual("Ayu", age_years=-2)


def test_roster_membership_helpers():
    roster = Roster([Individual("Ayu"), Individual("Bora")])
    assert "Ayu" in roster
    assert "Xan" not in roster
    assert len(roster) == 2
    assert roster.names == ["Ayu", "Bora"]


# ---------------------------------------------------------------------------
# ground truth


def _gt_doc():
    return {
        "images": [
            {"id": 1, "video_id": "v1", "frame_index": 0, "width": 640, "height": 480},
            {"id": 2, "video_id": "v1", "frame_index": 1, "width": 640, "height": 480},
        ],
        "annotations": [
            {"image_id": 1, "bbox": [0, 0, 10, 10], "label": "macaque"},
            {"image_id": 2, "bbox": [5, 5, 20, 20], "label": "macaque"},
        ],
    }


def test_ground_truth_minimal():
    gt = parse_ground_truth(json.dumps(_gt_doc()))
    assert gt == {"v1": {0: [BBox(0, 0, 10, 10)], 1: [BBox(5, 5, 20, 20)]}}


def test_ground_truth_category_resolution():
    doc = _gt_doc()
    doc["categories"] = [{"id": 7, "name": "macaque"}]
    doc["annotations"][0] = {"image_id": 1, "bbox": [0, 0, 10, 10], "category_id": 7}
    assert parse_ground_truth(json.dumps(doc)) == parse_ground_truth(json.dumps(_gt_doc()))


def test_ground_truth_unknown_category():
    doc = _gt_doc()
    doc["annotations"][0] = {"image_id": 1, "bbox": [0, 0, 10, 10], "category_id": 9}
    with pytest.raises(ParseError, match="category_id"):
        parse_ground_truth(json.dumps(doc))


def test_ground_truth_dangling_image_id():
    doc = _gt_doc()
    doc["annotations"][0]["image_id"] = 99
    with pytest.raises(ParseError, match="annotation 0"):
        parse_ground_truth(json.dumps(doc))


def test_ground_truth_bbox_outside_image():
    doc = _gt_doc()
    doc["annotations"][0]["bbox"] = [630, 0, 20, 10]
    with pytest.raises(ParseError, match="bounds"):
        parse_ground_truth(json.dumps(doc))


def test_ground_truth_duplicate_image_id():
    doc = _gt_doc()
    doc["images"][1]["id"] = 1
    with pytest.raises(ParseError, match="duplicate"):
        parse_ground_truth(json.dumps(doc))


def test_ground_truth_frame_index_defaults_to_image_id():
    doc = {"images": [{"id": 5, "width": 10, "height": 10}], "annotations": []}
    assert parse_ground_truth(json.dumps(doc)) == {"": {5: []}}


def test_ground_truth_frames_are_per_video():
    images = [{"id": i, "video_id": v, "frame_index": 0, "width": 10, "height": 10} for i, v in ((1, "a"), (2, "b"))]
    assert parse_ground_truth(json.dumps({"images": images})) == {"a": {0: []}, "b": {0: []}}


def test_ground_truth_malformed_json():
    with pytest.raises(ParseError, match="malformed"):
        parse_ground_truth("{not json")


def test_ground_truth_counts_preserved_at_scale():
    # mirrors an annotated corpus: 3011 images with one box, 2974 empty
    images = [
        {"id": i, "video_id": "v", "frame_index": i, "width": 100, "height": 100}
        for i in range(5985)
    ]
    annotations = [
        {"image_id": i, "bbox": [1, 1, 10, 10], "label": "macaque"} for i in range(3011)
    ]
    gt = parse_ground_truth(json.dumps({"images": images, "annotations": annotations}))
    assert len(gt["v"]) == 5985
    assert sum(len(boxes) for boxes in gt["v"].values()) == 3011


_GT_CATEGORIES = [{"id": 7, "name": "face"}, {"id": "c", "name": "macaque"}]
# the ways an annotation names what it shows: a category id of either type, or a label
_GT_KINDS = [{"category_id": 7}, {"category_id": "c"}, {"label": "face"}]


@st.composite
def _gt_documents(draw):
    """A valid ground-truth document over a few videos, images with and without annotations."""
    images, taken = [], set()
    ids = draw(st.lists(st.one_of(st.integers(0, 20), st.text("ab", min_size=1, max_size=3)), max_size=8, unique=True))
    for img_id in ids:
        rec = {"id": img_id, "width": 100, "height": 80}
        video = draw(st.sampled_from([None, "", "v1", "v2"]))
        if video is not None:
            rec["video_id"] = video
        if isinstance(img_id, int) and draw(st.booleans()):
            frame = img_id  # frame_index absent: the image id stands in
        else:
            frame = rec["frame_index"] = draw(st.integers(0, 20))
        if (video or "", frame) not in taken:
            taken.add((video or "", frame))
            images.append(rec)
    annotations = []
    if images:
        for _ in range(draw(st.integers(0, 12))):
            x, y = draw(st.integers(0, 50)), draw(st.integers(0, 40))
            w, h = draw(st.integers(1, 50)), draw(st.integers(1, 40))
            annotations.append(
                {"image_id": draw(st.sampled_from(images))["id"], "bbox": [x, y, w, h], **draw(st.sampled_from(_GT_KINDS))}
            )
    return {"categories": _GT_CATEGORIES, "images": images, "annotations": annotations}


@given(_gt_documents())
@settings(max_examples=200, deadline=None)
def test_ground_truth_frames_match_the_document(doc):
    # oracle: every image is a frame of its video, every annotation's box is
    # appended to its image's frame, both in document order
    expected: dict[str, dict[int, list[BBox]]] = {}
    frame_of = {}
    for img in doc["images"]:
        video, frame = img.get("video_id", ""), img.get("frame_index", img["id"])
        expected.setdefault(video, {})[frame] = []
        frame_of[img["id"]] = (video, frame)
    for ann in doc["annotations"]:
        video, frame = frame_of[ann["image_id"]]
        expected[video][frame].append(BBox(*ann["bbox"]))
    gt = parse_ground_truth(json.dumps(doc))
    assert [(v, list(frames.items())) for v, frames in gt.items()] == [
        (v, list(frames.items())) for v, frames in expected.items()
    ]


# ---------------------------------------------------------------------------
# detection streams


def _stream():
    (scores,) = class_scores([{"Ayu": 0.6, "Bora": 0.4}])
    return DetectionStream(
        video_id="v1",
        frames=[
            Frame(0, [Detection(0, BBox(0.0, 0.0, 10.0, 10.0), 0.9, scores)]),
            Frame(2, [Detection(2, BBox(1.0, 1.0, 10.0, 10.0), 0.8), Detection(2, BBox(50.0, 50.0, 5.0, 5.0), 0.4)]),
        ],
        classes=("Ayu", "Bora"),
    )


def test_detection_stream_round_trip():
    stream = _stream()
    text = write_detection_stream(stream)
    again = parse_detection_stream(text, "v1")
    assert again == stream
    assert write_detection_stream(again) == text


def test_detection_stream_empty_file():
    stream = parse_detection_stream("", "v1")
    assert stream.video_id == "v1"
    assert stream.frames == []
    assert stream.detection_count == 0


def test_detection_stream_rejects_unsorted_frames():
    lines = (
        json.dumps({"frame_index": 5, "detections": []})
        + "\n"
        + json.dumps({"frame_index": 3, "detections": []})
        + "\n"
    )
    with pytest.raises(ParseError, match="line 2"):
        parse_detection_stream(lines, "v1")


def test_detection_stream_rejects_duplicate_frame():
    lines = (
        json.dumps({"frame_index": 3, "detections": []})
        + "\n"
        + json.dumps({"frame_index": 3, "detections": []})
        + "\n"
    )
    with pytest.raises(ParseError):
        parse_detection_stream(lines, "v1")


def test_detection_stream_score_bounds():
    line = json.dumps({"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 1.5}]})
    with pytest.raises(ParseError, match="score"):
        parse_detection_stream(line, "v1")


def test_detection_stream_class_scores_checked_against_roster():
    roster = Roster([Individual("Ayu")])
    text = '{"classes": ["Zed"]}\n' + json.dumps(
        {
            "frame_index": 0,
            "detections": [{"bbox": [0, 0, 1, 1], "score": 0.5, "class_scores": [1.0]}],
        }
    )
    with pytest.raises(ParseError, match="Zed"):
        parse_detection_stream(text, "v1", roster)
    # without a roster the same lines parse
    stream = parse_detection_stream(text, "v1")
    assert stream.frames[0].detections[0].class_scores == {"Zed": 1.0}


def test_detection_stream_blank_lines_skipped():
    line = json.dumps({"frame_index": 0, "detections": []})
    stream = parse_detection_stream(f"\n{line}\n\n", "v1")
    assert len(stream.frames) == 1


def test_detection_stream_malformed_line_number():
    line = json.dumps({"frame_index": 0, "detections": []})
    with pytest.raises(ParseError, match="line 2"):
        parse_detection_stream(f"{line}\nnot json\n", "v1")


# characters str.splitlines() also breaks at; json.dumps(ensure_ascii=False)
# leaves the first three unescaped inside a string
_LINE_BREAKERS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("ch", _LINE_BREAKERS, ids=[f"U+{ord(c):04X}" for c in _LINE_BREAKERS])
def test_json_lines_split_at_newline_only(ch):
    name = f"a{ch}b"
    roster = parse_roster(write_roster(Roster([Individual(name), Individual("c")])))
    assert roster.names == [name, "c"]
    scores = class_scores([{name: 0.75, "c": 0.25}] * 2)
    observations = [Detection(fi, BBox(0.0, 0.0, 10.0, 10.0), 0.9, scores[fi]) for fi in (0, 1)]
    stream = DetectionStream("v1", [Frame(det.frame_index, [det]) for det in observations], (name, "c"))
    text = write_detection_stream(stream)
    assert (ch in text) == (ch in "\u2028\u2029\x85")
    assert parse_detection_stream(text, "v1", roster) == stream

    tracks = [Track(0, f"v{ch}", observations, Identity(name, 0.75)), Track(1, "v", observations[:1])]
    assert parse_tracks(write_tracks(tracks), roster) == tracks

    sample = json.dumps({"class_scores": {name: 1.0, "c": 0.0}, "true_label": name}, ensure_ascii=False)
    samples = parse_id_samples(f"{sample}\n{sample}\n", roster)
    assert [(s.true_label, s.rank, s.predicted) for s in samples] == [(name, 0, name)] * 2


def test_json_lines_accept_crlf():
    stream = _stream()
    text = write_detection_stream(stream)
    assert parse_detection_stream(text.replace("\n", "\r\n"), "v1") == stream


def _scored_text(classes, *rows) -> str:
    """A stream of one frame per row of class scores, after its classes line."""
    frames = [
        {"frame_index": fi, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9, "class_scores": row}]}
        for fi, row in enumerate(rows)
    ]
    return "".join(json.dumps(obj) + "\n" for obj in [{"classes": classes}, *frames])


def test_class_scores_read_as_a_mapping_in_class_order():
    stream = parse_detection_stream(_scored_text(["b", "a", "c"], [0.5, 0.25, 1]), "v")
    assert stream.classes == ("b", "a", "c")
    cs = stream.frames[0].detections[0].class_scores
    assert list(cs) == ["b", "a", "c"] and sorted(cs) == ["a", "b", "c"]
    assert (cs["a"], cs["c"], len(cs)) == (0.25, 1.0, 3)
    assert type(cs["c"]) is float  # a JSON integer is converted
    assert "a" in cs and "z" not in cs and cs.get("z") is None
    with pytest.raises(KeyError):
        cs["z"]
    assert cs == {"a": 0.25, "b": 0.5, "c": 1.0} == cs
    assert cs != {"a": 0.25, "b": 0.5} and cs != {"a": 0.25, "b": 0.5, "c": 0.75}
    assert list(cs.items()) == [("b", 0.5), ("a", 0.25), ("c", 1.0)]
    with pytest.raises(TypeError):
        cs["a"] = 0.0
    assert repr(cs) == "ClassScores({'b': 0.5, 'a': 0.25, 'c': 1.0})"
    again = pickle.loads(pickle.dumps(cs))
    assert isinstance(again, ClassScores) and again == cs
    assert (again.names, again.positions, again.row) == (cs.names, cs.positions, cs.row)


def test_one_name_index_per_class_list():
    # every detection of a parsed stream or tracks file shares its file's names and positions,
    # and every detection of a synth scenario its roster's positions
    scenario, streams = build_scenario(5, 9, 3, 4, 6, NoiseParams(fp_rate=0.2, fn_rate=0.1))
    built = [d.class_scores for s in streams.values() for f in s.frames for d in f.detections if d.class_scores]
    assert len(built) > 50
    assert {id(cs.positions) for cs in built} == {id(scenario.roster.positions)}
    for stream in streams.values():
        parsed = parse_detection_stream(write_detection_stream(stream), stream.video_id, scenario.roster)
        held = [d.class_scores for f in parsed.frames for d in f.detections if d.class_scores]
        assert len({id(cs.positions) for cs in held}) == len({id(cs.names) for cs in held}) == 1
        assert held[0].names is parsed.classes and parsed.classes == stream.classes == tuple(scenario.roster.names)
        tracks = parse_tracks(write_tracks(scenario.ground_truth_tracks[stream.video_id]), scenario.roster)
        held = [o.class_scores for t in tracks for o in t.observations]
        assert len({id(cs.positions) for cs in held}) == len({id(cs.names) for cs in held}) == 1


def test_writers_refuse_scores_over_other_classes():
    box = BBox(0.0, 0.0, 1.0, 1.0)
    ab, ba = class_scores([{"A": 0.5, "B": 0.5}]) + class_scores([{"B": 0.5, "A": 0.5}])
    message = "class scores over ['B', 'A'] in a file of classes ['A', 'B']"
    with pytest.raises(ValueError) as exc:
        write_detection_stream(DetectionStream("v", [Frame(0, [Detection(0, box, 0.9, ba)])], ("A", "B")))
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:  # a scored stream needs its classes
        write_detection_stream(DetectionStream("v", [Frame(0, [Detection(0, box, 0.9, ab)])]))
    assert str(exc.value) == "class scores over ['A', 'B'] in a file of classes []"
    tracks = [Track(k, "v", [Detection(0, box, 0.9, cs)]) for k, cs in enumerate((ab, ba))]
    with pytest.raises(ValueError) as exc:
        write_tracks(tracks)
    assert str(exc.value) == message
    # unscored detections need no classes line, and the parser reads them without one
    bare = DetectionStream("v", [Frame(0, [Detection(0, box, 0.9)])])
    assert write_detection_stream(bare) == '{"frame_index":0,"detections":[{"bbox":[0.0,0.0,1.0,1.0],"score":0.9}]}\n'
    assert parse_detection_stream(write_detection_stream(bare), "v") == bare


# ---------------------------------------------------------------------------
# occurrence ledgers


def test_ledger_round_trip():
    ledger = OccurrenceLedger(
        [
            video_entry("v1", {"Ayu", "Bora"}),
            video_entry("v2", {"Ayu"}),
            video_entry("v3", set()),
        ]
    )
    text = write_ledger(ledger)
    again = parse_occurrence_ledger(text)
    assert again == ledger
    assert write_ledger(again) == text


def test_ledger_write_orders_by_roster_when_given():
    roster = Roster([Individual("Bora"), Individual("Ayu")])
    ledger = OccurrenceLedger([video_entry("v1", {"Ayu", "Bora"})])
    assert "Bora,Ayu" in write_ledger(ledger, roster)
    assert "Ayu,Bora" in write_ledger(ledger)


def test_ledger_duplicate_video_rejected():
    text = 'video_id,present\nv1,"Ayu"\nv1,"Bora"\n'
    with pytest.raises(ParseError, match="ledger line 3: duplicate video_id 'v1'"):
        parse_occurrence_ledger(text)


def test_ledger_unknown_name_with_roster():
    roster = Roster([Individual("Ayu")])
    with pytest.raises(ParseError, match="Zed"):
        parse_occurrence_ledger('video_id,present\nv1,"Ayu,Zed"\n', roster)
    with pytest.raises(ParseError, match="unknown individual 'Zed'"):  # the first in the cell
        parse_occurrence_ledger('video_id,present\nv1,"Ayu,Zed,Yan,Xi"\n', roster)
    with pytest.raises(ParseError, match="pair ledger line 3: unknown individual 'Zed'"):
        parse_pair_ledger('video_id,pair\n\nv1,"Ayu,Zed"\n', roster)


def test_ledger_empty_file_is_header_only():
    assert write_ledger(OccurrenceLedger([])) == "video_id,present\n"
    assert parse_occurrence_ledger("video_id,present\n").entries == []


def test_pair_ledger_round_trip():
    ledger = OccurrenceLedger([pair_entry("v1", {("Ayu", "Bora"), ("Chiro", "Ayu")}), pair_entry("v2", set())])
    text = write_pair_ledger(ledger)
    assert text == 'video_id,pair\nv1,"Ayu,Bora"\nv1,"Ayu,Chiro"\n'
    # v2 has no pairs, so it cannot survive the pair-per-row format
    assert parse_pair_ledger(text).entries == ledger.entries[:1]


def test_pair_ledger_rejects_self_pair():
    with pytest.raises(ParseError):
        parse_pair_ledger('video_id,pair\nv1,"Ayu,Ayu"\n')


_LEDGER_NAMES = ["Ayu", "Bora", "Zo\u00eb", 'say "hi"', "two\nlines"]


@given(
    st.lists(st.frozensets(st.sampled_from(_LEDGER_NAMES)), max_size=8),
    st.lists(st.frozensets(st.lists(st.sampled_from(_LEDGER_NAMES), min_size=2, max_size=2, unique=True)
                           .map(sorted).map(tuple)), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_ledger_parse_write_parse_gives_equal_entries(presences, pair_sets):
    ledger = OccurrenceLedger([video_entry(f"v{k}", p) for k, p in enumerate(presences)])
    first = parse_occurrence_ledger(write_ledger(ledger))
    assert first == ledger
    assert parse_occurrence_ledger(write_ledger(first)) == first
    ledger = OccurrenceLedger([pair_entry(f"v{k}", p) for k, p in enumerate(pair_sets)])
    first = parse_pair_ledger(write_pair_ledger(ledger))
    assert first.entries == [e for e in ledger.entries if e.records]  # a video without pairs has no row
    assert parse_pair_ledger(write_pair_ledger(first)) == first


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_roster, "name,sex,age_years\nAyu,female,9\n"),
        (parse_occurrence_ledger, 'video_id,present\nv1,"Ayu,Bora"\n'),
        (parse_pair_ledger, 'video_id,pair\nv1,"Ayu,Bora"\n'),
        (parse_association_matrix, ",A,B\nA,,0.5\nB,0.5,\n"),
        (partial(parse_detection_stream, video_id="v1"), '{"frame_index": 0, "detections": []}\n'),
    ],
    ids=["roster", "ledger", "pair-ledger", "matrix", "stream"],
)
def test_bytes_with_a_leading_bom_parse_as_without(parse, text):
    data = text.encode()
    want = parse(data)
    got = parse(b"\xef\xbb\xbf" + data)
    if isinstance(want, AssociationMatrix):  # compared by identity
        assert (got.names, got.values) == (want.names, want.values)
    else:
        assert got == want


def test_ledger_entry_present_and_pairs():
    whole = video_entry("v1", {"Cai", "Ayu", "Bora"})
    assert whole.present == {"Ayu", "Bora", "Cai"}
    assert whole.pairs == {("Ayu", "Bora"), ("Ayu", "Cai"), ("Bora", "Cai")}
    proximal = pair_entry("v1", {("Cai", "Ayu"), ("Ayu", "Bora")})
    assert proximal.records == (frozenset({"Ayu", "Bora"}), frozenset({"Ayu", "Cai"}))
    assert proximal.present == {"Ayu", "Bora", "Cai"}
    assert proximal.pairs == {("Ayu", "Bora"), ("Ayu", "Cai")}
    assert video_entry("v1", set()).records == ()
    assert video_entry("v1", {"Ayu"}).pairs == frozenset()


def test_ledger_entry_takes_keywords_and_no_empty_record():
    with pytest.raises(TypeError):
        LedgerEntry("v1", frozenset({"Ayu", "Bora"}))  # a set of names is not records
    with pytest.raises(ValueError, match="'v1' has an empty joint record"):
        LedgerEntry(video_id="v1", records=(frozenset({"Ayu"}), frozenset()))


# ---------------------------------------------------------------------------
# association matrices


def test_matrix_round_trip_exact():
    names = ["Ayu", "Bora", "Chiro"]
    values = np.array(
        [
            [0.0, 0.37, 0.0],
            [0.37, 0.0, 0.125],
            [0.0, 0.125, 0.0],
        ]
    )
    m = AssociationMatrix(names=names, values=values)
    text = write_matrix(m)
    again = parse_association_matrix(text)
    assert again.names == names
    assert np.array_equal(again.values, values)
    assert write_matrix(again) == text


def test_matrix_triangular_input_symmetrized():
    text = ",Tabu,Baby_Tabu\nTabu,,0.37\nBaby_Tabu,,\n"
    m = parse_association_matrix(text)
    assert matrix_value(m, "Tabu", "Baby_Tabu") == 0.37
    assert matrix_value(m, "Baby_Tabu", "Tabu") == 0.37


def test_matrix_blank_body_is_zero():
    m = parse_association_matrix(",A,B\nA,,\nB,,\n")
    assert m.values == [[0.0, 0.0], [0.0, 0.0]]


def test_matrix_mirror_conflict_rejected():
    text = ",A,B\nA,,0.3\nB,0.5,\n"
    with pytest.raises(ParseError, match="mirror"):
        parse_association_matrix(text)


def test_matrix_mirror_conflict_names_the_first_pair_in_row_order():
    # conflicts at (A, D) and (B, C): row order meets (A, D) first, column order (B, C)
    text = ",A,B,C,D\nA,,,,0.3\nB,,,0.2,\nC,,0.4,,\nD,0.5,,,\n"
    with pytest.raises(ParseError) as info:
        parse_association_matrix(text)
    assert str(info.value) == "matrix: mirror cells ('A', 'D') conflict: 0.3 vs 0.5"


def test_matrix_mirror_agreement_within_tolerance_ok():
    text = ",A,B\nA,,0.3\nB,0.3,\n"
    m = parse_association_matrix(text)
    assert matrix_value(m, "A", "B") == 0.3


def test_matrix_rejects_nonzero_diagonal():
    with pytest.raises(ParseError, match="diagonal"):
        parse_association_matrix(",A,B\nA,0.1,\nB,,\n")


def test_matrix_rejects_out_of_range_value():
    with pytest.raises(ParseError, match="outside"):
        parse_association_matrix(",A,B\nA,,1.2\nB,,\n")


def test_matrix_rejects_duplicate_names():
    with pytest.raises(ParseError, match="duplicate"):
        parse_association_matrix(",A,A\nA,,\nA,,\n")


def test_matrix_rejects_row_order_mismatch():
    with pytest.raises(ParseError, match="header order"):
        parse_association_matrix(",A,B\nB,,\nA,,\n")


def test_matrix_rejects_non_numeric_cell():
    with pytest.raises(ParseError, match="not a number"):
        parse_association_matrix(",A,B\nA,,x\nB,,\n")


def test_association_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        AssociationMatrix(names=["A", "B"], values=np.array([[0.0, 0.3], [0.2, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        AssociationMatrix(names=["A", "B"], values=np.array([[0.1, 0.3], [0.3, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        AssociationMatrix(names=["A"], values=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        AssociationMatrix(names=["A", "A"], values=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        AssociationMatrix(names=["A", "B"], values=np.array([[0.0, np.nan], [np.nan, 0.0]]))


# every message of the constructor, word for word, and a bad input for each
_MATRIX_ERRORS = {
    "no names": ([], [], "matrix needs at least one name"),
    "repeated name": (["A", "A"], [[0.0, 0.0], [0.0, 0.0]], "matrix names must be unique and non-empty"),
    "empty name": (["A", ""], [[0.0, 0.0], [0.0, 0.0]], "matrix names must be unique and non-empty"),
    "too many rows": (["A"], [[0.0, 0.0], [0.0, 0.0]], "matrix shape (2, 2) does not match 1 names"),
    "too few columns": (["A", "B", "C"], [[0.0, 0.0]] * 3, "matrix shape (3, 2) does not match 3 names"),
    "nan": (["A", "B"], [[0.0, math.nan], [math.nan, 0.0]], "matrix values must be finite"),
    "inf": (["A", "B"], [[0.0, math.inf], [math.inf, 0.0]], "matrix values must be finite"),
    "negative": (["A", "B"], [[0.0, -0.5], [-0.5, 0.0]], "matrix values must lie in [0, 1]"),
    "above one": (["A", "B"], [[0.0, 1.5], [1.5, 0.0]], "matrix values must lie in [0, 1]"),
    "diagonal": (["A", "B"], [[0.1, 0.3], [0.3, 0.0]], "matrix diagonal must be exactly zero"),
    "asymmetric": (["A", "B"], [[0.0, 0.3], [0.2, 0.0]], "matrix is not symmetric within 1e-12"),
    "asymmetric by 2e-12": (["A", "B"], [[0.0, 0.3], [0.3 + 2e-12, 0.0]], "matrix is not symmetric within 1e-12"),
}


@pytest.mark.parametrize("case", _MATRIX_ERRORS, ids=list(_MATRIX_ERRORS))
@pytest.mark.parametrize("form", ["list", "ndarray"])
def test_association_matrix_messages_word_for_word(case, form):
    names, rows, message = _MATRIX_ERRORS[case]
    values = rows if form == "list" else np.array(rows, dtype=float)
    with pytest.raises(ValueError) as info:
        AssociationMatrix(names, values)
    assert str(info.value) == message


def test_association_matrix_ragged_rows_are_a_shape_error():
    # a numpy array cannot be ragged, so this message has no ndarray twin
    with pytest.raises(ValueError) as info:
        AssociationMatrix(["A", "B"], [[0.0, 0.5], [0.5]])
    assert str(info.value) == "matrix shape (2, ragged) does not match 2 names"


# a matrix, its rows as lists: zeros of both signs, ones, a weight the
# 1e-12 tolerance lets face a zero, and now and then a bad cell
_CELLS = st.sampled_from([0.0, -0.0, 1.0, 5e-13]) | st.floats(0.0, 1.0)
_BAD_CELLS = st.sampled_from([math.nan, math.inf, -0.5, 1.5, 0.25])


@st.composite
def _matrix_inputs(draw):
    n = draw(st.integers(1, 6))
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(_CELLS)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(_BAD_CELLS)  # off the diagonal an asymmetry, on it a diagonal fault
    return [f"n{k}" for k in range(n)], rows


def _built(names, values):
    """(values as hex, edges) of the matrix, or the message it is refused with."""
    try:
        m = AssociationMatrix(names, values)
    except ValueError as exc:
        return str(exc)
    assert all(type(v) is float for row in m.values for v in row)
    return [[v.hex() for v in row] for row in m.values], m.edges


@given(_matrix_inputs())
@settings(max_examples=300, deadline=None)
def test_ndarray_and_list_forms_build_the_same_matrix(case):
    names, rows = case
    from_list = _built(names, rows)
    assert _built(names, np.array(rows)) == from_list
    if not isinstance(from_list, str):
        # -0.0 reads as 0.0, and the rows are copies of the input's
        assert from_list[0] == [[(v + 0.0).hex() for v in row] for row in rows]


# matrix CSV cells: blanks, zeros of both signs, and weights that face their
# mirror cell blank, equal, within the 1e-9 tolerance or in conflict
_CSV_CELLS = ["", " ", "0", "-0", "-0.0", "0.25", "0.5", "0.5000000005", "1", "1e-300"]


@st.composite
def _matrix_texts(draw):
    n = draw(st.integers(1, 4))
    names = [f"n{k}" for k in range(n)]
    cells = [[draw(st.sampled_from(_CSV_CELLS)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        cells[i][i] = draw(st.sampled_from(["", "0", "-0", "-0.0", "0.5"]))
        for j in range(i):
            cells[i][j] = draw(st.sampled_from(["", cells[j][i], cells[i][j]]))  # triangular, mirrored or free
    rows = [",".join([names[i], *cells[i][: draw(st.integers(0, n))]]) for i in range(n)]  # short rows too
    return "\n".join([",".join(["", *names]), *rows]) + "\n"


@given(_matrix_texts())
@example(",A,B\nA,-0,-0\nB,0,\n")
@settings(max_examples=300, deadline=None)
def test_a_parsed_matrix_is_the_one_its_constructor_builds(text):
    # the parser's proven rows skip the constructor's checks: wherever it accepts a
    # text, they are the rows the constructor builds from them, bit for bit, no -0.0 among them
    try:
        m = parse_association_matrix(text)
    except ParseError:
        return
    rebuilt = AssociationMatrix(m.names, m.values)
    assert [[v.hex() for v in row] for row in rebuilt.values] == [[v.hex() for v in row] for row in m.values]


def test_each_build_of_a_matrix_is_checked_once(tmp_path):
    from troopnet.association import count_occurrences, simple_ratio_matrix
    from troopnet.cli import main
    from troopnet.synth import build_scenario

    check = AssociationMatrix.__post_init__
    with mock.patch.object(AssociationMatrix, "__post_init__", autospec=True, side_effect=check) as checks:
        parse_association_matrix(",A,B\nA,,0.5\nB,0.5,\n")
        assert checks.call_count == 0
        simple_ratio_matrix(count_occurrences(OccurrenceLedger([video_entry("v1", ["A", "B"])])), ["A", "B"])
        assert checks.call_count == 1
        build_scenario(3, 6, 2, 4, 2)
        assert checks.call_count == 2
        assert main(["synth", "--seed", "3", "--individuals", "6", "--matrilines", "2", "--videos", "4",
                     "--frames", "2", "--out-dir", str(tmp_path)]) == 0
        assert checks.call_count == 3


def test_association_matrix_copies_its_rows():
    rows = [[0.0, 0.5], [0.5, 0.0]]
    m = AssociationMatrix(["A", "B"], rows)
    rows[0][1] = rows[1][0] = 0.25
    assert m.values == [[0.0, 0.5], [0.5, 0.0]]


def test_association_matrix_needs_a_name():
    # parse_association_matrix already refuses a header of no names
    with pytest.raises(ValueError, match="at least one name"):
        AssociationMatrix(names=[], values=np.zeros((0, 0)))


def test_association_matrix_helpers():
    m = AssociationMatrix(names=["A", "B"], values=np.array([[0.0, 0.4], [0.4, 0.0]]))
    assert m.n == 2
    assert matrix_value(m, "A", "B") == 0.4


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(1, 8))
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)))
    return AssociationMatrix([f"n{k}" for k in range(n)], values)


@given(_symmetric_matrices())
@example(AssociationMatrix(["A"], np.zeros((1, 1))))
@example(AssociationMatrix(["A", "B", "C"], np.zeros((3, 3))))
@settings(max_examples=200, deadline=None)
def test_matrix_edges_are_each_rows_nonzero_entries(m):
    expected = [
        [(int(j), m.values[i][j]) for j in np.flatnonzero(m.values[i])] for i in range(m.n)
    ]
    assert m.edges == expected
    assert m.edges is m.edges  # derived once, then kept


def test_bundled_matrix_round_trips_bit_exactly(troop_matrix):
    text = write_matrix(troop_matrix)
    again = parse_association_matrix(text)
    assert again.names == troop_matrix.names
    assert np.array_equal(again.values, troop_matrix.values)


# ---------------------------------------------------------------------------
# tracks


def test_tracks_round_trip():
    (scores,) = class_scores([{"Ayu": 0.7, "Bora": 0.3}])
    tracks = [
        Track(
            track_id=0,
            video_id="v1",
            observations=[
                Detection(0, BBox(0.0, 0.0, 10.0, 10.0), 0.9, scores),
                Detection(1, BBox(1.0, 0.0, 10.0, 10.0), 0.8, None),
            ],
            identity=Identity("Ayu", 0.7),
        ),
        Track(
            track_id=1,
            video_id="v1",
            observations=[Detection(4, BBox(5.0, 5.0, 3.0, 3.0), 0.55)],
            identity=None,
        ),
    ]
    text = write_tracks(tracks)
    assert text.startswith('{"classes":["Ayu","Bora"]}\n')
    again = parse_tracks(text)
    assert again == tracks
    assert write_tracks(again) == text


def test_tracks_parse_rejects_bad_observation():
    line = json.dumps(
        {
            "track_id": 0,
            "video_id": "v",
            "observations": [{"frame_index": 0, "bbox": [0, 0, 1, 1], "score": 7.0}],
            "identity": None,
        }
    )
    with pytest.raises(ParseError, match="score"):
        parse_tracks(line)


# ---------------------------------------------------------------------------
# reports


def test_report_round_trip():
    report = NetworkReport(
        density=0.5,
        global_efficiency_binary=0.75,
        global_efficiency_weighted=0.125,
        individuals=[
            IndividualMeasures("Ayu", 2, 0.7, 1.0),
            IndividualMeasures("Bora", 1, 0.4, 0.5),
        ],
        warnings=["example warning"],
    )
    text = write_report(report)
    again = parse_report(text)
    assert again == report
    assert write_report(again) == text


def test_report_parse_rejects_missing_field():
    with pytest.raises(ParseError):
        parse_report(json.dumps({"density": 0.1}))


# ---------------------------------------------------------------------------
# framing and field-type errors: one row per parser and error, with the full message


_parse_stream = partial(parse_detection_stream, video_id="v")
_parse_samples = partial(parse_id_samples, roster=Roster([Individual("A"), Individual("B")]))


def _gt_text(image: dict, annotation: dict | None = None) -> str:
    image = {"id": 1, "width": 10, "height": 10, **image}
    annotation = {"image_id": 1, "bbox": [0, 0, 1, 1], "label": "face", **(annotation or {})}
    return json.dumps({"images": [image], "annotations": [annotation]})


def _track_text(observation: dict | None = None, identity: dict | None = None, **fields) -> str:
    obs = {"frame_index": 0, "bbox": [0, 0, 1, 1], "score": 0.9, **(observation or {})}
    track = {"track_id": 0, "video_id": "v", "observations": [obs], "identity": identity, **fields}
    return json.dumps(track) + "\n"


def _report_text(degree=1, name="A", warnings=(), **fields) -> str:
    ind = {"name": name, "degree": degree, "strength": 0.5, "eigenvector": 1.0}
    return json.dumps(
        {"density": 0.5, "global_efficiency_binary": 0.5, "global_efficiency_weighted": 0.5,
         "individuals": [ind], "warnings": warnings, **fields}
    )


_ONE_NAME_ROSTER = Roster([Individual("Ayu")])


_FRAMING_ERRORS = [
    ("roster-no-header", parse_roster, "", "roster: expected header 'name,sex,age_years'"),
    (
        "roster-wrong-header", parse_roster,
        "name,sex\nA,female\n",
        "roster: expected header 'name,sex,age_years'",
    ),
    (
        "roster-columns", parse_roster,
        "name,sex,age_years\nA,female,3\nB,male\n",
        "roster line 3: expected 3 columns, got 2",
    ),
    (
        "roster-blank-rows-skipped", parse_roster,
        "name,sex,age_years\n\nA,female,3\n,,\nB,male\n",
        "roster line 5: expected 3 columns, got 2",
    ),
    ("ledger-no-header", parse_occurrence_ledger, "", "ledger: expected header 'video_id,present'"),
    (
        "ledger-wrong-header", parse_occurrence_ledger,
        "video_id,pair\nv1,A\n",
        "ledger: expected header 'video_id,present'",
    ),
    (
        "ledger-columns", parse_occurrence_ledger,
        "video_id,present\nv1,A,B\n",
        "ledger line 2: expected 2 columns, got 3",
    ),
    (
        "ledger-blank-rows-skipped", parse_occurrence_ledger,
        "video_id,present\n\nv1,A\n,\nv2\n",
        "ledger line 5: expected 2 columns, got 1",
    ),
    ("pair-no-header", parse_pair_ledger, "", "pair ledger: expected header 'video_id,pair'"),
    (
        "pair-wrong-header", parse_pair_ledger,
        'video_id,present\nv1,"A,B"\n',
        "pair ledger: expected header 'video_id,pair'",
    ),
    (
        "pair-columns", parse_pair_ledger,
        "video_id,pair\nv1\n",
        "pair ledger line 2: expected 2 columns, got 1",
    ),
    (
        "pair-blank-rows-skipped", parse_pair_ledger,
        'video_id,pair\n\n,\nv1,"A,B",x\n',
        "pair ledger line 4: expected 2 columns, got 3",
    ),
    (
        "stream-malformed", _parse_stream,
        '{"frame_index": 0}\n{"frame_index": 1,\n',
        "line 2: malformed JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 19 (char 18)",
    ),
    (
        "stream-blank-lines-skipped", _parse_stream,
        '\n{"frame_index": 0}\n  \n{oops}\n',
        "line 4: malformed JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    (
        "tracks-malformed", parse_tracks,
        '{"track_id": \n',
        "tracks line 1: malformed JSON: Expecting value: line 1 column 14 (char 13)",
    ),
    (
        "tracks-blank-lines-skipped", parse_tracks,
        "\n\n[1,\n",
        "tracks line 3: malformed JSON: Expecting value: line 1 column 4 (char 3)",
    ),
    (
        "samples-malformed", _parse_samples,
        '{"class_scores": {"A": 1.0}, "true_label": "A"}\n{"class_scores"\n',
        "samples line 2: malformed JSON: Expecting ':' delimiter: line 1 column 16 (char 15)",
    ),
    (
        "samples-blank-lines-skipped", _parse_samples,
        '\n \n{"true_label": "A"}\n',
        "samples line 3: needs 'class_scores' and 'true_label'",
    ),
    ("samples-none", _parse_samples, "\n\n", "samples file contains no samples"),
    (
        "samples-true-label-number", _parse_samples,
        '{"class_scores": {"A": 1.0}, "true_label": 5}\n',
        "samples line 1: true_label must be a string, got 5",
    ),
    # samples name only roster individuals, and score their true label
    (
        "samples-score-name-off-roster", _parse_samples,
        '{"class_scores": {"A": 0.1, "ghost": 0.9}, "true_label": "A"}\n',
        "samples line 1: unknown individual 'ghost' in class_scores",
    ),
    (
        "samples-true-label-off-roster", _parse_samples,
        '{"class_scores": {"A": 1.0}, "true_label": "zzz"}\n',
        "samples line 1: unknown individual 'zzz' in true_label",
    ),
    (
        "samples-true-label-unscored", _parse_samples,
        '\n{"class_scores": {"A": 1.0}, "true_label": "B"}\n',
        "samples line 2: true_label 'B' has no class score",
    ),
    (
        "ground-truth-malformed", parse_ground_truth,
        "{",
        "ground truth: malformed JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    (
        "report-malformed", parse_report,
        "[",
        "report: malformed JSON: Expecting value: line 1 column 2 (char 1)",
    ),
    ("matrix-blank-rows-only", parse_association_matrix, "\n,\n", "matrix: empty input"),
    # field types: integers are never bools or floats, ids never lists or objects
    (
        "gt-image-id-list", parse_ground_truth, _gt_text({"id": [1]}),
        "ground truth: image 0: 'id' must be an integer or a string, got [1]",
    ),
    (
        "gt-image-id-object", parse_ground_truth, _gt_text({"id": {"k": 1}}),
        "ground truth: image 0: 'id' must be an integer or a string, got {'k': 1}",
    ),
    (
        "gt-image-id-bool", parse_ground_truth, _gt_text({"id": True}),
        "ground truth: image 0: 'id' must be an integer or a string, got True",
    ),
    (
        "gt-annotation-image-id-list", parse_ground_truth, _gt_text({}, {"image_id": [1]}),
        "ground truth: annotation 0: image_id must be an integer or a string, got [1]",
    ),
    (
        "gt-annotation-image-id-float", parse_ground_truth, _gt_text({}, {"image_id": 1.0}),
        "ground truth: annotation 0: image_id must be an integer or a string, got 1.0",
    ),
    (
        "gt-annotation-category-id-list", parse_ground_truth, _gt_text({}, {"category_id": [7]}),
        "ground truth: annotation 0: category_id must be an integer or a string, got [7]",
    ),
    (
        "gt-video-id-list", parse_ground_truth, _gt_text({"video_id": [5]}),
        "ground truth: image 0 (id 1): video_id must be a string, got [5]",
    ),
    (
        "gt-frame-index-bool", parse_ground_truth, _gt_text({"frame_index": True}),
        "ground truth: image 0 (id 1): frame_index must be an integer",
    ),
    # one image per (video, frame), and a frame index the file gave or an integer id implies
    (
        "gt-frame-taken", parse_ground_truth,
        json.dumps({"images": [{"id": i, "video_id": "v", "frame_index": 0, "width": 10, "height": 10}
                               for i in (1, 2)]}),
        "ground truth: image 1 (id 2): video 'v' frame 0 already belongs to image id 1",
    ),
    (
        "gt-frame-index-missing-string-id", parse_ground_truth,
        json.dumps({"images": [{"id": "a", "width": 10, "height": 10}]}),
        "ground truth: image 0: needs 'frame_index' (image id 'a' is not an integer)",
    ),
    # an empty class-score row is refused, not fused as a scored frame, and so is an empty class list
    (
        "stream-class-scores-empty", _parse_stream,
        '{"classes": ["A"]}\n'
        '{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9, "class_scores": []}]}\n',
        "line 2: detection 0: class_scores has 0 entries; the classes line names 1",
    ),
    (
        "tracks-class-scores-empty", parse_tracks, '{"classes": ["A"]}\n' + _track_text({"class_scores": []}),
        "tracks line 2: observation 0: class_scores has 0 entries; the classes line names 1",
    ),
    ("stream-classes-empty", _parse_stream, '{"classes": []}\n', "line 1: classes must be a non-empty list, got []"),
    (
        "tracks-classes-empty", parse_tracks, '\n{"classes": []}\n',
        "tracks line 2: classes must be a non-empty list, got []",
    ),
    (
        "stream-frame-index-bool", _parse_stream, '{"frame_index": true, "detections": []}\n',
        "line 1: needs integer 'frame_index'",
    ),
    (
        "stream-frame-index-float", _parse_stream, '{"frame_index": 2.0, "detections": []}\n',
        "line 1: needs integer 'frame_index'",
    ),
    (
        "stream-detection-not-object", _parse_stream, '{"frame_index": 0, "detections": [1]}\n',
        "line 1: detection 0: not an object",
    ),
    (
        "tracks-frame-index-bool", parse_tracks, _track_text({"frame_index": True}),
        "tracks line 1: observation 0: needs integer frame_index",
    ),
    (
        "tracks-observation-not-object", parse_tracks, _track_text().replace('[{', '[1, {'),
        "tracks line 1: observation 0: not an object",
    ),
    (
        "tracks-track-id-float", parse_tracks, _track_text(track_id=1.7),
        "tracks line 1: expected an integer, got 1.7",
    ),
    (
        "tracks-track-id-bool", parse_tracks, _track_text(track_id=True),
        "tracks line 1: expected an integer, got True",
    ),
    (
        "tracks-video-id-number", parse_tracks, _track_text(video_id=5),
        "tracks line 1: video_id must be a string, got 5",
    ),
    (
        "tracks-identity-name-number", parse_tracks, _track_text(identity={"name": 5, "confidence": 0.5}),
        "tracks line 1: identity name must be a string, got 5",
    ),
    (
        "tracks-confidence-above-one", parse_tracks, _track_text(identity={"name": "Ayu", "confidence": 7}),
        "tracks line 1: identity confidence 7.0 outside [0, 1]",
    ),
    (
        "tracks-confidence-nan", parse_tracks, _track_text(identity={"name": "Ayu", "confidence": math.nan}),
        "tracks line 1: identity confidence nan outside [0, 1]",
    ),
    (
        "tracks-identity-off-roster", partial(parse_tracks, roster=_ONE_NAME_ROSTER),
        _track_text(identity={"name": "Zed", "confidence": 0.9}),
        "tracks line 1: unknown individual 'Zed' in identity",
    ),
    ("report-no-density", parse_report, "{}", "report: needs 'density'"),
    (
        "report-no-degree", parse_report, _report_text().replace('"degree": 1, ', ""),
        "report: individual 0: needs 'degree'",
    ),
    (
        "report-degree-float", parse_report, _report_text(2.9),
        "report: individual 0: degree: expected an integer, got 2.9",
    ),
    (
        "report-degree-bool", parse_report, _report_text(True),
        "report: individual 0: degree: expected an integer, got True",
    ),
    # strings are JSON strings, never the text of a list or an object
    (
        "gt-category-name-list", parse_ground_truth,
        json.dumps({"categories": [{"id": 7, "name": ["face"]}], "images": [], "annotations": []}),
        "ground truth: category 0: name must be a string, got ['face']",
    ),
    (
        "gt-annotation-label-list", parse_ground_truth, _gt_text({}, {"label": ["face"]}),
        "ground truth: annotation 0: label must be a string, got ['face']",
    ),
    (
        "report-name-list", parse_report, _report_text(name=["A"]),
        "report: individual 0: name must be a string, got ['A']",
    ),
    (
        "report-warning-object", parse_report, _report_text(warnings=["ok", {"x": 1}]),
        "report: warning 1 must be a string, got {'x': 1}",
    ),
    # list fields are JSON lists: a string is not a list of its characters
    (
        "report-warnings-string", parse_report, _report_text(warnings="abc"),
        "report: warnings must be a list, got 'abc'",
    ),
    (
        "report-individuals-object", parse_report, _report_text(individuals={"A": 1}),
        "report: individuals must be a list, got {'A': 1}",
    ),
    ("report-top-level-list", parse_report, "[]", "report: top level must be a JSON object"),
    (
        "report-individual-number", parse_report, _report_text(individuals=[5]),
        "report: individual 0 must be an object, got 5",
    ),
    (
        "gt-images-number", parse_ground_truth, json.dumps({"images": 5}),
        "ground truth: images must be a list, got 5",
    ),
    (
        "gt-annotations-object", parse_ground_truth, json.dumps({"images": [], "annotations": {"image_id": 1}}),
        "ground truth: annotations must be a list, got {'image_id': 1}",
    ),
    (
        "gt-categories-string", parse_ground_truth, json.dumps({"categories": "face", "images": []}),
        "ground truth: categories must be a list, got 'face'",
    ),
    # image sizes: positive and finite, so that the bounds check means something
    (
        "gt-size-nan", parse_ground_truth, _gt_text({"width": math.nan, "height": math.nan}, {"bbox": [500, 0, 1, 1]}),
        "ground truth: image 0 (id 1): dimensions must be positive and finite, got nanxnan",
    ),
    (
        "gt-width-nan", parse_ground_truth, _gt_text({"width": math.nan}),
        "ground truth: image 0 (id 1): dimensions must be positive and finite, got nanx10.0",
    ),
    (
        "gt-height-inf", parse_ground_truth, _gt_text({"height": math.inf}),
        "ground truth: image 0 (id 1): dimensions must be positive and finite, got 10.0xinf",
    ),
    # category ids are checked like image ids
    (
        "gt-category-id-bool", parse_ground_truth,
        json.dumps({"categories": [{"id": True, "name": "face"}], "images": [{"id": 1, "width": 10, "height": 10}],
                    "annotations": [{"image_id": 1, "bbox": [0, 0, 1, 1], "category_id": 1}]}),
        "ground truth: category 0: 'id' must be an integer or a string, got True",
    ),
    (
        "gt-category-id-list", parse_ground_truth,
        json.dumps({"categories": [{"id": [7], "name": "face"}], "images": [], "annotations": []}),
        "ground truth: category 0: 'id' must be an integer or a string, got [7]",
    ),
    (
        "gt-category-id-duplicate", parse_ground_truth,
        json.dumps({"categories": [{"id": 7, "name": "face"}, {"id": 7, "name": "tail"}], "images": []}),
        "ground truth: category 1: duplicate category id 7",
    ),
    # tracks files: every error names its field
    ("tracks-line-not-object", parse_tracks, "[1, 2]\n", "tracks line 1: track must be an object, got [1, 2]"),
    (
        "tracks-track-id-missing", parse_tracks, '{"video_id": "v", "observations": []}\n',
        "tracks line 1: track needs 'track_id'",
    ),
    (
        "tracks-observations-missing", parse_tracks, '{"track_id": 0, "video_id": "v"}\n',
        "tracks line 1: track needs 'observations'",
    ),
    (
        "tracks-observations-number", parse_tracks, _track_text(observations=5),
        "tracks line 1: observations must be a list, got 5",
    ),
    (
        "tracks-identity-string", parse_tracks, _track_text(identity="A"),
        "tracks line 1: identity must be an object, got 'A'",
    ),
    (
        "tracks-confidence-missing", parse_tracks, _track_text(identity={"name": "Ayu"}),
        "tracks line 1: identity needs 'confidence'",
    ),
    # identity names follow a roster name's rules, as ledger cells join names with commas
    (
        "tracks-identity-name-comma", parse_tracks, _track_text(identity={"name": "Ayu,Bora", "confidence": 1}),
        "tracks line 1: individual name 'Ayu,Bora' contains a comma",
    ),
    (
        "tracks-identity-name-empty", parse_tracks, _track_text(identity={"name": "", "confidence": 1}),
        "tracks line 1: individual name must be non-empty",
    ),
    # numbers in CSV cells: plain ASCII, without Python's digit-group underscores
    (
        "roster-age-underscore", parse_roster, "name,sex,age_years\nA,female,1_0\n",
        "roster line 2: age_years '1_0' is not an integer",
    ),
    (
        "roster-age-non-ascii-digits", parse_roster, "name,sex,age_years\nA,female,\u0661\u0660\n",
        "roster line 2: age_years '\u0661\u0660' is not an integer",
    ),
    (
        "matrix-cell-underscore", parse_association_matrix, ",A,B\nA,,0.2_5\nB,0.25,\n",
        "matrix row 2, column 'B': '0.2_5' is not a number",
    ),
    (
        "matrix-cell-non-ascii-digits", parse_association_matrix, ",A,B\nA,,0.\u0665\nB,0.5,\n",
        "matrix row 2, column 'B': '0.\u0665' is not a number",
    ),
    # a JSON integer beyond float range is refused like any other bad number
    (
        "stream-score-beyond-float", _parse_stream,
        '{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 1%s}]}\n' % ("0" * 400),
        "line 1: detection 0: score: expected a number, got an integer too large for a float",
    ),
    (
        "tracks-bbox-side-beyond-float", parse_tracks, _track_text({"bbox": [0, 0, 10**400, 1]}),
        "tracks line 1: observation 0: bbox[2]: expected a number, got an integer too large for a float",
    ),
    # a bad number is named by its field
    (
        "stream-bbox-side-string", _parse_stream,
        '{"frame_index": 0, "detections": [{"bbox": [0, 0, "1", 1], "score": 1}]}\n',
        "line 1: detection 0: bbox[2]: expected a number, got '1'",
    ),
    (
        "stream-score-string", _parse_stream,
        '{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": "1"}]}\n',
        "line 1: detection 0: score: expected a number, got '1'",
    ),
    (
        "gt-bbox-side-string", parse_ground_truth, _gt_text({}, {"bbox": [0, 0, 1, "1"]}),
        "ground truth: annotation 0: bbox[3]: expected a number, got '1'",
    ),
    (
        "samples-score-beyond-float", _parse_samples,
        '{"class_scores": {"A": 1%s}, "true_label": "A"}\n' % ("0" * 400),
        "samples line 1: class_scores['A']: expected a number, got an integer too large for a float",
    ),
    (
        "gt-width-beyond-float", parse_ground_truth, _gt_text({"width": 10**400}),
        "ground truth: image 0 (id 1): needs numeric 'width' and 'height'",
    ),
    # json refuses an integer of more than 4,300 digits with a plain ValueError
    (
        "stream-integer-past-digit-limit", _parse_stream,
        '{"frame_index": 0}\n{"frame_index": 1%s}\n' % ("0" * 4300),
        "line 2: malformed JSON: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit",
    ),
    # ground-truth records: ids, references, bounds and a category or label
    (
        "gt-category-no-name", parse_ground_truth, json.dumps({"categories": [{"id": 7}], "images": []}),
        "ground truth: category 0: needs 'id' and 'name'",
    ),
    (
        "gt-image-no-id", parse_ground_truth, json.dumps({"images": [{"width": 10, "height": 10}]}),
        "ground truth: image 0: missing 'id'",
    ),
    (
        "gt-image-id-duplicate", parse_ground_truth,
        json.dumps({"images": [{"id": 1, "width": 10, "height": 10}, {"id": 1, "width": 10, "height": 10}]}),
        "ground truth: image 1: duplicate image id 1",
    ),
    (
        "gt-annotation-image-id-unknown", parse_ground_truth, _gt_text({}, {"image_id": 2}),
        "ground truth: annotation 0: unknown image_id 2",
    ),
    (
        "gt-annotation-category-id-unknown", parse_ground_truth, _gt_text({}, {"category_id": 3}),
        "ground truth: annotation 0: unknown category_id 3",
    ),
    (
        "gt-bbox-outside-image", parse_ground_truth, _gt_text({}, {"bbox": [5, 5, 6, 1]}),
        "ground truth: annotation 0: bbox exceeds image bounds (10.0x10.0)",
    ),
    (
        "gt-annotation-no-category-or-label", parse_ground_truth,
        json.dumps({"images": [{"id": 1, "width": 10, "height": 10}],
                    "annotations": [{"image_id": 1, "bbox": [0, 0, 1, 1]}]}),
        "ground truth: annotation 0: needs 'category_id' or 'label'",
    ),
    # matrix headers and rows
    ("matrix-header-no-names", parse_association_matrix, "corner\n", "matrix: header row has no names"),
    (
        "matrix-header-empty-name", parse_association_matrix, ",A,,B\nA,,,0.5\n,,,\nB,0.5,,\n",
        "matrix: header contains an empty name",
    ),
    (
        "matrix-row-out-of-order", parse_association_matrix, ",A,B\nB,,0.5\nA,0.5,\n",
        "matrix row 2: expected name 'A' (header order), got 'B'",
    ),
    (
        "matrix-row-too-long", parse_association_matrix, ",A,B\nA,,0.5,0.1\nB,0.5,\n",
        "matrix row 2: more cells than names",
    ),
    (
        "matrix-diagonal-nonzero", parse_association_matrix, ",A,B\nA,0.5,0.5\nB,0.5,\n",
        "matrix row 2: nonzero diagonal value 0.5",
    ),
    (
        "pair-cell-one-name-twice", parse_pair_ledger, 'video_id,pair\nv1,"A,A"\n',
        "pair ledger line 2: pair cell must join two distinct names",
    ),
    (
        "stream-detections-object", _parse_stream, '{"frame_index": 0, "detections": {}}\n',
        "line 1: detections must be a list",
    ),
    # class scores: a classes line names the classes once, and each detection holds a row of them
    (
        "stream-object-form-scores", _parse_stream,
        '{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9, "class_scores": {"A": 1.0}}]}\n',
        'line 1: detection 0: class_scores is an object; scores are now a list in the order of the "classes" line',
    ),
    (
        "tracks-object-form-scores", parse_tracks, '{"classes": ["A"]}\n' + _track_text({"class_scores": {"A": 1}}),
        'tracks line 2: observation 0: class_scores is an object; '
        'scores are now a list in the order of the "classes" line',
    ),
    (
        "stream-scores-without-classes", _parse_stream,
        '{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9}]}\n'
        '{"frame_index": 1, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9, "class_scores": [1.0]}]}\n',
        'line 2: detection 0: class_scores needs a "classes" line first in the file',
    ),
    (
        "tracks-scores-without-classes", parse_tracks, _track_text({"class_scores": [1.0]}),
        'tracks line 1: observation 0: class_scores needs a "classes" line first in the file',
    ),
    (
        "stream-classes-not-first", _parse_stream, '{"frame_index": 0}\n{"classes": ["A"]}\n',
        "line 2: needs integer 'frame_index'",
    ),
    (
        "stream-classes-line-holds-a-frame", _parse_stream,
        '{"classes": ["A"], "frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9}]}\n'
        '{"frame_index": 1, "detections": []}\n',
        'line 1: the classes line may hold only "classes", not \'frame_index\', \'detections\'',
    ),
    (
        "tracks-classes-line-holds-a-track", parse_tracks, '{"classes": ["A"], ' + _track_text()[1:],
        'tracks line 1: the classes line may hold only "classes", '
        "not 'track_id', 'video_id', 'observations', 'identity'",
    ),
    (
        "stream-duplicate-class", _parse_stream, '{"classes": ["A", "B", "A"]}\n',
        "line 1: duplicate class 'A' in classes",
    ),
    (
        "stream-class-off-roster", partial(_parse_stream, roster=_ONE_NAME_ROSTER), '{"classes": ["Ayu", "ghost"]}\n',
        "line 1: unknown individual 'ghost' in classes",
    ),
    (
        "tracks-class-off-roster", partial(parse_tracks, roster=_ONE_NAME_ROSTER), '{"classes": ["Zed"]}\n',
        "tracks line 1: unknown individual 'Zed' in classes",
    ),
    ("stream-class-number", _parse_stream, '{"classes": ["A", 5]}\n', "line 1: classes[1] must be a string, got 5"),
    (
        "stream-classes-string", _parse_stream, '{"classes": "AB"}\n',
        "line 1: classes must be a non-empty list, got 'AB'",
    ),
    (
        "stream-scores-too-long", _parse_stream,
        '{"classes": ["A"]}\n{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9, '
        '"class_scores": [0.5, 0.5]}]}\n',
        "line 2: detection 0: class_scores has 2 entries; the classes line names 1",
    ),
    (
        "stream-scores-string", _parse_stream,
        '{"classes": ["A"]}\n{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9, '
        '"class_scores": "0.5"}]}\n',
        "line 2: detection 0: class_scores must be a list, got '0.5'",
    ),
    (
        "stream-score-entry-string", _parse_stream,
        '{"classes": ["A", "B", "C"]}\n{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9, '
        '"class_scores": [0.5, 0.25, "0.25"]}]}\n',
        "line 2: detection 0: class_scores[2]: expected a number, got '0.25'",
    ),
    (
        "stream-score-entry-range", _parse_stream,
        '{"classes": ["A", "B", "C", "D"]}\n{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 0.9, '
        '"class_scores": [0.5, 0.25, 0, 1.5]}]}\n',
        "line 2: detection 0: class_scores[3] = 1.5 outside [0, 1]",
    ),
    (
        "tracks-score-entry-beyond-float", parse_tracks,
        '{"classes": ["A", "B"]}\n' + _track_text({"class_scores": [1, 10**400]}),
        "tracks line 2: observation 0: class_scores[1]: expected a number, got an integer too large for a float",
    ),
]


@pytest.mark.parametrize(
    "parse,text,message", [row[1:] for row in _FRAMING_ERRORS], ids=[row[0] for row in _FRAMING_ERRORS]
)
def test_framing_error_messages(parse, text, message):
    for data in (text, text.encode("utf-8")):
        with pytest.raises(ParseError) as exc:
            parse(data)
        assert str(exc.value) == message


def test_number_cells_keep_blanks_and_surrounding_spaces():
    roster = parse_roster("name,sex,age_years\nA,female, 10 \nB,male,\n")
    assert [ind.age_years for ind in roster.individuals] == [10, None]
    matrix = parse_association_matrix(",A,B,C\nA,, 0.25 ,  \nB,0.25,,\nC,,,\n")
    assert matrix.values == [[0.0, 0.25, 0.0], [0.25, 0.0, 0.0], [0.0, 0.0, 0.0]]


# only JSON's whitespace (space, tab, CR and LF) makes a JSON-lines line or a matrix cell blank
_NOT_BLANK = {"no-break-space": "\xa0", "line-separator": "\u2028", "form-feed": "\f", "file-separator": "\x1c"}


@pytest.mark.parametrize("space", _NOT_BLANK.values(), ids=_NOT_BLANK.keys())
def test_a_line_of_other_whitespace_is_not_blank(space):
    for parse, line, place in [
        (_parse_stream, '{"frame_index": 0}\n', "line"),
        (parse_tracks, _track_text(), "tracks line"),
        (_parse_samples, '{"class_scores": {"A": 1.0}, "true_label": "A"}\n', "samples line"),
    ]:
        parse(line + " \t\r\n")  # a line of JSON whitespace is blank
        with pytest.raises(ParseError) as exc:
            parse(line + space + "\n")
        assert str(exc.value) == f"{place} 2: malformed JSON: Expecting value: line 1 column 1 (char 0)"


@pytest.mark.parametrize("space", _NOT_BLANK.values(), ids=_NOT_BLANK.keys())
def test_a_matrix_cell_of_other_whitespace_is_not_a_number(space):
    with pytest.raises(ParseError) as exc:
        parse_association_matrix(f",A,B\nA,,{space}\nB,,\n")
    assert str(exc.value) == f"matrix row 2, column 'B': {space!r} is not a number"


# ---------------------------------------------------------------------------
# well-formed records with any field replaced by any JSON value: only a
# ParseError escapes, and it begins with the record's place


_AB = Roster([Individual("A"), Individual("B")])
_DETECTION = {"bbox": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class_scores": [0.75, 0.25]}
_WELL_FORMED = {
    # name: (parser, JSON lines or one document, the records, the place every error begins with)
    "stream": (
        partial(parse_detection_stream, video_id="v", roster=_AB), True,
        [
            {"classes": ["A", "B"]},
            {"frame_index": 0, "detections": [_DETECTION]},
            {"frame_index": 1, "detections": [_DETECTION] * 2},
        ],
        r"line \d+: ",
    ),
    "tracks": (
        partial(parse_tracks, roster=_AB), True,
        [
            {"classes": ["B", "A"]},
            {"track_id": 0, "video_id": "v", "identity": {"name": "A", "confidence": 0.75},
             "observations": [{"frame_index": 0, **_DETECTION}, {"frame_index": 1, **_DETECTION}]},
            {"track_id": 1, "video_id": "v", "identity": None, "observations": [{"frame_index": 0, **_DETECTION}]},
        ],
        r"tracks line \d+: ",
    ),
    "samples": (
        partial(parse_id_samples, roster=_AB), True,
        [{"class_scores": {"A": 0.75, "B": 0.25}, "true_label": "B"}, {"class_scores": {"A": 1}, "true_label": "A"}],
        r"samples line \d+: ",
    ),
    "report": (
        parse_report, False,
        {"density": 0.5, "global_efficiency_binary": 0.5, "global_efficiency_weighted": 0.25, "warnings": ["w"],
         "individuals": [{"name": n, "degree": 1, "strength": 0.5, "eigenvector": 1.0} for n in "AB"]},
        "report: ",
    ),
    "ground-truth": (
        parse_ground_truth, False,
        {
            "categories": [{"id": 1, "name": "face"}],
            "images": [{"id": 1, "video_id": "v", "frame_index": 0, "width": 10, "height": 10},
                       {"id": "b", "frame_index": 1, "width": 10, "height": 10}],
            "annotations": [{"image_id": 1, "bbox": [0, 0, 5, 5], "category_id": 1},
                            {"image_id": "b", "bbox": [1, 1, 2, 2], "label": "face"}],
        },
        "ground truth: ",
    ),
}
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.just(10**400),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def _paths(value, path=()):
    """The path to value and to every list item and object member inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@pytest.mark.parametrize("name", _WELL_FORMED)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_only_a_parse_error_naming_the_record_escapes(name, data):
    parse, lines, records, place = _WELL_FORMED[name]
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_paths(records))[1 if lines else 0 :]  # each line stays a line
        records = _replaced(records, data.draw(st.sampled_from(paths)), data.draw(_JSON_VALUES))
    text = "".join(json.dumps(r) + "\n" for r in records) if lines else json.dumps(records)
    try:
        parse(text)
    except ParseError as exc:
        assert re.match(place, str(exc)), str(exc)


@pytest.mark.parametrize("name", _WELL_FORMED)
def test_the_records_fuzzed_are_well_formed(name):
    parse, lines, records, _ = _WELL_FORMED[name]
    parse("".join(json.dumps(r) + "\n" for r in records) if lines else json.dumps(records))


def test_id_samples_parse_bytes_like_text():
    text = (
        '{"class_scores": {"A": 0.75, "B": 0.25}, "true_label": "B"}\n'
        "\n"
        '{"class_scores": {"A": 1}, "true_label": "A"}\n'
    )
    samples = _parse_samples(text)
    assert [(s.true_label, s.rank, s.predicted) for s in samples] == [("B", 1, "A"), ("A", 0, "A")]
    assert _parse_samples(text.encode("utf-8")) == samples


_FIVE = Roster([Individual(name) for name in "ABCDE"])
_WHOLE_SCORES = st.sampled_from([0.0, -0.0, 1.0])  # the values a JSON integer can stand for


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_integer_and_float_scores_give_equal_samples(data):
    # a sample's object is ranked as json read it: 1 == 1.0 and 0 == -0.0 == 0.0, so no copy converts it
    names = data.draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True))
    floats = data.draw(st.fixed_dictionaries({nm: _WHOLE_SCORES | st.floats(0.0, 1.0) for nm in names}))
    label = data.draw(st.sampled_from(names))
    ints = {nm: int(v) if v.is_integer() and data.draw(st.booleans()) else v for nm, v in floats.items()}
    texts = [json.dumps({"class_scores": scores, "true_label": label}) + "\n" for scores in (floats, ints)]
    (from_floats,), (from_ints,) = (parse_id_samples(text, _FIVE) for text in texts)
    assert from_ints == from_floats == IdSample(floats, label) == IdSample(ints, label)


_BAD_SAMPLE_SCORES = [
    ('"0.9"', "class_scores['B']: expected a number, got '0.9'"),
    ("true", "class_scores['B']: expected a number, got True"),
    ("null", "class_scores['B']: expected a number, got None"),
    ("NaN", "class_scores['B'] = nan outside [0, 1]"),
    ("Infinity", "class_scores['B'] = inf outside [0, 1]"),
    ("1.5", "class_scores['B'] = 1.5 outside [0, 1]"),
    ("-0.2", "class_scores['B'] = -0.2 outside [0, 1]"),
]


@pytest.mark.parametrize("score,message", _BAD_SAMPLE_SCORES, ids=[row[0] for row in _BAD_SAMPLE_SCORES])
def test_id_samples_scores_are_numbers_in_the_unit_interval(score, message):
    text = (
        '{"class_scores": {"A": 0.5}, "true_label": "A"}\n'
        '{"class_scores": {"A": 0, "B": %s}, "true_label": "B"}\n' % score
    )
    with pytest.raises(ParseError) as exc:
        _parse_samples(text)
    assert str(exc.value) == f"samples line 2: {message}"


# ---------------------------------------------------------------------------
# the whole-dict and whole-row class-score checks against the per-entry code
# behind them, and the one detection path against the two it replaced


def _oracle_bbox(raw):
    if not isinstance(raw, list) or len(raw) != 4:
        raise ValueError("bbox must be [x, y, w, h]")
    for k, v in enumerate(raw):
        ingest._num(v, f"bbox[{k}]: ")
    return BBox(ingest._num(raw[0]), ingest._num(raw[1]), ingest._num(raw[2]), ingest._num(raw[3]))


def _oracle_scores(obj, names):
    raw_scores = obj.get("class_scores")
    if raw_scores is None:
        return None
    return ClassScores(names, _POSITIONS.get(names), ingest._class_row_by_index(raw_scores, names))


def _oracle_detection(obj, frame_index, names):
    """The whole-record check and the per-field path that detection records went through before."""
    if type(obj) is dict:
        raw, score = obj.get("bbox"), obj.get("score")
        if type(raw) is list and len(raw) == 4 and type(score) is float and 0.0 <= score <= 1.0:
            x, y, w, h = raw
            if (
                type(x) is type(y) is type(w) is type(h) is float
                and w > 0.0
                and h > 0.0
                and -math.inf < x + y + w + h < math.inf
            ):
                return Detection(frame_index, BBox(x, y, w, h), score, _oracle_scores(obj, names))
    return _oracle_detection_by_field(obj, frame_index, names)


def _oracle_detection_by_field(obj, frame_index, names):
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    box = _oracle_bbox(obj.get("bbox"))
    score = ingest._num(obj.get("score"), "score: ")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    return Detection(frame_index, box, score, _oracle_scores(obj, names))


_ABC = Roster([Individual("A"), Individual("B"), Individual("C")])
_ABC_CLASSES = ("A", "B", "C")
_POSITIONS = {_ABC_CLASSES: {"A": 0, "B": 1, "C": 2}, None: None}
_ODD_NUMBERS = [0, 1, 2, True, False, -0.0, 0.0, 1.0, math.nan, math.inf, -math.inf, 10**400, 1e308, -1e-300]
_NOT_NUMBERS = [None, "0.5", [0.5], {"v": 0.5}]
_score_values = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 2),
    st.sampled_from(_ODD_NUMBERS + _NOT_NUMBERS),
)
_score_objects = st.one_of(
    st.dictionaries(st.sampled_from("ABC"), st.floats(0.0, 1.0), min_size=1),
    st.dictionaries(st.sampled_from(["A", "B", "C", "ghost"]), _score_values, max_size=4),
    st.sampled_from([None, [], ["A"], "A", 0.5]),
)
_score_rows = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    st.lists(_score_values, min_size=2, max_size=4),
    st.dictionaries(st.sampled_from("ABC"), st.floats(0.0, 1.0), min_size=1),
    st.sampled_from([[], "A", 0.5, (0.5, 0.5, 0.5)]),
)
_coordinates = st.one_of(
    st.floats(-100.0, 100.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 50),
    st.sampled_from(_ODD_NUMBERS + _NOT_NUMBERS),
)


@st.composite
def _detection_records(draw):
    """A valid float record, with each field corrupted or dropped now and then."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([None, 1, "bbox", [0.0, 0.0, 1.0, 1.0]]))
    sides = st.floats(1e-3, 100.0)
    bbox = [draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)), draw(sides), draw(sides)]
    for i in range(4):
        if draw(st.integers(0, 7)) == 0:
            bbox[i] = draw(_coordinates)
    record = {"bbox": bbox, "score": draw(st.floats(0.0, 1.0))}
    if draw(st.integers(0, 5)) == 0:
        record["score"] = draw(_score_values)
    if draw(st.integers(0, 9)) == 0:
        record["bbox"] = draw(
            st.one_of(
                st.lists(_coordinates, max_size=6),
                st.sampled_from(["0,0,1,1", {"x": 0.0}, (0.0, 0.0, 1.0, 1.0)]),
            )
        )
    if draw(st.integers(0, 19)) == 0:
        del record[draw(st.sampled_from(["bbox", "score"]))]
    if draw(st.booleans()):
        record["class_scores"] = draw(_score_rows)
    return record


def _outcome(parse, *args) -> str:
    """repr tells 1 from 1.0 and 0.0 from -0.0, which == does not."""
    try:
        return repr(parse(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@given(_score_objects, st.sampled_from([None, _ABC]))
@settings(max_examples=400, deadline=None)
@example({"A": 0.5, "B": math.nan}, None)  # min and max do not see this NaN
@example({"A": 0.5, "B": 10**400}, _ABC)
@example({"A": 0.5, "B": -0.0}, _ABC)
def test_class_score_check_agrees_with_the_per_name_path(raw, roster):
    assert _outcome(ingest._class_scores, raw, roster) == _outcome(ingest._class_scores_by_name, raw, roster)


@given(_score_rows, st.sampled_from([None, _ABC_CLASSES]))
@settings(max_examples=400, deadline=None)
@example([0.5, math.nan, 0.5], _ABC_CLASSES)  # min and max do not see this NaN
@example([0.5, 10**400, 0.5], _ABC_CLASSES)
@example([0.5, -0.0, 1], _ABC_CLASSES)
@example([0.5, 0.5, 0.5], None)
def test_class_row_check_agrees_with_the_per_entry_path(raw, names):
    assert _outcome(ingest._class_row, raw, names) == _outcome(ingest._class_row_by_index, raw, names)


@given(_detection_records(), st.sampled_from([None, _ABC_CLASSES]))
@settings(max_examples=400, deadline=None)
@example({"bbox": [math.nan, 0.0, 1.0, 1.0], "score": 0.5}, None)  # only the sum sees these two
@example({"bbox": [0.0, 0.0, math.inf, 1.0], "score": 0.5}, None)
@example({"bbox": [1e308, 0.0, 1e308, 1.0], "score": 0.5}, None)  # the sum overflows; the box is valid
@example({"bbox": [0.0, 0.0, 1.0, 1.0], "score": 10**400}, None)
@example({"bbox": [0.0, -0.0, 1.0, 1.0], "score": -0.0, "class_scores": [1, 0, 0.5]}, _ABC_CLASSES)
@example({"bbox": [0, 0, 1, 1], "score": 1}, None)  # integers are converted
@example({"bbox": [0.0, 0.0, True, 1.0], "score": 0.5}, None)  # a bool is no number
@example({"bbox": [0.0, 0.0, 1.0, 1.0], "score": False}, None)
def test_detection_check_agrees_with_the_per_field_path(record, names):
    got = _outcome(ingest._parse_detection, record, 0, names, _POSITIONS[names])
    assert got == _outcome(_oracle_detection, record, 0, names)


def test_float_records_pass_without_the_per_field_path():
    scores = [0.25, 0.0, 1.0]
    record = {"bbox": [0.5, 1.0, 2.0, 3.0], "score": 0.0, "class_scores": scores}
    with mock.patch.object(ingest, "_class_row_by_index") as by_index:
        det = ingest._parse_detection(record, 4, _ABC_CLASSES, _POSITIONS[_ABC_CLASSES])
    by_index.assert_not_called()
    assert det == Detection(4, BBox(0.5, 1.0, 2.0, 3.0), 0.0, {"A": 0.25, "B": 0.0, "C": 1.0})
    assert det.class_scores.row is scores  # json's own list, not a copy


def test_string_ids_and_roster_identities_accepted():
    gt = parse_ground_truth(_gt_text({"id": "img-1", "frame_index": 3}, {"image_id": "img-1"}))
    assert gt == {"": {3: [BBox(0, 0, 1, 1)]}}  # video_id absent
    (track,) = parse_tracks(
        _track_text(identity={"name": "Ayu", "confidence": 1}, track_id=4), roster=_ONE_NAME_ROSTER
    )
    assert (track.track_id, track.video_id, track.identity) == (4, "v", Identity("Ayu", 1.0))
    assert parse_report(_report_text(3)).individuals[0].degree == 3


# ---------------------------------------------------------------------------
# atomic writes


def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first\n")
    assert target.read_text() == "first\n"
    atomic_write_text(target, "second\n")
    assert target.read_text() == "second\n"
    atomic_write_bytes(target, b"third\n")
    assert target.read_bytes() == b"third\n"
    # no temp litter left behind
    assert os.listdir(tmp_path) == ["out.txt"]


# atomic_write_text under the umask sys.argv[1] (octal), to each path after it
_WRITE_UNDER_UMASK = """
import os, sys
os.umask(int(sys.argv[1], 8))
from troopnet.ingest import atomic_write_text
for path in sys.argv[2:]:
    atomic_write_text(path, "text\\n")
"""


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask, mode):
    # mkstemp makes its temp file 0o600; the file renamed into place gets 0o666 less the umask,
    # whether it is new or replaces a file, whose own mode is not kept
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("before\n")
    os.chmod(old, 0o640)
    proc = subprocess.run([sys.executable, "-c", _WRITE_UNDER_UMASK, oct(umask)[2:], str(new), str(old)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [stat.S_IMODE(os.stat(path).st_mode) for path in (new, old)] == [mode, mode]
    assert new.read_text() == old.read_text() == "text\n"
    assert sorted(os.listdir(tmp_path)) == ["new.txt", "old.txt"]


def test_atomic_write_names_the_target_when_its_directory_is_missing(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as exc:
        atomic_write_text(target, "text\n")
    assert exc.value.filename == str(target)
    assert str(exc.value) == f"[Errno 2] No such file or directory: '{target}'"
