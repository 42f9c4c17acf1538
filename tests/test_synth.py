"""Tests for the synthetic scenario generator."""

from __future__ import annotations

import math

import pytest

from troopnet.ingest import AssociationMatrix, OccurrenceLedger, write_detection_stream
from troopnet.synth import (
    NoiseParams,
    SynthScenario,
    build_scenario,
    generate_troop,
    sample_detection_stream,
    sample_ledger,
)
from troopnet.tracking import build_tracks


def _bare_scenario(roster, weights, noise=None):
    return SynthScenario(
        roster=roster,
        latent_weights=weights,
        ground_truth_ledger=OccurrenceLedger([]),
        ground_truth_tracks={},
        noise=noise or NoiseParams(),
    )


def _uniform(roster, w):
    """Latent weights of w between every two individuals."""
    n = len(roster)
    return AssociationMatrix(roster.names, [[0.0 if i == j else w for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# parameters and scenario validation


def test_noise_params_validation():
    assert NoiseParams() == NoiseParams(0.0, 0.0, 0.0, 0.0)
    for bad in (
        dict(fp_rate=-0.1),
        dict(fp_rate=1.5),
        dict(fn_rate=2.0),
        dict(id_confusion_rate=-1.0),
        dict(jitter_px=-1.0),
        dict(jitter_px=math.inf),
        dict(jitter_px=math.nan),
    ):
        with pytest.raises(ValueError):
            NoiseParams(**bad)


def test_scenario_rejects_bad_weights():
    # a scenario's latent weights are an AssociationMatrix, whose constructor refuses them
    roster, weights = generate_troop(0, 4, 2)
    names, rows = roster.names, weights.values
    with pytest.raises(ValueError, match="shape"):
        AssociationMatrix(names, [[0.0] * 3 for _ in range(3)])
    with pytest.raises(ValueError, match="symmetric"):
        bad = [list(row) for row in rows]
        bad[0][1] = bad[1][0] + 0.1
        AssociationMatrix(names, bad)
    with pytest.raises(ValueError, match="diagonal"):
        AssociationMatrix(names, [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows)])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        AssociationMatrix(names, [[v * 20.0 for v in row] for row in rows])


# ---------------------------------------------------------------------------
# troop generation


def test_troop_names_encode_matrilines():
    roster, _ = generate_troop(0, 12, 3)
    assert roster.names[:4] == ["m01i01", "m01i02", "m01i03", "m01i04"]
    assert roster.names[4] == "m02i01"
    assert roster.names[-1] == "m03i04"


def test_troop_sizes_differ_by_at_most_one():
    roster, _ = generate_troop(7, 42, 8)
    lines = {}
    for name in roster.names:
        lines[name[:3]] = lines.get(name[:3], 0) + 1
    sizes = sorted(lines.values())
    assert len(lines) == 8
    assert sum(sizes) == 42
    assert sizes[-1] - sizes[0] <= 1


def test_troop_weight_bands():
    roster, weights = generate_troop(3, 10, 2)
    lines = [name[:3] for name in roster.names]
    rows = weights.values
    assert weights.names == roster.names
    for i in range(10):
        assert rows[i][i] == 0.0
        for j in range(i + 1, 10):
            assert rows[i][j] == rows[j][i]
            if lines[i] == lines[j]:
                assert 0.3 <= rows[i][j] <= 0.8
            else:
                assert 0.0 <= rows[i][j] <= 0.1


def test_troop_members_are_plausible():
    roster, _ = generate_troop(11, 6, 2)
    for ind in roster.individuals:
        assert ind.sex in ("female", "male")
        assert 0 <= ind.age_years < 25


def test_troop_determinism_and_seed_sensitivity():
    a = generate_troop(5, 8, 2)
    b = generate_troop(5, 8, 2)
    c = generate_troop(6, 8, 2)
    assert a[0] == b[0]
    assert a[1].values == b[1].values
    assert a[1].values != c[1].values


def test_troop_input_validation():
    with pytest.raises(ValueError, match="n_individuals"):
        generate_troop(0, 1, 1)
    with pytest.raises(ValueError, match="n_matrilines"):
        generate_troop(0, 4, 0)
    with pytest.raises(ValueError, match="n_matrilines"):
        generate_troop(0, 4, 5)


# ---------------------------------------------------------------------------
# ledger sampling


def test_ledger_round_robin_focals():
    roster, weights = generate_troop(0, 42, 6)
    scenario = _bare_scenario(roster, weights)
    ledger = sample_ledger(scenario, 420, seed=0)
    assert len(ledger.entries) == 420
    focal_counts = {name: 0 for name in roster.names}
    for v, entry in enumerate(ledger.entries):
        focal = roster.names[v % 42]
        assert focal in entry.present
        focal_counts[focal] += 1
    assert set(focal_counts.values()) == {10}
    assert ledger.entries[0].video_id == "v0000"
    assert ledger.entries[419].video_id == "v0419"


def test_ledger_zero_weights_give_lone_focals():
    roster, _ = generate_troop(0, 5, 1)
    scenario = _bare_scenario(roster, _uniform(roster, 0.0))
    ledger = sample_ledger(scenario, 10, seed=3)
    for v, entry in enumerate(ledger.entries):
        assert entry.present == frozenset({roster.names[v % 5]})


def test_ledger_unit_weights_bring_everyone():
    roster, _ = generate_troop(0, 5, 1)
    scenario = _bare_scenario(roster, _uniform(roster, 1.0))
    ledger = sample_ledger(scenario, 10, seed=3)
    for entry in ledger.entries:
        assert entry.present == frozenset(roster.names)


def test_ledger_determinism_and_validation():
    roster, weights = generate_troop(0, 6, 2)
    scenario = _bare_scenario(roster, weights)
    assert sample_ledger(scenario, 20, seed=1) == sample_ledger(scenario, 20, seed=1)
    assert sample_ledger(scenario, 20, seed=1) != sample_ledger(scenario, 20, seed=2)
    with pytest.raises(ValueError, match="n_videos"):
        sample_ledger(scenario, 0, seed=1)


# ---------------------------------------------------------------------------
# detection streams


def _zero_noise_scenario(seed=0, n=5, videos=4):
    roster, weights = generate_troop(seed, n, 2)
    scenario = _bare_scenario(roster, weights)
    ledger = sample_ledger(scenario, videos, seed=seed)
    return SynthScenario(
        roster=roster,
        latent_weights=weights,
        ground_truth_ledger=ledger,
        ground_truth_tracks={},
        noise=NoiseParams(),
    )


def test_stream_zero_noise_is_complete_and_static():
    scenario = _zero_noise_scenario()
    entry = scenario.ground_truth_ledger.entries[0]
    stream, tracks = sample_detection_stream(scenario, entry, 8, seed=0)
    n_present = len(entry.present)
    assert len(stream.frames) == 8
    for frame in stream.frames:
        assert len(frame.detections) == n_present
    assert len(tracks) == n_present
    for track in tracks:
        assert len(track) == 8
        assert track.identity is None
        boxes = {(o.bbox.x, o.bbox.y) for o in track.observations}
        assert len(boxes) == 1  # no jitter, so the box never moves
    # scores are drawn regardless of noise and stay in the detector band
    for frame in stream.frames:
        for det in frame.detections:
            assert 0.5 <= det.score < 1.0


def test_stream_class_scores_zero_confusion():
    scenario = _zero_noise_scenario()
    entry = scenario.ground_truth_ledger.entries[0]
    stream, tracks = sample_detection_stream(scenario, entry, 2, seed=0)
    names = set(scenario.roster.names)
    for track in tracks:
        for obs in track.observations:
            assert set(obs.class_scores) == names
            assert sorted(obs.class_scores.values(), reverse=True)[0] == 1.0
            assert sum(obs.class_scores.values()) == pytest.approx(1.0, abs=1e-12)


def test_stream_class_scores_spread_confusion():
    roster, weights = generate_troop(0, 5, 1)
    scenario = _bare_scenario(roster, weights, NoiseParams(id_confusion_rate=0.2))
    ledger = sample_ledger(scenario, 1, seed=0)
    scenario = _bare_scenario(roster, weights, NoiseParams(id_confusion_rate=0.2))
    scenario.ground_truth_ledger = ledger
    stream, _ = sample_detection_stream(scenario, scenario.ground_truth_ledger.entries[0], 1, seed=0)
    det = stream.frames[0].detections[0]
    values = sorted(det.class_scores.values(), reverse=True)
    assert values[0] == pytest.approx(0.8)
    assert values[1:] == [pytest.approx(0.05)] * 4
    assert sum(values) == pytest.approx(1.0, abs=1e-12)


def test_stream_rows_follow_the_roster():
    # a stream's classes are the roster's names, and each row scores them in that order
    roster, weights = generate_troop(0, 5, 1)
    scenario = _bare_scenario(roster, weights, NoiseParams(id_confusion_rate=0.2))
    scenario.ground_truth_ledger = sample_ledger(scenario, 1, seed=0)
    entry = scenario.ground_truth_ledger.entries[0]
    stream, tracks = sample_detection_stream(scenario, entry, 3, seed=0)
    assert stream.classes == tuple(roster.names)
    present = [nm for nm in roster.names if nm in entry.present]
    assert len(tracks) == len(present) > 1
    for track in tracks:
        true_name = present[track.track_id]
        for obs in track.observations:
            assert obs.class_scores.names == stream.classes
            assert obs.class_scores.row == [0.8 if nm == true_name else 0.2 / 4 for nm in roster.names]
    assert write_detection_stream(stream).split("\n", 1)[0] == '{"classes":["m01i01","m01i02","m01i03","m01i04","m01i05"]}'


def test_stream_fn_rate_one_empties_frames():
    roster, weights = generate_troop(0, 4, 2)
    scenario = _bare_scenario(roster, weights, NoiseParams(fn_rate=1.0))
    scenario.ground_truth_ledger = sample_ledger(scenario, 2, seed=0)
    stream, tracks = sample_detection_stream(scenario, scenario.ground_truth_ledger.entries[0], 6, seed=0)
    assert all(frame.detections == [] for frame in stream.frames)
    assert tracks == []


def test_stream_false_positive_count_is_binomial():
    roster, _ = generate_troop(0, 2, 1)
    scenario = _bare_scenario(roster, _uniform(roster, 0.0), NoiseParams(fp_rate=0.05))
    scenario.ground_truth_ledger = sample_ledger(scenario, 1, seed=0)
    stream, _ = sample_detection_stream(scenario, scenario.ground_truth_ledger.entries[0], 1000, seed=0)
    fp = sum(
        1
        for frame in stream.frames
        for det in frame.detections
        if det.class_scores is None
    )
    # binomial(1000, 0.05): mean 50, sigma about 6.9; stay within 3 sigma
    assert 29 <= fp <= 71
    for frame in stream.frames:
        for det in frame.detections:
            if det.class_scores is None:
                assert 0.25 <= det.score < 0.75


def test_stream_jitter_stays_bounded():
    roster, weights = generate_troop(0, 4, 2)
    scenario = _bare_scenario(roster, weights, NoiseParams(jitter_px=2.0))
    scenario.ground_truth_ledger = sample_ledger(scenario, 1, seed=0)
    stream, tracks = sample_detection_stream(scenario, scenario.ground_truth_ledger.entries[0], 30, seed=0)
    for track in tracks:
        xs = [o.bbox.x for o in track.observations]
        ys = [o.bbox.y for o in track.observations]
        assert max(xs) - min(xs) <= 4.0
        assert max(ys) - min(ys) <= 4.0


def test_stream_grid_boxes_disjoint():
    scenario = _zero_noise_scenario(n=9, videos=9)
    for entry in scenario.ground_truth_ledger.entries:
        stream, _ = sample_detection_stream(scenario, entry, 1, seed=0)
        boxes = [d.bbox for d in stream.frames[0].detections]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                from troopnet.geometry import iou

                assert iou(a, b) == 0.0


def test_stream_needs_a_frame():
    scenario = _zero_noise_scenario()
    with pytest.raises(ValueError, match="n_frames"):
        sample_detection_stream(scenario, scenario.ground_truth_ledger.entries[0], 0, seed=0)


def test_stream_zero_noise_is_a_tracking_oracle():
    scenario = _zero_noise_scenario(seed=1, n=6, videos=3)
    for entry in scenario.ground_truth_ledger.entries:
        stream, gt = sample_detection_stream(scenario, entry, 12, seed=1)
        assert build_tracks(stream) == gt


# ---------------------------------------------------------------------------
# full scenario assembly


def test_build_scenario_wires_everything_together():
    scenario, streams = build_scenario(
        seed=4, n_individuals=6, n_matrilines=2, n_videos=8, n_frames=5
    )
    ids = [e.video_id for e in scenario.ground_truth_ledger.entries]
    assert len(ids) == 8
    assert set(streams) == set(ids)
    assert set(scenario.ground_truth_tracks) == set(ids)
    for vid in ids:
        assert len(streams[vid].frames) == 5
        present = next(
            e.present for e in scenario.ground_truth_ledger.entries if e.video_id == vid
        )
        assert len(scenario.ground_truth_tracks[vid]) == len(present)


def test_build_scenario_deterministic():
    a_scenario, a_streams = build_scenario(2, 5, 2, 6, 4)
    b_scenario, b_streams = build_scenario(2, 5, 2, 6, 4)
    assert a_scenario.ground_truth_ledger == b_scenario.ground_truth_ledger
    assert a_streams == b_streams
    assert a_scenario.ground_truth_tracks == b_scenario.ground_truth_tracks


def test_build_scenario_passes_noise_through():
    noise = NoiseParams(fp_rate=0.1, fn_rate=0.2, jitter_px=1.0, id_confusion_rate=0.05)
    scenario, _ = build_scenario(2, 5, 2, 3, 4, noise=noise)
    assert scenario.noise == noise
