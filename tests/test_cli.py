"""End-to-end tests for the command-line interface.

Commands run in-process through main(argv) so exit codes and stderr are
directly observable; one test goes through the installed console script.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import pytest

from troopnet import cli, ingest, params, synth, tracking
from troopnet.cli import PipelineConfig, main
from troopnet.geometry import ProximityParams
from troopnet.ingest import (
    parse_association_matrix,
    parse_occurrence_ledger,
    parse_report,
    parse_tracks,
)
from troopnet.layout import GemParams

from conftest import matrix_value


@pytest.fixture()
def fixture_matrix_path(tmp_path):
    text = (resources.files("troopnet") / "data" / "troop_matrix.csv").read_text()
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    return path


def _write_stream(path, frames, classes=()):
    """A stream of frames, after a classes line when there are classes."""
    lines = [json.dumps(f, separators=(",", ":")) for f in ([{"classes": list(classes)}] if classes else []) + frames]
    path.write_text("".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# usage errors


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "a subcommand is required" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error(tmp_path, fixture_matrix_path, capsys):
    code = main(
        ["network", "--matrix", str(fixture_matrix_path), "--out",
         str(tmp_path / "r.json"), "--frobnicate"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["eval-id", "--samples", "s.jsonl", "--roster", "r.csv", "--k", "0"],
         "argument --k: must be at least 1, got 0"),
        (["cooccur", "--ledger", "l.csv", "--mode", "sideways"],
         "argument --mode: invalid choice: 'sideways'"),
    ],
    ids=["eval-id-k", "cooccur-mode"],
)
def test_a_flag_value_out_of_range_is_a_usage_error(tmp_path, capsys, argv, message):
    # the flag is the one check: topk_accuracy and tracks_to_ledger take the value it passes
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_layout_requires_some_output(fixture_matrix_path, capsys):
    code = main(["layout", "--matrix", str(fixture_matrix_path), "--seed", "1"])
    assert code == 1
    assert "--svg-out or --dot-out" in capsys.readouterr().err


def test_layout_requires_seed(tmp_path, fixture_matrix_path, capsys):
    code = main(
        ["layout", "--matrix", str(fixture_matrix_path), "--svg-out", str(tmp_path / "x.svg")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "a seed is required: pass --seed or set the 'seed' config key" in err


def test_cooccur_requires_exactly_one_input(tmp_path, capsys):
    assert main(["cooccur", "--out", str(tmp_path / "m.csv")]) == 1
    ledger = tmp_path / "ledger.csv"
    ledger.write_text("video_id,present\nv1,A\n")
    tracks = tmp_path / "t.jsonl"
    tracks.write_text("")
    code = main(
        ["cooccur", "--ledger", str(ledger), "--tracks", str(tracks),
         "--out", str(tmp_path / "m.csv")]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# data errors and the error-json channel


def test_missing_input_file_exits_two(tmp_path, capsys):
    code = main(["network", "--matrix", str(tmp_path / "nope.csv"), "--out",
                 str(tmp_path / "r.json")])
    assert code == 2


def test_malformed_matrix_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,A\nB,0.5\n")
    assert main(["network", "--matrix", str(bad), "--out", str(tmp_path / "r.json")]) == 2


def test_error_json_shape(tmp_path, capsys):
    code = main(
        ["network", "--error-json", "--matrix", str(tmp_path / "nope.csv"),
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert set(record) == {"error", "exit_code"}
    assert record["exit_code"] == 2
    assert "nope.csv" in record["error"]


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_network_tol_must_be_finite(tmp_path, fixture_matrix_path, capsys, value):
    out = tmp_path / "r.json"
    code = main(["network", "--matrix", str(fixture_matrix_path), "--out", str(out), "--tol", value])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"network: tol must be positive and finite, got {value}")
    assert not out.exists()


def test_convergence_failure_exits_three(tmp_path, fixture_matrix_path, capsys):
    code = main(
        ["network", "--matrix", str(fixture_matrix_path), "--out",
         str(tmp_path / "r.json"), "--max-iter", "1"]
    )
    assert code == 3


def test_layout_and_pipeline_convergence_failures_exit_three(tmp_path, fixture_matrix_path, synth_run, capsys):
    layout = ["layout", "--matrix", str(fixture_matrix_path), "--seed", "5", "--svg-out", str(tmp_path / "n.svg")]
    pipeline = ["pipeline", "--detections-dir", str(synth_run / "detections"), "--roster",
                str(synth_run / "roster.csv"), "--out-dir", str(tmp_path / "out"), "--seed", "5"]
    for argv in (layout, pipeline):
        assert main([*argv, "--max-iter", "1", "--error-json"]) == 3
        assert json.loads(capsys.readouterr().err)["exit_code"] == 3


# ---------------------------------------------------------------------------
# configuration


def test_empty_config_gives_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    config = _pipeline_config("--config", str(cfg))
    assert config.tracker.iou_gate == 0.3
    assert config.tracker.max_gap_frames == 10
    assert config.association_mode == "video-level"
    assert config.seed is None


def test_config_overrides_and_comments(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\n\ntracker.iou_gate = 0.5\nseed = 7\n")
    config = _pipeline_config("--config", str(cfg))
    assert config.tracker.iou_gate == 0.5
    assert config.seed == 7


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    # the log-ratio depth gate's old key is not read as a height ratio below 1
    for text in ("tracker.iou = 0.5\n", "proximity.max_depth_disparity = 0.405\n"):
        cfg.write_text(text)
        with pytest.raises(Exception, match="unknown config key"):
            _pipeline_config("--config", str(cfg))


def test_config_type_mismatch_names_the_key(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("tracker.max_gap_frames = soon\n")
    with pytest.raises(Exception, match="tracker.max_gap_frames.*expected int"):
        _pipeline_config("--config", str(cfg))


def test_config_out_of_range_value_rejected(tmp_path):
    cfg = tmp_path / "a.cfg"
    for text, name in (
        ("tracker.iou_gate = 1.5\n", "iou_gate"),
        ("proximity.max_height_ratio = 0.9\n", "max_height_ratio"),
    ):
        cfg.write_text(text)
        with pytest.raises(Exception, match=name):
            _pipeline_config("--config", str(cfg))


def test_config_errors_exit_two_through_cli(tmp_path, fixture_matrix_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("network.volume = 11\n")
    code = main(
        ["network", "--config", str(cfg), "--matrix", str(fixture_matrix_path),
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_value_outside_its_choices_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("association.mode = sideways\n")
    out = tmp_path / "m.csv"
    code = main(
        ["cooccur", "--config", str(cfg), "--ledger", str(tmp_path / "l.csv"), "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"{cfg}:1: association.mode")
    assert not out.exists()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_config_lines_end_at_lf_crlf_or_cr_only(tmp_path, newline):
    # str.splitlines would also break at U+2028, U+0085 and form feed, ending the comment
    cfg = tmp_path / "a.cfg"
    text = "# a note\u2028on seeds\x85and\x0cmore\nseed = 7\nnetwork.max_iter = 9\n"
    cfg.write_bytes(text.replace("\n", newline).encode())
    config = _pipeline_config("--config", str(cfg))
    assert (config.seed, config.network.max_iter) == (7, 9)


def test_config_seed_satisfies_layout_and_flag_wins(tmp_path, fixture_matrix_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("seed = 7\n")
    from_config = tmp_path / "from_config.svg"
    assert main(
        ["layout", "--config", str(cfg), "--matrix", str(fixture_matrix_path),
         "--svg-out", str(from_config)]
    ) == 0
    seed7 = tmp_path / "seed7.svg"
    assert main(
        ["layout", "--matrix", str(fixture_matrix_path), "--seed", "7",
         "--svg-out", str(seed7)]
    ) == 0
    assert from_config.read_bytes() == seed7.read_bytes()
    overridden = tmp_path / "overridden.svg"
    assert main(
        ["layout", "--config", str(cfg), "--matrix", str(fixture_matrix_path),
         "--seed", "9", "--svg-out", str(overridden)]
    ) == 0
    seed9 = tmp_path / "seed9.svg"
    assert main(
        ["layout", "--matrix", str(fixture_matrix_path), "--seed", "9",
         "--svg-out", str(seed9)]
    ) == 0
    assert overridden.read_bytes() == seed9.read_bytes()
    assert overridden.read_bytes() != from_config.read_bytes()


# every config key: its pipeline flag and two values that differ from the default
_KEY_FLAG_VALUES = [
    ("tracker.iou_gate", "--iou-gate", "0.5", "0.7"),
    ("tracker.max_gap_frames", "--max-gap-frames", "4", "6"),
    ("tracker.min_track_len_for_id", "--min-track-len", "2", "5"),
    ("proximity.max_gap", "--prox-max-gap", "1.5", "3.0"),
    ("proximity.max_height_ratio", "--prox-max-height-ratio", "1.25", "2.0"),
    ("association.mode", "--mode", "proximal", "video-level"),
    ("network.tol", "--tol", "1e-08", "1e-06"),
    ("network.max_iter", "--max-iter", "50", "70"),
    ("gem.desired_edge_length", "--edge-length", "64.0", "96.0"),
    ("gem.max_rounds_factor", "--max-rounds-factor", "5", "7"),
    ("gem.stop_temperature_fraction", "--stop-fraction", "0.01", "0.05"),
    ("seed", "--seed", "3", "4"),
    ("paths.detections_dir", "--detections-dir", "d1", "d2"),
    ("paths.roster", "--roster", "r1.csv", "r2.csv"),
    ("paths.out_dir", "--out-dir", "o1", "o2"),
]


def _pipeline_config(*argv):
    return cli._resolve_config(cli._build_parser().parse_args(["pipeline", *argv]))


def test_config_table_covers_every_key():
    assert [row[0] for row in _KEY_FLAG_VALUES] == [s.key for s in cli._SETTINGS]


@pytest.mark.parametrize("key,flag,value,other", _KEY_FLAG_VALUES, ids=[r[0] for r in _KEY_FLAG_VALUES])
def test_config_key_equals_its_flag_and_flag_wins(tmp_path, key, flag, value, other):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"{key} = {value}\n")
    from_file = _pipeline_config("--config", str(cfg))
    assert from_file != PipelineConfig()
    assert from_file == _pipeline_config(flag, value)
    overridden = _pipeline_config("--config", str(cfg), flag, other)
    assert overridden == _pipeline_config(flag, other)
    assert overridden != from_file


def _readme_default(cell: str, typ: type):
    if cell == "none":
        return None
    if "/" in cell:
        num, den = cell.split("/")
        return float(num) / float(den)
    return typ(cell)


def test_readme_configuration_table_matches_the_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (\w+) \| ([^|]+?) \|", section, flags=re.M)
    defaults = PipelineConfig()
    expected = []
    for s in cli._SETTINGS:
        default = functools.reduce(getattr, (s.field or s.key).split("."), defaults)
        expected.append((s.key, s.type.__name__, default))
    types = {"float": float, "int": int, "str": str}
    listed = [(key, name, _readme_default(cell, types[name])) for key, name, cell in rows]
    assert listed == expected


_GEM_FIELDS = ["desired_edge_length", "max_rounds_factor", "stop_temperature_fraction"]


# the edge length's square must stay a normal float: 2**-400 is about 3.9e-121, 2**400 2.6e120
@pytest.mark.parametrize(
    "value,name",
    [
        *((value, name) for value in ("inf", "nan") for name in _GEM_FIELDS),
        *((value, "desired_edge_length") for value in ("1e-200", "3e-121", "3e120", "1e200")),
    ],
)
def test_gem_rejects_non_finite_values(tmp_path, fixture_matrix_path, capsys, name, value):
    with pytest.raises(ValueError, match=name):
        GemParams(**{name: float(value)})
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"gem.{name} = {value}\n")
    svg = tmp_path / "a.svg"
    code = main(
        ["layout", "--config", str(cfg), "--matrix", str(fixture_matrix_path), "--seed", "1",
         "--svg-out", str(svg)]
    )
    assert code == 2
    assert re.search(rf"gem(\.|: ){name}", capsys.readouterr().err)
    assert not svg.exists()


# ---------------------------------------------------------------------------
# stage subcommands


def test_network_reproduces_fixture_measures(tmp_path, fixture_matrix_path):
    out = tmp_path / "report.json"
    assert main(["network", "--matrix", str(fixture_matrix_path), "--out", str(out)]) == 0
    report = parse_report(out.read_text())
    assert report.density == pytest.approx(0.17305458768873402, abs=1e-12)
    assert report.global_efficiency_binary == pytest.approx(0.5256291134339914, abs=1e-12)
    assert len(report.individuals) == 42


def test_track_roundtrip_with_identities(tmp_path):
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\nAyu,female,9\nBora,male,7\n")
    stream = tmp_path / "v1.jsonl"
    scores = [0.9, 0.1]
    frames = [
        {
            "frame_index": fi,
            "detections": [
                {"bbox": [0.0, 0.0, 50.0, 50.0], "score": 0.9, "class_scores": scores}
            ],
        }
        for fi in range(4)
    ]
    _write_stream(stream, frames, ["Ayu", "Bora"])
    out = tmp_path / "tracks.jsonl"
    code = main(
        ["track", "--detections", str(stream), "--video-id", "v1",
         "--roster", str(roster), "--out", str(out)]
    )
    assert code == 0
    tracks = parse_tracks(out.read_text())
    assert len(tracks) == 1
    assert len(tracks[0]) == 4
    assert tracks[0].identity.name == "Ayu"
    assert tracks[0].identity.confidence == pytest.approx(0.9)


def _eval_det_inputs(tmp_path):
    preds = tmp_path / "preds.jsonl"
    _write_stream(
        preds,
        [
            {
                "frame_index": 0,
                "detections": [
                    {"bbox": [0.0, 0.0, 10.0, 10.0], "score": 0.9, "class_scores": None},
                    {"bbox": [300.0, 300.0, 10.0, 10.0], "score": 0.8, "class_scores": None},
                    {"bbox": [100.0, 0.0, 10.0, 10.0], "score": 0.7, "class_scores": None},
                ],
            }
        ],
    )
    gt = tmp_path / "gt.json"
    gt.write_text(
        json.dumps(
            {
                "images": [
                    {"id": 1, "video_id": "v1", "frame_index": 0, "width": 640, "height": 480}
                ],
                "annotations": [
                    {"image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0], "label": "face"},
                    {"image_id": 1, "bbox": [100.0, 0.0, 10.0, 10.0], "label": "face"},
                ],
            }
        )
    )
    return ["eval-det", "--predictions", str(preds), "--ground-truth", str(gt), "--video-id", "v1"]


def test_eval_det_hand_case(tmp_path):
    out = tmp_path / "metrics.json"
    code = main([*_eval_det_inputs(tmp_path), "--out", str(out)])
    assert code == 0
    metrics = json.loads(out.read_text())
    assert metrics["average_precision"] == pytest.approx(253.0 / 303.0, abs=1e-9)
    assert metrics["false_negative_rate"] == 0.0
    assert metrics["n_ground_truths"] == 2
    assert metrics["n_predictions"] == 3
    assert (metrics["iou_threshold"], metrics["score_threshold"]) == (0.5, 0.5)


def test_eval_det_passes_given_thresholds_and_rejects_nan(tmp_path, capsys):
    cmd = _eval_det_inputs(tmp_path)
    out = tmp_path / "metrics.json"
    assert main([*cmd, "--score-threshold", "0.75", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())
    assert (metrics["iou_threshold"], metrics["score_threshold"]) == (0.5, 0.75)
    assert metrics["false_negative_rate"] == 0.5
    bad = tmp_path / "nan.json"
    assert main([*cmd, "--score-threshold", "nan", "--out", str(bad)]) == 2
    assert "score_threshold must be finite" in capsys.readouterr().err
    assert not bad.exists()


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {"images": [{"id": [1], "width": 10, "height": 10}], "annotations": []},
            "ground truth: image 0: 'id' must be an integer or a string, got [1]",
        ),
        (
            {"images": [{"id": 1, "width": 10, "height": 10}],
             "annotations": [{"image_id": [1], "bbox": [0, 0, 1, 1], "label": "face"}]},
            "ground truth: annotation 0: image_id must be an integer or a string, got [1]",
        ),
    ],
    ids=["image-id", "annotation-image-id"],
)
def test_eval_det_rejects_unhashable_ids(tmp_path, capsys, doc, message):
    cmd = _eval_det_inputs(tmp_path)
    gt = Path(cmd[cmd.index("--ground-truth") + 1])
    gt.write_text(json.dumps(doc))
    out = tmp_path / "metrics.json"
    assert main([*cmd, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{gt}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["images", "annotations", "categories"])
def test_eval_det_rejects_a_ground_truth_field_that_is_not_a_list(tmp_path, capsys, field):
    cmd = _eval_det_inputs(tmp_path)
    gt = Path(cmd[cmd.index("--ground-truth") + 1])
    gt.write_text(json.dumps({**json.loads(gt.read_text()), field: 5}))
    out = tmp_path / "metrics.json"
    assert main([*cmd, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{gt}: ground truth: {field} must be a list, got 5\n"
    assert not out.exists()


def test_eval_det_rejects_a_video_without_ground_truth(tmp_path, capsys):
    cmd = _eval_det_inputs(tmp_path)  # ground truth for v1 only
    gt = cmd[cmd.index("--ground-truth") + 1]
    cmd[cmd.index("--video-id") + 1] = "V1"
    out = tmp_path / "metrics.json"
    assert main([*cmd, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{gt}: no ground-truth image of video 'V1'\n"
    assert not out.exists()


def test_cooccur_rejects_a_track_identity_with_a_comma(tmp_path, capsys):
    # without a roster, "Ayu,Bora" and "Cho" would share the ledger cell "Ayu,Bora,Cho",
    # which reads back as three individuals
    tracks = tmp_path / "tracks.jsonl"
    obs = {"frame_index": 0, "bbox": [0, 0, 1, 1], "score": 0.9}
    tracks.write_text(
        "".join(
            json.dumps({"track_id": k, "video_id": "v1", "observations": [obs],
                        "identity": {"name": name, "confidence": 0.9}}) + "\n"
            for k, name in enumerate(["Cho", "Ayu,Bora"])
        )
    )
    out = tmp_path / "matrix.csv"
    assert main(["cooccur", "--tracks", str(tracks), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{tracks}: tracks line 2: individual name 'Ayu,Bora' contains a comma\n"
    assert not out.exists()


def test_cooccur_rejects_track_identity_off_roster(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\nAyu,female,9\n")
    tracks = tmp_path / "tracks.jsonl"
    obs = {"frame_index": 0, "bbox": [0, 0, 1, 1], "score": 0.9}
    tracks.write_text(
        json.dumps({"track_id": 0, "video_id": "v", "observations": [obs],
                    "identity": {"name": "Zed", "confidence": 0.9}}) + "\n"
    )
    out = tmp_path / "matrix.csv"
    argv = ["cooccur", "--tracks", str(tracks), "--roster", str(roster), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{tracks}: tracks line 1: unknown individual 'Zed' in identity\n"
    assert not out.exists()


def _track_line(video_id: str, track_id: int, frame_index: int = 0) -> str:
    obs = {"frame_index": frame_index, "bbox": [0, 0, 1, 1], "score": 0.9}
    return json.dumps({"track_id": track_id, "video_id": video_id, "observations": [obs],
                       "identity": {"name": "Ayu", "confidence": 0.9}}) + "\n"


def test_cooccur_refuses_a_track_repeated_in_one_file(tmp_path, capsys):
    tracks = tmp_path / "tracks.jsonl"
    tracks.write_text(_track_line("v1", 0) + _track_line("v1", 1) + _track_line("v2", 0) + _track_line("v1", 0, 5))
    out = tmp_path / "matrix.csv"
    argv = ["cooccur", "--tracks", str(tracks), "--out", str(out), "--conflicts-out", str(tmp_path / "c.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{tracks}: track 0 of video 'v1' repeats, first read from {tracks}\n"
    assert sorted(tmp_path.iterdir()) == [tracks]


@pytest.mark.parametrize("same_file", [True, False], ids=["file-given-twice", "two-files"])
def test_cooccur_refuses_a_track_repeated_across_files(tmp_path, capsys, same_file):
    # a track counted twice would be reported in conflict with itself on every frame
    first = tmp_path / "a.jsonl"
    first.write_text(_track_line("v1", 0) + _track_line("v1", 1))
    second = first
    if not same_file:
        second = tmp_path / "b.jsonl"
        second.write_text(_track_line("v2", 0) + _track_line("v1", 1))
    out = tmp_path / "matrix.csv"
    argv = ["cooccur", "--tracks", str(first), "--tracks", str(second), "--out", str(out)]
    assert main(argv) == 2
    track = 0 if same_file else 1
    assert capsys.readouterr().err == f"{second}: track {track} of video 'v1' repeats, first read from {first}\n"
    assert not out.exists()


def test_cooccur_reads_one_track_id_in_two_videos(tmp_path):
    # a track is its (video_id, track_id): the same track_id in another video is another track
    tracks = tmp_path / "tracks.jsonl"
    tracks.write_text(_track_line("v1", 0) + _track_line("v2", 0).replace("Ayu", "Bora"))
    assert main(["cooccur", "--tracks", str(tracks), "--out", str(tmp_path / "m.csv")]) == 0
    assert (tmp_path / "m.csv").read_text().splitlines()[0] == ",Ayu,Bora"


@pytest.mark.parametrize(
    "flag, text", [("--ledger", "video_id,present\nv1,\nv2,\n"), ("--tracks", "")], ids=["ledger", "tracks"]
)
def test_cooccur_rejects_an_input_that_counts_no_individual(tmp_path, capsys, flag, text):
    # without a roster the matrix is over the counted names, and a matrix of
    # no names is one that no later stage can read
    source = tmp_path / "input"
    source.write_text(text)
    out = tmp_path / "matrix.csv"
    assert main(["cooccur", flag, str(source), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{source}: counts no individual (matrix needs at least one name)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["track", "cooccur", "eval-id", "pipeline"])
def test_an_empty_roster_is_named_as_the_error(tmp_path, capsys, command):
    (tmp_path / "detections").mkdir()
    stream = tmp_path / "detections" / "v1.jsonl"
    _write_stream(stream, [{"frame_index": 0, "detections": [
        {"bbox": [0, 0, 10, 10], "score": 0.9, "class_scores": [1.0]}]}], ["a"])
    (tmp_path / "ledger.csv").write_text("video_id,present\nv1,a\n")
    (tmp_path / "samples.jsonl").write_text('{"class_scores": {"a": 1.0}, "true_label": "a"}\n')
    for roster_text, code in [("name,sex,age_years\na,unknown,\nb,unknown,\n", 0), ("name,sex,age_years\n", 2)]:
        roster = tmp_path / f"roster{code}.csv"
        roster.write_text(roster_text)
        out = tmp_path / f"out{code}"
        argv = {
            "track": ["--detections", str(stream), "--video-id", "v1", "--out", str(out)],
            "cooccur": ["--ledger", str(tmp_path / "ledger.csv"), "--out", str(out)],
            "eval-id": ["--samples", str(tmp_path / "samples.jsonl"), "--out", str(out)],
            "pipeline": ["--detections-dir", str(tmp_path / "detections"), "--out-dir", str(out), "--seed", "5"],
        }[command]
        # the other inputs pass with a roster of two, so only the empty roster is at fault
        assert main([command, *argv, "--roster", str(roster)]) == code
        assert out.exists() == (code == 0)
    assert capsys.readouterr().err == f"{roster}: roster: needs at least one individual\n"


def test_pipeline_rejects_a_one_individual_roster_before_any_stream(tmp_path, capsys):
    # the network measures need a pair; a stream that is not JSON shows none was parsed
    (tmp_path / "detections").mkdir()
    (tmp_path / "detections" / "v1.jsonl").write_text("not json\n")
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\na,unknown,\n")
    out = tmp_path / "out"
    argv = ["pipeline", "--detections-dir", str(tmp_path / "detections"), "--roster", str(roster),
            "--out-dir", str(out), "--seed", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{roster}: roster: pipeline needs at least 2 individuals, got 1\n"
    assert not out.exists()


_ONE_TRACK_OF_A = json.dumps({
    "track_id": 0, "video_id": "v1", "observations": [{"frame_index": 0, "bbox": [0, 0, 1, 1], "score": 0.9}],
    "identity": {"name": "a", "confidence": 0.9},
}) + "\n"


@pytest.mark.parametrize(
    "flag,text,with_roster",
    [
        ("--ledger", "video_id,present\nv1,a\n", True),
        ("--ledger", "video_id,present\nv1,a\n", False),
        ("--tracks", _ONE_TRACK_OF_A, True),
        ("--tracks", _ONE_TRACK_OF_A, False),
        ("--pair-ledger", "video_id,pair\n", True),  # without a roster a pair names two
    ],
    ids=["ledger-roster", "ledger", "tracks-roster", "tracks", "pair-ledger-roster"],
)
def test_cooccur_of_one_individual_is_named_and_writes_nothing(tmp_path, capsys, flag, text, with_roster):
    # network and layout reject a one-name matrix, so cooccur must not write one: with a
    # roster its names are the roster's, without one they are the names the input counts
    source = tmp_path / "input"
    source.write_text(text)
    argv = ["cooccur", flag, str(source), "--out", str(tmp_path / "m.csv"),
            "--ledger-out", str(tmp_path / "l.csv"), "--conflicts-out", str(tmp_path / "c.json")]
    inputs = [source]
    if with_roster:
        inputs.append(tmp_path / "roster.csv")
        inputs[-1].write_text("name,sex,age_years\na,unknown,\n")
        argv += ["--roster", str(inputs[-1])]
    assert main(argv) == 2
    named = f"{inputs[-1]}: roster" if with_roster else str(source)
    assert capsys.readouterr().err == f"{named}: cooccur needs at least 2 individuals, got 1\n"
    assert sorted(tmp_path.iterdir()) == sorted(inputs)


_ONE_NAME_REPORT = {
    "density": 0.0,
    "global_efficiency_binary": 0.0,
    "global_efficiency_weighted": 0.0,
    "individuals": [{"name": "a", "degree": 0, "strength": 0.0, "eigenvector": 0.0}],
}


@pytest.mark.parametrize("command,report", [("network", False), ("layout", False), ("layout", True)])
def test_a_one_name_matrix_is_named_and_writes_nothing(tmp_path, capsys, command, report):
    # a hand-written report of the one name must not let layout draw it either
    matrix = tmp_path / "one.csv"
    matrix.write_text(",a\na,\n")
    inputs = [matrix]
    argv = [command, "--matrix", str(matrix)]
    if command == "network":
        argv += ["--out", str(tmp_path / "report.json")]
    else:
        argv += ["--seed", "1", "--svg-out", str(tmp_path / "g.svg"), "--dot-out", str(tmp_path / "g.dot")]
    if report:
        inputs.append(tmp_path / "given.json")
        inputs[-1].write_text(json.dumps(_ONE_NAME_REPORT))
        argv += ["--report", str(inputs[-1])]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{matrix}: matrix: {command} needs at least 2 individuals, got 1\n"
    assert sorted(tmp_path.iterdir()) == sorted(inputs)


_AB = ",a,b\na,,0.5\nb,0.5,\n"
_ABC = ",a,b,c\na,,0.5,\nb,0.5,,0.2\nc,,0.2,\n"


@pytest.mark.parametrize(
    "measured,drawn,message",
    [
        (_ABC, _AB, "['a', 'b', 'c'] are not the matrix's names ['a', 'b']"),
        (_AB, ",b,a\nb,,0.5\na,0.5,\n", "['a', 'b'] are not the matrix's names ['b', 'a']"),
    ],
    ids=["more-names", "other-order"],
)
def test_layout_rejects_a_report_of_another_matrix(tmp_path, capsys, measured, drawn, message):
    # network writes the matrix's names in matrix order; any other report is another matrix's
    inputs = [tmp_path / "measured.csv", tmp_path / "drawn.csv", tmp_path / "report.json"]
    inputs[0].write_text(measured)
    inputs[1].write_text(drawn)
    assert main(["network", "--matrix", str(inputs[0]), "--out", str(inputs[2])]) == 0
    argv = ["layout", "--matrix", str(inputs[1]), "--report", str(inputs[2]), "--seed", "1",
            "--svg-out", str(tmp_path / "g.svg"), "--dot-out", str(tmp_path / "g.dot")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{inputs[2]}: report individuals {message} in matrix order\n"
    assert sorted(tmp_path.iterdir()) == sorted(inputs)


def test_an_output_in_a_missing_directory_is_named(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\nA,unknown,\nB,unknown,\n")
    samples = tmp_path / "samples.jsonl"
    samples.write_text('{"class_scores": {"A": 0.9, "B": 0.1}, "true_label": "A"}\n')
    out = tmp_path / "missing" / "id.json"
    assert main(["eval-id", "--samples", str(samples), "--roster", str(roster), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"[Errno 2] No such file or directory: '{out}'\n"
    assert not (tmp_path / "missing").exists()


def test_eval_id_hand_case(tmp_path):
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\nA,unknown,\nB,unknown,\n")
    samples = tmp_path / "samples.jsonl"
    samples.write_text(
        json.dumps({"class_scores": {"A": 0.9, "B": 0.1}, "true_label": "A"}) + "\n"
        + json.dumps({"class_scores": {"A": 0.6, "B": 0.4}, "true_label": "B"}) + "\n"
    )
    out = tmp_path / "id.json"
    code = main(
        ["eval-id", "--samples", str(samples), "--roster", str(roster),
         "--k", "1", "--k", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_samples"] == 2
    assert report["top_k"] == {"1": 0.5, "2": 1.0}
    assert report["names"] == ["A", "B"]
    assert report["confusion"][0] == [1.0, 0.0]
    assert report["confusion"][1] == [1.0, 0.0]


def test_eval_id_rejects_scores_outside_the_unit_interval(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\nA,unknown,\nB,unknown,\n")
    samples = tmp_path / "samples.jsonl"
    out = tmp_path / "id.json"
    cmd = ["eval-id", "--samples", str(samples), "--roster", str(roster), "--out", str(out)]
    for scores, message in [
        ('{"A": NaN, "B": "0.9"}', "samples line 1: class_scores['A'] = nan outside [0, 1]"),
        ('{"A": 0.5, "B": "0.9"}', "samples line 1: class_scores['B']: expected a number, got '0.9'"),
        ('{"A": true}', "samples line 1: class_scores['A']: expected a number, got True"),
        ('{"A": 1.5, "B": -0.2}', "samples line 1: class_scores['A'] = 1.5 outside [0, 1]"),
    ]:
        samples.write_text('{"class_scores": %s, "true_label": "A"}\n' % scores)
        assert main(cmd) == 2, scores
        assert capsys.readouterr().err == f"{samples}: {message}\n"
        assert not out.exists()


def test_eval_id_checks_samples_against_the_roster(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\nA,unknown,\nB,unknown,\n")
    samples = tmp_path / "samples.jsonl"
    out = tmp_path / "id.json"
    cmd = ["eval-id", "--samples", str(samples), "--roster", str(roster), "--out", str(out)]
    for scores, label, message in [
        # not the argmax, yet able to push the true label out of the top k
        ('{"A": 0.9, "ghost": 0.5, "B": 0.1}', "B", "unknown individual 'ghost' in class_scores"),
        ('{"A": 0.9}', "zzz", "unknown individual 'zzz' in true_label"),
        ('{"A": 0.9}', "B", "true_label 'B' has no class score"),
    ]:
        # the blank line counts: errors give the file's line number, not the sample's index
        samples.write_text('\n{"class_scores": %s, "true_label": "%s"}\n' % (scores, label))
        assert main(cmd) == 2, scores
        assert capsys.readouterr().err == f"{samples}: samples line 2: {message}\n"
        assert not out.exists()


def test_eval_id_rejects_empty_samples(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\nA,unknown,\n")
    samples = tmp_path / "samples.jsonl"
    samples.write_text("\n")
    out = tmp_path / "id.json"
    code = main(
        ["eval-id", "--samples", str(samples), "--roster", str(roster), "--out", str(out)]
    )
    assert code == 2


def test_cooccur_from_ledger(tmp_path):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "video_id,present\nv1,\"Ayu,Bora\"\nv2,Ayu\nv3,\"Ayu,Bora\"\nv4,Bora\n"
    )
    out = tmp_path / "matrix.csv"
    assert main(["cooccur", "--ledger", str(ledger), "--out", str(out)]) == 0
    matrix = parse_association_matrix(out.read_text())
    # Ayu in 3, Bora in 3, together in 2: 2 / (3 + 3 - 2)
    assert matrix_value(matrix, "Ayu", "Bora") == 0.5


# ---------------------------------------------------------------------------
# synth and pipeline round trips


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth_cli")
    out = root / "scenario"
    code = main(
        ["synth", "--seed", "5", "--individuals", "6", "--matrilines", "2",
         "--videos", "12", "--frames", "8", "--out-dir", str(out)]
    )
    assert code == 0
    return out


def test_synth_writes_expected_files(synth_run):
    assert (synth_run / "roster.csv").is_file()
    assert (synth_run / "latent.csv").is_file()
    assert (synth_run / "ledger.csv").is_file()
    streams = sorted(p.name for p in (synth_run / "detections").iterdir())
    tracks = sorted(p.name for p in (synth_run / "tracks").iterdir())
    assert streams == [f"v{k:04d}.jsonl" for k in range(12)]
    assert tracks == streams


def test_synth_outputs_parse_cleanly(synth_run):
    matrix = parse_association_matrix((synth_run / "latent.csv").read_text())
    assert matrix.n == 6
    ledger = parse_occurrence_ledger((synth_run / "ledger.csv").read_text())
    assert len(ledger.entries) == 12
    tracks = parse_tracks((synth_run / "tracks" / "v0000.jsonl").read_text())
    assert all(t.video_id == "v0000" for t in tracks)


def test_synth_rejects_infinite_jitter_naming_it(tmp_path, capsys):
    argv = ["synth", "--seed", "5", "--individuals", "4", "--matrilines", "2", "--videos", "1",
            "--frames", "2", "--jitter-px", "inf", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "jitter_px must be finite and non-negative, got inf\n"
    assert not (tmp_path / "out").exists()


def _synth_videos(out_dir, videos):
    return main(["synth", "--seed", "5", "--individuals", "4", "--matrilines", "2", "--videos", str(videos),
                 "--frames", "2", "--out-dir", str(out_dir)])


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_refuses_a_stream_it_would_not_write(tmp_path, capsys):
    # a pipeline over the directory would count v0003-v0005 of the longer run against a 3-video ledger
    out = tmp_path / "out"
    assert _synth_videos(out, 6) == 0
    (out / "detections" / "._v0009.jsonl").write_bytes(b"\0")  # a hidden name is no stream
    before = _tree(out)
    capsys.readouterr()
    assert _synth_videos(out, 3) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{out / 'detections' / 'v0003.jsonl'}: a stream this run does not write")
    assert _tree(out) == before  # nothing written, nothing deleted
    for k in (3, 4, 5):
        (out / "detections" / f"v{k:04d}.jsonl").unlink()
    assert _synth_videos(out, 3) == 2
    assert capsys.readouterr().err.startswith(f"{out / 'tracks' / 'v0003.jsonl'}: ")


def test_synth_reruns_with_as_many_videos_or_more(tmp_path):
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    assert _synth_videos(again, 3) == 0
    first = _tree(again)
    assert _synth_videos(again, 3) == 0
    assert _tree(again) == first
    assert _synth_videos(again, 6) == 0
    assert _synth_videos(fresh, 6) == 0
    assert _tree(again) == _tree(fresh)


def _run_pipeline(synth_dir, out_dir, *extra):
    return main(
        ["pipeline", "--detections-dir", str(synth_dir / "detections"),
         "--roster", str(synth_dir / "roster.csv"), "--out-dir", str(out_dir),
         "--seed", "5", "--min-track-len", "1", *extra]
    )


_PIPELINE_FILES = [
    "ledger.csv", "matrix.csv", "report.json", "network.svg", "network.dot",
    "conflicts.json",
]


def test_pipeline_recovers_synth_ledger(tmp_path, synth_run):
    out = tmp_path / "out"
    assert _run_pipeline(synth_run, out) == 0
    for name in _PIPELINE_FILES:
        assert (out / name).is_file()
    # zero synthetic noise, so tracking and fusion recover the truth exactly
    assert (out / "ledger.csv").read_bytes() == (synth_run / "ledger.csv").read_bytes()
    assert json.loads((out / "conflicts.json").read_text()) == []


def test_pipeline_reruns_byte_identical(tmp_path, synth_run):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert _run_pipeline(synth_run, first) == 0
    assert _run_pipeline(synth_run, second) == 0
    for name in _PIPELINE_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


# synth's 160 px grid never passes the default proximity gate of 2.0
_MODE_ARGS = {
    "video-level": [],
    "proximal": ["--mode", "proximal", "--prox-max-gap", "3.0"],
}


@pytest.mark.parametrize("mode", list(_MODE_ARGS))
def test_pipeline_equals_stage_composition(tmp_path, synth_run, mode):
    pipe_out = tmp_path / "pipe"
    assert _run_pipeline(synth_run, pipe_out, *_MODE_ARGS[mode]) == 0
    if mode == "proximal":  # the pair ledger has one row per pair seen
        assert len((pipe_out / "ledger.csv").read_text().splitlines()) > 1

    stage_dir = tmp_path / "stages"
    stage_dir.mkdir()
    track_files = []
    for stream in sorted((synth_run / "detections").iterdir()):
        video_id = stream.name[: -len(".jsonl")]
        out = stage_dir / f"{video_id}.tracks.jsonl"
        code = main(
            ["track", "--detections", str(stream), "--video-id", video_id,
             "--roster", str(synth_run / "roster.csv"), "--out", str(out),
             "--min-track-len", "1"]
        )
        assert code == 0
        track_files.append(out)

    matrix_out = stage_dir / "matrix.csv"
    argv = ["cooccur", "--roster", str(synth_run / "roster.csv"),
            "--out", str(matrix_out), "--ledger-out", str(stage_dir / "ledger.csv"),
            "--conflicts-out", str(stage_dir / "conflicts.json"), *_MODE_ARGS[mode]]
    for path in track_files:
        argv.extend(["--tracks", str(path)])
    assert main(argv) == 0
    for name in ("matrix.csv", "ledger.csv", "conflicts.json"):
        assert (stage_dir / name).read_bytes() == (pipe_out / name).read_bytes(), name

    report_out = stage_dir / "report.json"
    assert main(["network", "--matrix", str(matrix_out), "--out", str(report_out)]) == 0
    assert report_out.read_bytes() == (pipe_out / "report.json").read_bytes()

    svg_out = stage_dir / "network.svg"
    dot_out = stage_dir / "network.dot"
    code = main(
        ["layout", "--matrix", str(matrix_out), "--report", str(report_out),
         "--seed", "5", "--svg-out", str(svg_out), "--dot-out", str(dot_out)]
    )
    assert code == 0
    assert svg_out.read_bytes() == (pipe_out / "network.svg").read_bytes()
    assert dot_out.read_bytes() == (pipe_out / "network.dot").read_bytes()


@pytest.mark.parametrize("mode", list(_MODE_ARGS))
def test_cooccur_of_the_pipeline_ledger_gives_its_matrix_and_ledger(tmp_path, synth_run, mode):
    pipe_out = tmp_path / "pipe"
    assert _run_pipeline(synth_run, pipe_out, *_MODE_ARGS[mode]) == 0
    out = tmp_path / "cooccur"
    out.mkdir()
    flag = "--pair-ledger" if mode == "proximal" else "--ledger"
    argv = ["cooccur", flag, str(pipe_out / "ledger.csv"), "--roster", str(synth_run / "roster.csv"),
            "--out", str(out / "matrix.csv"), "--ledger-out", str(out / "ledger.csv")]
    assert main(argv) == 0
    for name in ("matrix.csv", "ledger.csv"):
        assert (out / name).read_bytes() == (pipe_out / name).read_bytes(), name


def test_cooccur_writes_a_presence_ledger_as_it_was_read_in_either_mode(tmp_path, synth_run):
    # --mode forms the records of tracks only; a presence ledger stays one
    for mode, extra in _MODE_ARGS.items():
        ledger_out = tmp_path / f"{mode}.csv"
        argv = ["cooccur", "--ledger", str(synth_run / "ledger.csv"), "--roster", str(synth_run / "roster.csv"),
                "--out", str(tmp_path / "matrix.csv"), "--ledger-out", str(ledger_out), *extra]
        assert main(argv) == 0
        assert ledger_out.read_bytes() == (synth_run / "ledger.csv").read_bytes(), mode


def _write_scenario(root, roster, streams) -> None:
    (root / "detections").mkdir(parents=True)
    (root / "roster.csv").write_text(ingest.write_roster(roster))
    for video_id, text in streams.items():
        (root / "detections" / f"{video_id}.jsonl").write_text(text)


def _conflicted_scenario(root):
    """A noisy synth scenario with identity conflicts in several videos.

    In every odd-numbered video that shows two or more individuals, the
    second one's detections carry the first one's class scores, so both
    of their tracks fuse to the first name.
    """
    noise = synth.NoiseParams(fp_rate=0.1, fn_rate=0.1, jitter_px=2.0, id_confusion_rate=0.2)
    scenario, streams = synth.build_scenario(11, 7, 2, 8, 12, noise)
    texts = {}
    for k, (video_id, stream) in enumerate(streams.items()):
        truth = scenario.ground_truth_tracks[video_id]
        if k % 2 and len(truth) >= 2:  # the true tracks hold the stream's own detections
            for det in truth[1].observations:
                det.class_scores = truth[0].observations[0].class_scores
        texts[video_id] = ingest.write_detection_stream(stream)
    _write_scenario(root, scenario.roster, texts)
    return root


@pytest.mark.parametrize("mode", list(_MODE_ARGS))
def test_pipeline_ledger_equals_one_ledger_call_over_all_tracks(tmp_path, mode):
    scenario = _conflicted_scenario(tmp_path / "scenario")
    out = tmp_path / "out"
    assert _run_pipeline(scenario, out, *_MODE_ARGS[mode]) == 0

    roster = ingest.parse_roster((scenario / "roster.csv").read_text())
    params = tracking.TrackerParams(min_track_len_for_id=1)
    tracks = []
    for path in sorted((scenario / "detections").iterdir()):
        stream = ingest.parse_detection_stream(path.read_text(), path.stem, roster)
        tracks.extend(tracking.fuse_identity(t, params) for t in tracking.build_tracks(stream, params))
    ledger, conflicts = tracking.tracks_to_ledger(tracks, mode=mode, prox=ProximityParams(max_gap=3.0))
    assert len({c.video_id for c in conflicts}) >= 2
    ledger_text = ingest.write_pair_ledger(ledger) if mode == "proximal" else ingest.write_ledger(ledger, roster)
    assert (out / "ledger.csv").read_text() == ledger_text
    assert (out / "conflicts.json").read_text() == ingest.write_json([asdict(c) for c in conflicts])


@pytest.mark.parametrize("mode", list(_MODE_ARGS))
def test_pipeline_gives_an_empty_stream_its_ledger_entry(tmp_path, mode):
    roster = ingest.Roster([ingest.Individual("Ayu"), ingest.Individual("Bora")])
    faces = [{"bbox": [0.0, 0.0, 10.0, 10.0], "score": 0.9, "class_scores": [0.9, 0.1]},
             {"bbox": [12.0, 0.0, 10.0, 10.0], "score": 0.9, "class_scores": [0.2, 0.8]}]
    unscored = [{"bbox": [0.0, 0.0, 10.0, 10.0], "score": 0.9}]
    streams = {  # an unscored stream needs no classes line
        "v0": '{"classes": ["Ayu", "Bora"]}\n'
        + "".join(json.dumps({"frame_index": fi, "detections": faces}) + "\n" for fi in range(3)),
        "v2": json.dumps({"frame_index": 0, "detections": unscored}) + "\n",
    }
    _write_scenario(tmp_path / "without", roster, streams)
    _write_scenario(tmp_path / "with", roster, {**streams, "v1": ""})
    for name in ("without", "with"):
        assert _run_pipeline(tmp_path / name, tmp_path / name / "out", *_MODE_ARGS[mode]) == 0
    without, with_empty = tmp_path / "without" / "out", tmp_path / "with" / "out"

    ledger = (with_empty / "ledger.csv").read_text()
    if mode == "video-level":  # one row per stream: the empty one and the unscored one present no one
        assert ledger == "video_id,present\nv0,\"Ayu,Bora\"\nv1,\nv2,\n"
    else:  # a pair ledger writes no row for a video without pairs
        assert ledger == "video_id,pair\nv0,\"Ayu,Bora\"\n"
    for name in _PIPELINE_FILES:
        if name != "ledger.csv" or mode == "proximal":
            assert (with_empty / name).read_bytes() == (without / name).read_bytes(), name


def test_pipeline_peak_memory_does_not_grow_with_the_videos(tmp_path):
    noise = synth.NoiseParams(fp_rate=0.05, fn_rate=0.05, jitter_px=2.0, id_confusion_rate=0.1)
    scenario, streams = synth.build_scenario(3, 12, 3, 1, 100, noise)
    (text,) = (ingest.write_detection_stream(s) for s in streams.values())
    for n in (2, 8):
        _write_scenario(tmp_path / f"n{n}", scenario.roster, {f"v{k}": text for k in range(n)})

    def peak(n):
        d = tmp_path / f"n{n}"
        tracemalloc.start()
        try:
            argv = ["pipeline", "--detections-dir", str(d / "detections"), "--roster", str(d / "roster.csv"),
                    "--out-dir", str(d / "out"), "--seed", "5"]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm-up: what the first run leaves cached is not the videos' cost
    assert peak(8) <= 1.5 * peak(2)


def test_pipeline_parse_error_names_the_file(tmp_path, capsys):
    detections = tmp_path / "detections"
    detections.mkdir()
    _write_stream(detections / "v1.jsonl", [{"frame_index": 0, "detections": []}])
    _write_stream(detections / "v2.jsonl", [{"frame_index": True, "detections": []}])
    roster = tmp_path / "roster.csv"
    roster.write_text("name,sex,age_years\nAyu,female,9\nBima,male,\n")
    out = tmp_path / "out"
    code = main(
        ["pipeline", "--detections-dir", str(detections), "--roster", str(roster),
         "--out-dir", str(out), "--seed", "1"]
    )
    assert code == 2
    assert capsys.readouterr().err == f"{detections / 'v2.jsonl'}: line 1: needs integer 'frame_index'\n"
    assert not out.exists()


# pipeline through cli.main in a fresh interpreter (pytest has loaded numpy, so
# in-process runs never reach the worker pool): sys.argv[1] is "auto", or
# "numpy-first" to import numpy before troopnet, or a number of workers to fix
# cli._workers at. Prints, for each fork, whether numpy was loaded.
_FRESH_PIPELINE = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from troopnet import cli
if sys.argv[1].isdigit():
    workers = int(sys.argv[1])
    cli._workers = lambda n_files: workers
forks = []
os.register_at_fork(before=lambda: forks.append("numpy" in sys.modules))
code = cli.main(["pipeline", *sys.argv[2:]])
print(json.dumps(forks))
sys.exit(code)
"""


def _fresh_pipeline(script, first, scenario, out, *extra):
    argv = ["--detections-dir", str(scenario / "detections"), "--roster", str(scenario / "roster.csv"),
            "--out-dir", str(out), "--seed", "5", *extra]
    return subprocess.run([sys.executable, "-c", script, first, *argv], capture_output=True, text=True, timeout=120)


def test_pipeline_outputs_do_not_depend_on_the_worker_count(tmp_path):
    # test_outputs_match_pinned_digests' scenario: its pipeline digests hold at every count
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "11", "--individuals", "7", "--matrilines", "2", "--videos", "10",
         "--frames", "12", "--fp-rate", "0.1", "--fn-rate", "0.1", "--jitter-px", "2",
         "--id-confusion-rate", "0.2", "--out-dir", str(scenario)]
    ) == 0
    for mode, extra in _MODE_ARGS.items():
        pinned = {name: digest for name, digest in _PINNED_DIGESTS.items() if name.startswith(f"pipeline/{mode}/")}
        for workers in (1, 2, 3):
            out = tmp_path / f"{mode}-{workers}"
            proc = _fresh_pipeline(_FRESH_PIPELINE, str(workers), scenario, out, "--min-track-len", "1", *extra)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == ([False] * workers if workers > 1 else []), workers
            assert {f"pipeline/{mode}/{name}": _digest(out / name) for name in _PIPELINE_FILES} == pinned, workers


def test_pipeline_names_the_first_bad_file_at_any_worker_count(tmp_path):
    # the 4th of 5 streams fails on its first line and the 2nd on its last, so
    # with workers the 4th fails first; the error must still be the 2nd's
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "6", "--matrilines", "2", "--videos", "5",
         "--frames", "40", "--out-dir", str(scenario)]
    ) == 0
    streams = sorted((scenario / "detections").iterdir())
    for path, line in [(streams[1], -1), (streams[3], 0)]:
        header, *frames = [json.loads(text) for text in path.read_text().splitlines()]
        frames[line]["frame_index"] = True
        _write_stream(path, frames, header["classes"])
    expected = f"{streams[1]}: line 41: needs integer 'frame_index'\n"  # the classes line is line 1
    for workers in (1, 2, 3):
        out = tmp_path / f"out-{workers}"
        proc = _fresh_pipeline(_FRESH_PIPELINE, str(workers), scenario, out)
        assert (proc.returncode, proc.stderr) == (2, expected), workers
        assert not out.exists()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.skipif(_usable_cpus() < 2, reason="with one usable CPU the videos run in-process")
def test_pipeline_forks_its_workers_before_numpy_loads(tmp_path):
    # a fork after numpy's BLAS has started its threads is unsafe
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "6", "--matrilines", "2", "--videos", "4",
         "--frames", "10", "--out-dir", str(scenario)]
    ) == 0
    outputs = {}
    for first, forks in [("auto", [False] * min(4, _usable_cpus())), ("numpy-first", [])]:
        proc = _fresh_pipeline(_FRESH_PIPELINE, first, scenario, tmp_path / first)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == forks, first
        outputs[first] = {name: (tmp_path / first / name).read_bytes() for name in _PIPELINE_FILES}
    assert outputs["auto"] == outputs["numpy-first"]


# pipeline at 2 workers, in which the worker given the stream sys.argv[1] kills itself
_PIPELINE_WITH_A_KILLED_WORKER = """
import os, signal, sys
from troopnet import cli
video_ledger = cli._video_ledger
def killed_on(path, roster, config):
    if path == sys.argv[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return video_ledger(path, roster, config)
cli._video_ledger = killed_on
cli._workers = lambda n_files: 2
sys.exit(cli.main(["pipeline", *sys.argv[2:]]))
"""


def test_pipeline_fails_when_a_worker_dies(tmp_path):
    # a worker the system kills, say for memory, must end the run with an error, not hang it
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "6", "--matrilines", "2", "--videos", "4",
         "--frames", "10", "--out-dir", str(scenario)]
    ) == 0
    second = sorted((scenario / "detections").iterdir())[1]
    proc = _fresh_pipeline(_PIPELINE_WITH_A_KILLED_WORKER, str(second), scenario, tmp_path / "out")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"{scenario / 'detections'}: a pipeline worker process died: "), proc.stderr
    assert not (tmp_path / "out").exists()


# one row per command input that is parsed: (flag, bad file text, message
# after the path, the command's other arguments given the tmp dir)
_BAD_INPUTS = {
    "eval-det-predictions": (
        "--predictions", '{"frame_index": true, "detections": []}\n', "line 1: needs integer 'frame_index'",
        lambda d: ["eval-det", "--ground-truth", str(d / "gt.json"), "--video-id", "v1", "--out", str(d / "o")],
    ),
    "track-detections": (
        "--detections",
        '{"frame_index": 0, "detections": [{"bbox": [0, 0, 1, 1], "score": 1%s}]}\n' % ("0" * 400),
        "line 1: detection 0: score: expected a number, got an integer too large for a float",
        lambda d: ["track", "--video-id", "v", "--out", str(d / "o")],
    ),
    "eval-id-roster": (
        "--roster", "name,sex,age_years\nAyu,female,1_0\n", "roster line 2: age_years '1_0' is not an integer",
        lambda d: ["eval-id", "--samples", str(d / "samples.jsonl"), "--out", str(d / "o")],
    ),
    "cooccur-ledger": (
        "--ledger", "video_id,pair\n", "ledger: expected header 'video_id,present'",
        lambda d: ["cooccur", "--out", str(d / "o")],
    ),
    "cooccur-ledger-field-limit": (  # the csv module refuses a cell over 131,072 characters
        "--ledger", f"video_id,present\nv1,A;B\nv2,{'B' * 200_000}\n", "ledger line 3: field larger than field limit (131072)",
        lambda d: ["cooccur", "--out", str(d / "o")],
    ),
    "cooccur-pair-ledger": (
        "--pair-ledger", "video_id,pair\nv1\n", "pair ledger line 2: expected 2 columns, got 1",
        lambda d: ["cooccur", "--out", str(d / "o")],
    ),
    "network-matrix": (
        "--matrix", ",A,B\nA,,0.2_5\nB,0.25,\n", "matrix row 2, column 'B': '0.2_5' is not a number",
        lambda d: ["network", "--out", str(d / "o")],
    ),
    "layout-report": (
        "--report", '{"density": 0.5}', "report: needs 'global_efficiency_binary'",
        lambda d: ["layout", "--matrix", str(d / "matrix.csv"), "--seed", "1", "--svg-out", str(d / "o")],
    ),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_parse_errors_name_the_file(tmp_path, capsys, case):
    flag, text, message, other_args = _BAD_INPUTS[case]
    _eval_det_inputs(tmp_path)  # writes gt.json
    (tmp_path / "samples.jsonl").write_text('{"class_scores": {"Ayu": 1.0}, "true_label": "Ayu"}\n')
    (tmp_path / "matrix.csv").write_text(",A,B\nA,,0.5\nB,0.5,\n")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main([*other_args(tmp_path), flag, str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}: {message}\n"
    assert not (tmp_path / "o").exists()


# JSON nested deeper than the recursion limit: json raises RecursionError, which
# must end the run as malformed JSON on its line (exit 2), not as a traceback
_DEEP = "[" * 100_000
_DEEP_INPUTS = {
    "track-detections": (
        "--detections", '{"classes": ["Ayu"]}\n' + _DEEP + "\n", "line 2",
        lambda d: ["track", "--video-id", "v", "--out", str(d / "o")],
    ),
    "eval-det-predictions": (
        "--predictions", _DEEP + "\n", "line 1",
        lambda d: ["eval-det", "--ground-truth", str(d / "gt.json"), "--video-id", "v1", "--out", str(d / "o")],
    ),
    "eval-det-ground-truth": (
        "--ground-truth", '{"images": ' + '{"a": ' * 100_000, "ground truth",
        lambda d: ["eval-det", "--predictions", str(d / "preds.jsonl"), "--video-id", "v1", "--out", str(d / "o")],
    ),
    "cooccur-tracks": (
        "--tracks", _DEEP + "\n", "tracks line 1",
        lambda d: ["cooccur", "--out", str(d / "o")],
    ),
    "eval-id-samples": (
        "--samples", '{"class_scores": {"Ayu": 1.0}, "true_label": "Ayu"}\n' + _DEEP + "\n", "samples line 2",
        lambda d: ["eval-id", "--roster", str(d / "roster.csv"), "--out", str(d / "o")],
    ),
    "layout-report": (
        "--report", _DEEP, "report",
        lambda d: ["layout", "--matrix", str(d / "matrix.csv"), "--seed", "1", "--svg-out", str(d / "o")],
    ),
}


@pytest.mark.parametrize("case", list(_DEEP_INPUTS))
def test_deeply_nested_json_is_malformed_json(tmp_path, capsys, case):
    flag, text, place, other_args = _DEEP_INPUTS[case]
    _eval_det_inputs(tmp_path)  # writes preds.jsonl and gt.json
    (tmp_path / "roster.csv").write_text("name,sex,age_years\nAyu,female,\n")
    (tmp_path / "matrix.csv").write_text(",A,B\nA,,0.5\nB,0.5,\n")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main([*other_args(tmp_path), flag, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"{bad}: {place}: malformed JSON: ")
    assert not (tmp_path / "o").exists()


def test_deeply_nested_json_ends_pipeline_at_any_worker_count(tmp_path):
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "6", "--matrilines", "2", "--videos", "3",
         "--frames", "5", "--out-dir", str(scenario)]
    ) == 0
    second = sorted((scenario / "detections").iterdir())[1]
    with open(second, "a") as fh:
        fh.write(_DEEP + "\n")  # after the classes line and 5 frames
    for workers in (1, 2):
        out = tmp_path / f"out-{workers}"
        proc = _fresh_pipeline(_FRESH_PIPELINE, str(workers), scenario, out)
        assert proc.returncode == 2, (workers, proc.stderr[-500:])
        assert proc.stderr.startswith(f"{second}: line 7: malformed JSON: "), (workers, proc.stderr[:300])
        assert "Traceback" not in proc.stderr
        assert not out.exists()


_REQUIRED_VALUES = [
    ("a seed", "--seed", "seed"),
    ("a detections directory", "--detections-dir", "paths.detections_dir"),
    ("a roster", "--roster", "paths.roster"),
    ("an output directory", "--out-dir", "paths.out_dir"),
]


@pytest.mark.parametrize("what,flag,key", _REQUIRED_VALUES, ids=[r[1] for r in _REQUIRED_VALUES])
def test_a_missing_value_names_its_flag_and_its_config_key(tmp_path, synth_run, capsys, what, flag, key):
    given = {
        "--seed": "5",
        "--detections-dir": str(synth_run / "detections"),
        "--roster": str(synth_run / "roster.csv"),
        "--out-dir": str(tmp_path / "out"),
    }
    argv = ["pipeline", "--min-track-len", "1", *(a for f, v in given.items() if f != flag for a in (f, v))]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{what} is required: pass {flag} or set the {key!r} config key\n"
    # and the key named gives it
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"{key} = {given[flag]}\n")
    assert main([*argv, "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "ledger.csv").read_bytes() == (synth_run / "ledger.csv").read_bytes()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_inputs_give_the_lf_outputs(tmp_path, synth_run, newline):
    # the roster and config end their lines with newline, the streams with CRLF (a record ends at LF)
    other = tmp_path / "other"
    (other / "detections").mkdir(parents=True)
    roster = (synth_run / "roster.csv").read_bytes()
    (other / "roster.csv").write_bytes(roster.replace(b"\n", newline.encode()))
    for src in (synth_run / "detections").iterdir():
        (other / "detections" / src.name).write_bytes(src.read_bytes().replace(b"\n", b"\r\n"))
    assert (other / "roster.csv").read_bytes().count(newline.encode()) > 1
    config = "# pinned\nseed = 5\ntracker.min_track_len_for_id = 1\n"
    outs = []
    for root, end in ((synth_run, "\n"), (other, newline)):
        cfg = tmp_path / f"{root.name}.cfg"
        cfg.write_bytes(config.replace("\n", end).encode())
        out = tmp_path / f"out-{root.name}"
        argv = ["pipeline", "--config", str(cfg), "--detections-dir", str(root / "detections"),
                "--roster", str(root / "roster.csv"), "--out-dir", str(out)]
        assert main(argv) == 0
        outs.append(out)
    for name in _PIPELINE_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_matrices_give_the_lf_report(tmp_path, fixture_matrix_path, newline):
    # a CR-only CSV is what Excel's "CSV (Macintosh)" export writes
    other = tmp_path / "other.csv"
    other.write_bytes(fixture_matrix_path.read_bytes().replace(b"\n", newline.encode()))
    reports = []
    for matrix in (fixture_matrix_path, other):
        out = tmp_path / f"{matrix.stem}.json"
        assert main(["network", "--matrix", str(matrix), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def _bom_inputs(d) -> dict[str, str]:
    """One small input of each format a command reads, by file name."""
    _eval_det_inputs(d)  # preds.jsonl and gt.json
    faces = [{"bbox": [0, 0, 10, 10], "score": 0.9, "class_scores": [0.9, 0.1]},
             {"bbox": [12, 0, 10, 10], "score": 0.9, "class_scores": [0.2, 0.8]}]
    _write_stream(d / "stream.jsonl", [{"frame_index": fi, "detections": faces} for fi in range(3)], ["Ayu", "Bora"])
    texts = {
        "roster.csv": "name,sex,age_years\nAyu,female,9\nBora,male,\n",
        "ledger.csv": 'video_id,present\nv1,"Ayu,Bora"\nv2,Ayu\n',
        "pairs.csv": 'video_id,pair\nv1,"Ayu,Bora"\nv2,"Ayu,Cai"\n',
        "matrix.csv": _ABC,
        "samples.jsonl": '{"class_scores": {"Ayu": 0.8, "Bora": 0.2}, "true_label": "Ayu"}\n',
        "config.cfg": "seed = 5\n",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    inputs = {name: str(d / name) for name in [*texts, "stream.jsonl", "preds.jsonl", "gt.json"]}
    inputs["tracks.jsonl"], inputs["report.json"] = str(d / "tracks.jsonl"), str(d / "report.json")
    assert main(["track", "--detections", inputs["stream.jsonl"], "--video-id", "v1",
                 "--roster", inputs["roster.csv"], "--out", inputs["tracks.jsonl"]]) == 0
    assert main(["network", "--matrix", inputs["matrix.csv"], "--out", inputs["report.json"]]) == 0
    return inputs


# by the input given a byte order mark: the command given the inputs and the output
_BOM_COMMANDS = {
    "roster.csv": lambda i, o: ["cooccur", "--ledger", i["ledger.csv"], "--roster", i["roster.csv"], "--out", o],
    "config.cfg": lambda i, o: ["layout", "--matrix", i["matrix.csv"], "--config", i["config.cfg"], "--svg-out", o],
    "stream.jsonl": lambda i, o: ["track", "--detections", i["stream.jsonl"], "--video-id", "v1",
                                  "--roster", i["roster.csv"], "--out", o],
    "tracks.jsonl": lambda i, o: ["cooccur", "--tracks", i["tracks.jsonl"], "--mode", "proximal", "--out", o],
    "ledger.csv": lambda i, o: ["cooccur", "--ledger", i["ledger.csv"], "--out", o],
    "pairs.csv": lambda i, o: ["cooccur", "--pair-ledger", i["pairs.csv"], "--out", o],
    "matrix.csv": lambda i, o: ["network", "--matrix", i["matrix.csv"], "--out", o],
    "report.json": lambda i, o: ["layout", "--matrix", i["matrix.csv"], "--report", i["report.json"],
                                 "--seed", "1", "--dot-out", o],
    "samples.jsonl": lambda i, o: ["eval-id", "--samples", i["samples.jsonl"], "--roster", i["roster.csv"], "--out", o],
    "gt.json": lambda i, o: ["eval-det", "--predictions", i["preds.jsonl"], "--ground-truth", i["gt.json"],
                             "--video-id", "v1", "--out", o],
}


@pytest.mark.parametrize("name", list(_BOM_COMMANDS))
def test_an_input_with_a_leading_utf8_bom_gives_the_output_without(tmp_path, name):
    # Excel's "CSV UTF-8" export begins the file with the byte order mark EF BB BF
    inputs = _bom_inputs(tmp_path)
    bom = tmp_path / f"bom-{name}"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(inputs[name]).read_bytes())
    outs = []
    for given in (inputs, {**inputs, name: str(bom)}):
        out = tmp_path / f"out-{len(outs)}"
        assert main(_BOM_COMMANDS[name](given, str(out))) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# an AppleDouble header: the magic number 00 05 16 07, then a byte that is not UTF-8
_APPLEDOUBLE = b"\x00\x05\x16\x07\xa3\x00\x02\x00"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad", ["stream", "roster"])
def test_pipeline_names_a_file_that_is_not_utf8(tmp_path, bad, workers):
    # a stream holding binary bytes; a spreadsheet may save a roster as Latin-1
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "3", "--matrilines", "1", "--videos", "3",
         "--frames", "4", "--out-dir", str(scenario)]
    ) == 0
    if bad == "stream":
        path = scenario / "detections" / "v0001.jsonl"
        path.write_bytes(_APPLEDOUBLE)
        reason = "byte 0xa3 in position 4: invalid start byte"
    else:
        path = scenario / "roster.csv"
        path.write_bytes("name,sex,age_years\nZo\u00eb,female,3\n".encode("latin-1"))
        reason = "byte 0xeb in position 21: invalid continuation byte"
    proc = _fresh_pipeline(_FRESH_PIPELINE, str(workers), scenario, tmp_path / "out")
    assert (proc.returncode, proc.stderr) == (2, f"{path}: not UTF-8 text: 'utf-8' codec can't decode {reason}\n")
    assert not (tmp_path / "out").exists()


def test_pipeline_ignores_hidden_appledouble_files(tmp_path):
    # macOS leaves an AppleDouble file "._<name>" beside each file it copies to a foreign volume
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "3", "--matrilines", "1", "--videos", "3",
         "--frames", "4", "--out-dir", str(scenario)]
    ) == 0
    clean = _fresh_pipeline(_FRESH_PIPELINE, "1", scenario, tmp_path / "clean")
    assert clean.returncode == 0, clean.stderr
    expected = {name: (tmp_path / "clean" / name).read_bytes() for name in _PIPELINE_FILES}
    (scenario / "detections" / "._v0001.jsonl").write_bytes(_APPLEDOUBLE)
    for workers in (1, 2):
        out = tmp_path / f"out-{workers}"
        proc = _fresh_pipeline(_FRESH_PIPELINE, str(workers), scenario, out)
        assert proc.returncode == 0, proc.stderr
        assert {name: (out / name).read_bytes() for name in _PIPELINE_FILES} == expected, workers


@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_names_the_line_of_a_repeated_frame_index(tmp_path, workers):
    # the parser is the one check on frame order: build_tracks takes the frames as they come
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "3", "--matrilines", "1", "--videos", "3",
         "--frames", "4", "--out-dir", str(scenario)]
    ) == 0
    path = scenario / "detections" / "v0001.jsonl"
    header, *frames = [json.loads(text) for text in path.read_text().splitlines()]
    frames[2]["frame_index"] = frames[1]["frame_index"]
    _write_stream(path, frames, header["classes"])
    proc = _fresh_pipeline(_FRESH_PIPELINE, str(workers), scenario, tmp_path / "out")
    expected = f"{path}: line 4: frame_index 1 not greater than previous 1\n"  # the classes line is line 1
    assert (proc.returncode, proc.stderr) == (2, expected)
    assert not (tmp_path / "out").exists()


def test_pipeline_refuses_a_classes_line_that_holds_a_frame(tmp_path, capsys):
    # a frame written onto the classes line would otherwise be dropped without a word
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "3", "--matrilines", "1", "--videos", "3",
         "--frames", "4", "--out-dir", str(scenario)]
    ) == 0
    path = scenario / "detections" / "v0001.jsonl"
    header, first, *frames = [json.loads(text) for text in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [{**header, **first}, *frames]))
    out = tmp_path / "out"
    argv = ["pipeline", "--detections-dir", str(scenario / "detections"), "--roster", str(scenario / "roster.csv"),
            "--out-dir", str(out), "--seed", "5"]
    assert main(argv) == 2
    expected = f"{path}: line 1: the classes line may hold only \"classes\", not 'frame_index', 'detections'\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_a_stream_in_the_object_form_exits_2_naming_the_new_form(tmp_path, capsys):
    # class scores were once an object by name on every detection; streams now name the
    # classes once and give each detection a list, so an old stream is refused, not misread
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "3", "--individuals", "3", "--matrilines", "1", "--videos", "3",
         "--frames", "4", "--out-dir", str(scenario)]
    ) == 0
    path = scenario / "detections" / "v0001.jsonl"
    header, *frames = [json.loads(text) for text in path.read_text().splitlines()]
    for frame in frames:
        for det in frame["detections"]:
            det["class_scores"] = dict(zip(header["classes"], det["class_scores"]))
    _write_stream(path, frames)
    expected = (
        f"{path}: line 1: detection 0: class_scores is an object; "
        'scores are now a list in the order of the "classes" line\n'
    )
    out = tmp_path / "tracks.jsonl"
    argv = ["track", "--detections", str(path), "--video-id", "v0001", "--roster", str(scenario / "roster.csv")]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == expected
    assert not out.exists()
    proc = _fresh_pipeline(_FRESH_PIPELINE, "1", scenario, tmp_path / "out")
    assert (proc.returncode, proc.stderr) == (2, expected)
    assert not (tmp_path / "out").exists()


def test_a_bare_cr_inside_a_json_lines_record_is_whitespace(tmp_path):
    stream = tmp_path / "v.jsonl"
    stream.write_bytes(b'{"frame_index":0,\r"detections":[]}\n')
    out = tmp_path / "t.jsonl"
    assert main(["track", "--detections", str(stream), "--video-id", "v", "--out", str(out)]) == 0
    assert parse_tracks(out.read_text()) == []


@pytest.mark.parametrize("side", [1e-200, 1e200])
def test_track_follows_a_still_box_of_any_size(tmp_path, side):
    # the overlap's area underflowed (ZeroDivisionError) or overflowed (NaN: two one-frame tracks)
    stream = tmp_path / "v.jsonl"
    box = {"bbox": [0, 0, side, side], "score": 0.9}
    _write_stream(stream, [{"frame_index": fi, "detections": [box]} for fi in (0, 1)])
    out = tmp_path / "t.jsonl"
    assert main(["track", "--detections", str(stream), "--video-id", "v", "--out", str(out)]) == 0
    tracks = parse_tracks(out.read_text())
    assert [[o.frame_index for o in t.observations] for t in tracks] == [[0, 1]]


def test_track_rejects_a_box_whose_right_edge_overflows(tmp_path, capsys):
    # x + w = inf: the box's IoU with itself was NaN, and track wrote two one-frame tracks
    stream = tmp_path / "v.jsonl"
    box = {"bbox": [1e308, 0, 1e308, 1], "score": 0.9}
    _write_stream(stream, [{"frame_index": fi, "detections": [box]} for fi in (0, 1)])
    out = tmp_path / "t.jsonl"
    assert main(["track", "--detections", str(stream), "--video-id", "v", "--out", str(out)]) == 2
    assert "line 1: detection 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("zero", ["-0.0", "-0"])
def test_network_reads_a_negative_zero_cell_as_blank(tmp_path, zero):
    # a -0.0 cell kept its sign through the mirror merge, and its edge length 1 / -0.0 = -inf
    # made the weighted efficiency 0.0 with two RuntimeWarnings
    reports = []
    for name, cell in (("blank", ""), ("zero", zero)):
        matrix = tmp_path / f"{name}.csv"
        matrix.write_text(f",a,b,c\na,,0.5,{cell}\nb,0.5,,0.5\nc,{cell},0.5,\n")
        out = tmp_path / f"{name}.json"
        assert main(["network", "--matrix", str(matrix), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_pipeline_missing_inputs_are_usage_errors(tmp_path, synth_run, capsys):
    assert main(["pipeline", "--out-dir", str(tmp_path / "x"), "--seed", "1"]) == 1
    assert main(
        ["pipeline", "--detections-dir", str(synth_run / "detections"),
         "--roster", str(synth_run / "roster.csv"), "--out-dir", str(tmp_path / "x")]
    ) == 1  # no seed
    capsys.readouterr()


def test_console_script_entry_point(tmp_path, fixture_matrix_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "troopnet.cli", "network",
         "--matrix", str(fixture_matrix_path), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_report(out.read_text()).density == pytest.approx(0.17305458768873402)


# Modules that importing troopnet.cli and rendering the matrix sys.argv[1]
# to SVG add to a bare interpreter, one per line.
_NEW_MODULES = """
import sys
before = set(sys.modules)
from troopnet.cli import main
if main(["layout", "--matrix", sys.argv[1], "--seed", "5", "--svg-out", sys.argv[2]]) != 0:
    sys.exit("layout failed")
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_leaves_out_the_xml_and_http_stack(tmp_path, fixture_matrix_path):
    proc = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES, str(fixture_matrix_path), str(tmp_path / "network.svg")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "troopnet.layout" in added
    heavy = ("xml", "urllib.request", "http", "email", "ssl")
    assert [m for m in added if any(m == h or m.startswith(h + ".") for h in heavy)] == []


# A toy synth, pipeline and track run through cli.main; with "blocked" as
# its first argument, every import of scipy raises ImportError.
_TOY_RUN = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from troopnet.cli import main
out = sys.argv[2]
synth = out + "/synth"
for argv in (
    ["synth", "--seed", "3", "--individuals", "6", "--matrilines", "2", "--videos", "4", "--frames", "10",
     "--fp-rate", "0.1", "--fn-rate", "0.1", "--jitter-px", "2", "--id-confusion-rate", "0.2",
     "--out-dir", synth],
    ["pipeline", "--detections-dir", synth + "/detections", "--roster", synth + "/roster.csv",
     "--out-dir", out + "/pipeline", "--seed", "5", "--min-track-len", "1"],
    ["track", "--detections", synth + "/detections/v0001.jsonl", "--video-id", "v0001",
     "--roster", synth + "/roster.csv", "--out", out + "/track.jsonl"],
):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_toy_run_without_scipy_matches_unblocked_run(tmp_path):
    outputs = {}
    for side in ("blocked", "unblocked"):
        out = tmp_path / side
        proc = subprocess.run([sys.executable, "-c", _TOY_RUN, side, str(out)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[side] = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(outputs["blocked"]) == 3 + 2 * 4 + len(_PIPELINE_FILES) + 1
    assert outputs["blocked"] == outputs["unblocked"]


# eval-det, track --roster and eval-id through cli.main on the detection
# stream of video v0003 at sys.argv[2], with the ground truth and roster at
# sys.argv[3] and [4], writing under sys.argv[5]; eval-id scores each scored
# observation of the fused tracks as a sample of its track's name. With
# "blocked" as sys.argv[1], every import of numpy raises ImportError.
_NUMPY_FREE_RUN = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from troopnet.cli import main
if sys.modules.get("numpy") is not None:
    sys.exit("import troopnet.cli loaded numpy")
stream, gt, roster, out = sys.argv[2:]
def run(*argv):
    if main(list(argv)) != 0:
        sys.exit(f"{argv[0]} failed")
run("eval-det", "--predictions", stream, "--ground-truth", gt, "--video-id", "v0003", "--out", out + "/det.json")
run("track", "--detections", stream, "--video-id", "v0003", "--roster", roster, "--out", out + "/track.jsonl")
with open(out + "/track.jsonl") as fh, open(out + "/samples.jsonl", "w") as samples:
    classes = json.loads(next(fh))["classes"]
    for track in map(json.loads, fh):
        for obs in track["observations"] if track["identity"] else []:
            if "class_scores" in obs:
                scores = dict(zip(classes, obs["class_scores"]))
                samples.write(json.dumps({"class_scores": scores, "true_label": track["identity"]["name"]}) + "\\n")
run("eval-id", "--samples", out + "/samples.jsonl", "--roster", roster, "--out", out + "/id.json")
"""


def test_eval_det_and_track_run_without_numpy(synth_run, tmp_path):
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps(_gt_from_tracks(synth_run / "tracks" / "v0003.jsonl", "v0003")))
    inputs = [str(synth_run / "detections" / "v0003.jsonl"), str(gt), str(synth_run / "roster.csv")]
    outputs = {}
    for side in ("blocked", "unblocked"):
        out = tmp_path / side
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_RUN, side, *inputs, str(out)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs[side] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(outputs["blocked"]) == ["det.json", "id.json", "samples.jsonl", "track.jsonl"]
    assert json.loads(outputs["blocked"]["id.json"])["n_samples"] > 0
    assert outputs["blocked"] == outputs["unblocked"]


# cli.main on each command of sys.argv[1:], a JSON list of arguments, in a
# fresh interpreter (pytest has loaded numpy). Prints, after each command,
# whether numpy was loaded.
_NUMPY_WATCH = """
import json, sys
from troopnet.cli import main
loaded = []
for argv in map(json.loads, sys.argv[1:]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def _numpy_watch(*commands) -> list[bool]:
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_WATCH, *map(json.dumps, commands)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_small_graphs_never_load_numpy(tmp_path, fixture_matrix_path):
    # test_outputs_match_pinned_digests' scenario (7 individuals) and matrix (42), below params.NUMPY_MIN_N
    scenario = tmp_path / "scenario"
    pipe, out = tmp_path / "pipeline", tmp_path / "out"
    out.mkdir()
    matrix = str(fixture_matrix_path)
    loaded = _numpy_watch(
        ["synth", "--seed", "11", "--individuals", "7", "--matrilines", "2", "--videos", "10",
         "--frames", "12", "--fp-rate", "0.1", "--fn-rate", "0.1", "--jitter-px", "2",
         "--id-confusion-rate", "0.2", "--out-dir", str(scenario)],
        ["pipeline", "--detections-dir", str(scenario / "detections"), "--roster", str(scenario / "roster.csv"),
         "--out-dir", str(pipe), "--seed", "5", "--min-track-len", "1"],
        # the pipeline's own ledger counts to the pipeline's matrix
        ["cooccur", "--ledger", str(pipe / "ledger.csv"), "--roster", str(scenario / "roster.csv"),
         "--out", str(out / "cooccur.csv")],
        ["network", "--matrix", matrix, "--out", str(out / "report.json")],
        ["layout", "--matrix", matrix, "--report", str(out / "report.json"), "--seed", "5",
         "--svg-out", str(out / "network.svg"), "--dot-out", str(out / "network.dot")],
        # without --report, layout measures the network itself
        ["layout", "--matrix", matrix, "--seed", "5", "--dot-out", str(out / "measured.dot")],
    )
    assert loaded == [False] * 6
    got = {f"pipeline/video-level/{name}": _digest(pipe / name) for name in _PIPELINE_FILES}
    got.update({"network/report.json": _digest(out / "report.json")})
    got.update({f"layout/{name}": _digest(out / name) for name in ("network.svg", "network.dot")})
    assert got == {name: _PINNED_DIGESTS[name] for name in got}
    assert (out / "cooccur.csv").read_bytes() == (pipe / "matrix.csv").read_bytes()
    assert (out / "measured.dot").read_bytes() == (out / "network.dot").read_bytes()


def test_graphs_from_the_line_on_load_numpy(tmp_path):
    # test_outputs_match_pinned_digests' 96-vertex matrix, and the first 48 of its vertices
    large = tmp_path / "large"
    # synth never loads numpy, whatever the troop's size
    assert _numpy_watch(
        ["synth", "--seed", "11", "--individuals", "96", "--matrilines", "8", "--videos", "96",
         "--frames", "1", "--out-dir", str(large)]
    ) == [False]
    assert main(
        ["cooccur", "--ledger", str(large / "ledger.csv"), "--roster", str(large / "roster.csv"),
         "--out", str(large / "matrix.csv")]
    ) == 0
    rows = (large / "matrix.csv").read_text().splitlines()
    line = params.NUMPY_MIN_N
    (tmp_path / "at_line.csv").write_text("".join(",".join(row.split(",")[: line + 1]) + "\n" for row in rows[: line + 1]))
    for matrix in (large / "matrix.csv", tmp_path / "at_line.csv"):
        report, svg = tmp_path / f"{matrix.stem}.json", tmp_path / f"{matrix.stem}.svg"
        assert _numpy_watch(["network", "--matrix", str(matrix), "--out", str(report)]) == [True]
        assert _numpy_watch(
            ["layout", "--matrix", str(matrix), "--report", str(report), "--seed", "5", "--max-rounds-factor", "2",
             "--svg-out", str(svg)]
        ) == [True]
    assert _digest(tmp_path / "matrix.json") == _PINNED_DIGESTS["network/n96/report.json"]
    assert _digest(tmp_path / "matrix.svg") == _PINNED_DIGESTS["layout/n96/network.svg"]


# ---------------------------------------------------------------------------
# output bytes pinned across versions

# SHA-256 of each output file. Reruns in one process are compared above;
# these digests also hold the bytes fixed from one version of the code to
# the next, so a change that is meant to be a pure refactor shows here.
_PINNED_DIGESTS = {
    "pipeline/video-level/ledger.csv": "fe47b11ac25f8339d03eeccc1e6a9829f0c78930004fad542a14a110144c2c66",
    "pipeline/video-level/matrix.csv": "b4814d67c000a34c62706aab369ad314ce6c26cf245169494dfca83cf972f1f8",
    "pipeline/video-level/report.json": "5f16774abb911db244e7f9b323bbb0e8ed2ef9037dff857ac4b7e87ac1b3c865",
    "pipeline/video-level/network.svg": "52b52cc2ec1c0bf0a648106c6b74ed58a2e7ff738f51488adf964587ef58642f",
    "pipeline/video-level/network.dot": "e2008ded28ddd78c0ccdf6b175626ac177d292d04476c09956461551c16f5f6b",
    "pipeline/video-level/conflicts.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "pipeline/proximal/ledger.csv": "e27bf01bf1fcda8b0f9935ad8562cb7472adc7e39e8bff84d615359d999a10f0",
    "pipeline/proximal/matrix.csv": "970204b96e513aea81c2b0c1e5e850e8ba70e98666bd91abe21a8dd5c4bfb1ce",
    "pipeline/proximal/report.json": "be19ea62b5138c7f1c79f256540969342450da628b8ffe313cd88fa500cca0ff",
    "pipeline/proximal/network.svg": "006c999ed2da032b3ce61eaf1491306f8c1986ced9e9da753910572bd541796f",
    "pipeline/proximal/network.dot": "67d43432a1e60ce916341ed2845349759a4151ac47be035937f37bf1ec8b6b01",
    "pipeline/proximal/conflicts.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "network/report.json": "c4ee3708058a149ee5616f5b5a3fe31785e3eeef57f9e5becc7f7fb24d2f1814",
    "layout/network.svg": "d01f93b388b005dff96a9e60bbd86c766d346ee0a7a2262a8ce0738061e2d208",
    "layout/network.dot": "396adbb75241d9ff38870a8a3d562c20522e67132a861a4b0b9d4ce5475ad83d",
    "layout/n96/network.svg": "7bce11a6fc07e4150e9251bdc95143764782a3f5ca42135b9080e93e6976bd3d",
    "layout/n160/network.svg": "1b0fb155ede60f21a0b55292680e44aa4b69c0026d383e32ec13b111a6f710f3",
    "network/n96/report.json": "e1a6bcf289c14c503dedc36764c069ee97302f2ab68c1435dbdd6a8011d8d81b",
    "eval-det/hand.json": "7654eb3e26523ab90969a4e0ca7675d2ded199297f3169bdac5b826a695ac8f6",
    "eval-det/noisy.json": "38c67e95906bf80f1b3f8bbea9f3506b1161cf130143f9c9f29c691af203f7ed",
    "eval-det/strict.json": "051c086d2cd1db15f287c11a1bbfa78449b71b485d95723ce49dfb8d9c486d5d",
}


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _gt_from_tracks(tracks_path, video_id) -> dict:
    """A ground-truth document with one image per frame of the given tracks.

    Each box is shifted right by 0, 3, ..., 12 px in turn, so the IoU with
    the detection it came from ranges over 1.0 down to 0.68.
    """
    frames: dict[int, list] = {}
    for track in parse_tracks(tracks_path.read_text()):
        for obs in track.observations:
            box = obs.bbox
            boxes = frames.setdefault(obs.frame_index, [])
            boxes.append([box.x + 3.0 * (len(boxes) % 5), box.y, box.w, box.h])
    images, annotations = [], []
    for fi in sorted(frames):
        images.append({"id": fi, "video_id": video_id, "frame_index": fi, "width": 4096, "height": 4096})
        annotations.extend({"image_id": fi, "bbox": box, "label": "face"} for box in frames[fi])
    return {"images": images, "annotations": annotations}


def test_outputs_match_pinned_digests(tmp_path, fixture_matrix_path):
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "11", "--individuals", "7", "--matrilines", "2", "--videos", "10",
         "--frames", "12", "--fp-rate", "0.1", "--fn-rate", "0.1", "--jitter-px", "2",
         "--id-confusion-rate", "0.2", "--out-dir", str(scenario)]
    ) == 0
    outputs = {}
    for mode, extra in _MODE_ARGS.items():
        out = tmp_path / mode
        assert _run_pipeline(scenario, out, *extra) == 0
        outputs.update({f"pipeline/{mode}/{name}": out / name for name in _PIPELINE_FILES})

    report = tmp_path / "report.json"
    svg = tmp_path / "network.svg"
    dot = tmp_path / "network.dot"
    assert main(["network", "--matrix", str(fixture_matrix_path), "--out", str(report)]) == 0
    assert main(
        ["layout", "--matrix", str(fixture_matrix_path), "--report", str(report), "--seed", "5",
         "--svg-out", str(svg), "--dot-out", str(dot)]
    ) == 0
    outputs.update({"network/report.json": report, "layout/network.svg": svg, "layout/network.dot": dot})

    # a layout large enough for GEM's numpy visit (params.NUMPY_MIN_N)
    large = tmp_path / "large"
    assert main(
        ["synth", "--seed", "11", "--individuals", "96", "--matrilines", "8", "--videos", "96",
         "--frames", "1", "--out-dir", str(large)]
    ) == 0
    assert main(
        ["cooccur", "--ledger", str(large / "ledger.csv"), "--roster", str(large / "roster.csv"),
         "--out", str(large / "matrix.csv")]
    ) == 0
    assert main(
        ["layout", "--matrix", str(large / "matrix.csv"), "--seed", "5", "--max-rounds-factor", "2",
         "--svg-out", str(large / "network.svg")]
    ) == 0
    outputs["layout/n96/network.svg"] = large / "network.svg"
    # a report large enough that per-source loops and all-sources arrays part ways in cost
    assert main(["network", "--matrix", str(large / "matrix.csv"), "--out", str(large / "report.json")]) == 0
    outputs["network/n96/report.json"] = large / "report.json"
    # a dense (0.87) layout of perfbench wide's size, on the numpy visit
    wide = tmp_path / "wide"
    assert main(
        ["synth", "--seed", "11", "--individuals", "160", "--matrilines", "16", "--videos", "320",
         "--frames", "1", "--out-dir", str(wide)]
    ) == 0
    assert main(
        ["cooccur", "--ledger", str(wide / "ledger.csv"), "--roster", str(wide / "roster.csv"),
         "--out", str(wide / "matrix.csv")]
    ) == 0
    assert main(
        ["layout", "--matrix", str(wide / "matrix.csv"), "--seed", "5", "--max-rounds-factor", "2",
         "--svg-out", str(wide / "network.svg")]
    ) == 0
    outputs["layout/n160/network.svg"] = wide / "network.svg"

    hand = tmp_path / "hand.json"
    assert main([*_eval_det_inputs(tmp_path), "--out", str(hand)]) == 0
    outputs["eval-det/hand.json"] = hand
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps(_gt_from_tracks(scenario / "tracks" / "v0003.jsonl", "v0003")))
    noisy = ["eval-det", "--predictions", str(scenario / "detections" / "v0003.jsonl"),
             "--ground-truth", str(gt), "--video-id", "v0003"]
    for name, thresholds in [("noisy", []), ("strict", ["--iou-threshold", "0.9", "--score-threshold", "0.7"])]:
        out = tmp_path / f"{name}.json"
        assert main([*noisy, *thresholds, "--out", str(out)]) == 0
        outputs[f"eval-det/{name}.json"] = out

    assert {name: _digest(path) for name, path in outputs.items()} == _PINNED_DIGESTS


# SHA-256 of eval-id --k 1 --k 2 --k 3 on (a) samples built from the fused
# tracks of test_outputs_match_pinned_digests' scenario and (b) a hand file
# whose true labels tie with other names at the top and in mid-ranking.
_PINNED_EVAL_ID_DIGESTS = {
    "eval-id/scenario.json": "672a36262b2ca6fee387f9d9dae0454b404a3befc773a55fa72e4ca23300fc6c",
    "eval-id/ties.json": "1dd1a2d2690b16d7eb1cc82e42be4493bf940291c6cbc66e6f7ad6b9544f6f1f",
}

# (scores of names A-E, true label): the later of two tied names ranks first
_TIED_SAMPLES = [
    ((0.5, 0.5, 0.25, 0.0, 0.0), "A"),  # tied for the top, ranked 2nd
    ((0.5, 0.5, 0.25, 0.0, 0.0), "B"),  # tied for the top, ranked 1st
    ((0.9, 0.4, 0.4, 0.4, 0.1), "B"),  # three-way tie below the top: 4th
    ((0.9, 0.4, 0.4, 0.4, 0.1), "C"),  # 3rd
    ((0.9, 0.4, 0.4, 0.4, 0.1), "D"),  # 2nd
    ((0.25, 0.25, 0.25, 0.25, 0.25), "A"),  # all tied: last
    ((0.25, 0.25, 0.25, 0.25, 0.25), "E"),  # all tied: 1st
    ((0.0, 1.0, 0.0, 1.0, 0.0), "D"),  # tied for the top, ranked 1st
    ((0.0, 1.0, 0.0, 1.0, 0.0), "C"),  # tied at the bottom, ranked 4th
    ((0.0, 1.0, 0.0, 1.0, 0.0), "B"),  # tied for the top, ranked 2nd; B's row holds thirds
]


def test_eval_id_outputs_match_pinned_digests(tmp_path):
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "11", "--individuals", "7", "--matrilines", "2", "--videos", "10",
         "--frames", "12", "--fp-rate", "0.1", "--fn-rate", "0.1", "--jitter-px", "2",
         "--id-confusion-rate", "0.2", "--out-dir", str(scenario)]
    ) == 0
    roster = scenario / "roster.csv"
    # each scored observation of an identified track is a sample of its track's name
    lines = []
    for stream in sorted((scenario / "detections").iterdir()):
        fused = tmp_path / f"fused_{stream.name}"
        assert main(
            ["track", "--detections", str(stream), "--video-id", stream.stem, "--roster", str(roster),
             "--out", str(fused)]
        ) == 0
        header, *tracks = map(json.loads, fused.read_text().splitlines())
        for track in tracks:
            if track["identity"] is None:
                continue
            for obs in track["observations"]:
                if "class_scores" in obs:
                    scores = dict(zip(header["classes"], obs["class_scores"]))
                    lines.append({"class_scores": scores, "true_label": track["identity"]["name"]})
    assert len(lines) > 100
    (tmp_path / "scenario.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in lines))

    (tmp_path / "ties.csv").write_text("name,sex,age_years\n" + "".join(f"{nm},unknown,\n" for nm in "ABCDE"))
    (tmp_path / "ties.jsonl").write_text(
        "".join(
            json.dumps({"class_scores": dict(zip("ABCDE", scores)), "true_label": label}) + "\n"
            for scores, label in _TIED_SAMPLES
        )
    )

    outputs = {}
    for name, names in [("scenario", roster), ("ties", tmp_path / "ties.csv")]:
        out = tmp_path / f"{name}.json"
        assert main(
            ["eval-id", "--samples", str(tmp_path / f"{name}.jsonl"), "--roster", str(names),
             "--k", "1", "--k", "2", "--k", "3", "--out", str(out)]
        ) == 0
        outputs[f"eval-id/{name}.json"] = out
    report = json.loads(outputs["eval-id/ties.json"].read_text())
    # ranks 2, 1, 4, 3, 2, 5, 1, 1, 4, 2
    assert report["top_k"] == {"1": 3 / 10, "2": 6 / 10, "3": 7 / 10}
    assert report["confusion"][1] == [1 / 3, 1 / 3, 0.0, 1 / 3, 0.0]

    assert {name: _digest(path) for name, path in outputs.items()} == _PINNED_EVAL_ID_DIGESTS


# SHA-256 of synth's own files at test_outputs_match_pinned_digests' noisy flags:
# the roster, the latent matrix, the true ledger, and each video's stream and true tracks
_PINNED_SYNTH_DIGESTS = {
    "detections/v0000.jsonl": "14c032c2f59d3a4ebf68b867ad6807f03ea0e0b9a54cc9dd93055f3943960ab6",
    "detections/v0001.jsonl": "029c1654fe5c939719a200720a6e2d7ae3f0f3507c7c8625d873c83e528c04cf",
    "detections/v0002.jsonl": "633e3d8d755da4c59448693d5d07e6ee33a1aaeb01066b56ca6f4d7a2bd68a4a",
    "detections/v0003.jsonl": "178f81e63775bc9173d5cd0aa91836ce99f356d113fb00c31425dbe5230ef6a6",
    "detections/v0004.jsonl": "694ffbd527f06e6fe9b014c8f35eb2da70b3eb31e9f64ddaecfcaff713792871",
    "detections/v0005.jsonl": "9eb81a1a27868e29c7bf5c20dc25fa35ebd60463d113d48086abca31db6317e7",
    "detections/v0006.jsonl": "9c74d75bb3e971126a02aacfd5f68049ac14b8fe97ed35291a4e21296395a39f",
    "detections/v0007.jsonl": "9146ce86524793412d0b239ffc6ff890a7f381e0a7eaf90dbf1d737aacc5531f",
    "detections/v0008.jsonl": "7b084a8347ec8e0fdf8c7765fd041506c926cb9d57fc9e44f52881a0667fba85",
    "detections/v0009.jsonl": "5e16317173ed1d5f445928264b8911795860856d52c4128037eea4b16ecf8b7c",
    "latent.csv": "617c874a1be1a706b89da6d19d4c191c32986bd056998572db92b4b5696a09eb",
    "ledger.csv": "fe47b11ac25f8339d03eeccc1e6a9829f0c78930004fad542a14a110144c2c66",
    "roster.csv": "c35a5189ddb5f7f42d825f63a655456f269807ddac071c4173d2952376be2152",
    "tracks/v0000.jsonl": "4db7451006ffa80f6153018dc8decdd2899d1e6aac39bdd16fd6cdc69952a20b",
    "tracks/v0001.jsonl": "92abc81ebcfa56ceaa4515580d2a13274f9a4a9aa85c40b8294bc05e59fd949b",
    "tracks/v0002.jsonl": "54a5eb959430467affbdf82c505853eeecf5f1450b3dcebb0a75a58f66189b51",
    "tracks/v0003.jsonl": "e8b1b511893f28933707a08932667dbb3fd275cb5136126f0be937146d9a1b18",
    "tracks/v0004.jsonl": "8c9d3f5ad93188a108769d9577d5f9374664e58d99e4540e13c9d38fc23bdb6a",
    "tracks/v0005.jsonl": "9d8951303c79996da5e8c5321e9058a1f7204392405fd923175c21485a805025",
    "tracks/v0006.jsonl": "2d992f614b5b84463e92ff0df536fc3a90b6f6eaefd285650c88e5892663050f",
    "tracks/v0007.jsonl": "883db3962f9e29306719030f8fe1a090331748a33c610b5176a97148e6fb3b07",
    "tracks/v0008.jsonl": "14de677e25463b7092d2decaf27ef26b8a12da02909ed5e81628e1b0c3839e12",
    "tracks/v0009.jsonl": "e46988b9761635fb86fccf51711b10b1f7ff46a8b3c59ffc605beb713802db59",
}


def test_synth_outputs_match_pinned_digests(tmp_path):
    scenario = tmp_path / "scenario"
    assert main(
        ["synth", "--seed", "11", "--individuals", "7", "--matrilines", "2", "--videos", "10",
         "--frames", "12", "--fp-rate", "0.1", "--fn-rate", "0.1", "--jitter-px", "2",
         "--id-confusion-rate", "0.2", "--out-dir", str(scenario)]
    ) == 0
    written = {path.relative_to(scenario).as_posix(): _digest(path) for path in scenario.rglob("*") if path.is_file()}
    assert written == _PINNED_SYNTH_DIGESTS
