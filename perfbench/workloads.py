"""The benchmark's four workloads: inputs from a seed, commands, references.

Every input is generated from the workload seed by troopnet's own synth
functions and written with its own writers, as ``troopnet synth`` does.
The program only ever sees the files. Reference results for the
accuracy metric and the oracles are derived from the same in-memory
scenario, outside the timed set-up.

Input size is held steady across seeds: the seed's ledger decides how
many individuals each video shows, and the frame count per video is
chosen so that the number of true boxes stays within one frame's worth
of a fixed target. Without this, the troop weights a seed draws move the
detection count by 5 to 10 % between seeds, and the wall time with it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from troopnet import ingest, synth, tracking
from troopnet.geometry import ProximityParams
from troopnet.ingest import OccurrenceLedger
from troopnet.tracking import Identity

NOISE = synth.NoiseParams(fp_rate=0.05, fn_rate=0.05, jitter_px=2.0, id_confusion_rate=0.1)
# synth puts 64 px faces on a 160 px grid (2.5 face heights apart), so the
# default proximity gate of 2.0 never fires; 3.0 does.
CROWD_PROX_GAP = 3.0
# GEM never stops early when the stop threshold is below the temperature
# floor (1/128 of the edge length), so with these flags a layout runs
# exactly its round cap, factor * n rounds. Left to converge, the rounds a
# seed needs vary widely: bimodal at n = 42 (128 to 1026), and with an
# IQR/median of 0.24 to 0.53 at n = 160 (161 to 362 rounds), whether or not
# the layout seed is held constant. That alone moves wall time by a quarter
# between seeds, more than any bound the benchmark may set, so troop and
# wide fix the round budget. There a change in GEM convergence is not
# measured and layout.round_cap_hit is 1 by construction; a change in the
# cost of a round is. crowd keeps the default stop, where the layout is
# under a tenth of the run, so convergence still runs and is counted.
FIXED_ROUNDS_STOP_FRACTION = 1.0 / 256.0
ROUNDS_FACTOR = {"troop": 6, "wide": 2}
GT_IMAGE_SIDE = 2048  # covers the synth grid for up to 144 individuals per video


@dataclass(frozen=True)
class Size:
    individuals: int
    matrilines: int
    videos: int
    boxes: int = 0  # target count of true boxes; 0 for ledger-only workloads


# (full, toy) sizes per workload; toy sizes serve the self-test.
SIZES = {
    "troop": (Size(42, 6, 10, 7000), Size(12, 3, 3, 600)),
    "crowd": (Size(24, 1, 5, 10000), Size(8, 1, 2, 800)),
    "wide": (Size(160, 16, 320), Size(20, 4, 40)),
    "score": (Size(42, 6, 4, 8000), Size(12, 3, 4, 4000)),
}


@dataclass
class Inputs:
    """What one set-up produced: sizes, timings and reference data."""

    work_units: int  # detections in the input; ledger sightings on wide
    build_s: float
    write_s: float
    frames: int = 0
    reference: dict = field(default_factory=dict)


def _ledger_only(seed: int, size: Size, videos: int) -> tuple[synth.SynthScenario, OccurrenceLedger]:
    roster, weights = synth.generate_troop(seed, size.individuals, size.matrilines)
    scenario = synth.SynthScenario(
        roster=roster,
        latent_weights=weights,
        ground_truth_ledger=OccurrenceLedger([]),
        ground_truth_tracks={},
    )
    return scenario, synth.sample_ledger(scenario, videos, seed)


def _frames_for(seed: int, size: Size) -> int:
    _, ledger = _ledger_only(seed, size, size.videos)
    sightings = sum(len(e.present) for e in ledger.entries)
    return max(1, round(size.boxes / sightings))


def _present(scenario: synth.SynthScenario, video_id: str) -> list[str]:
    """Names shown in a video, in the order synth numbers their true tracks."""
    entry = next(e for e in scenario.ground_truth_ledger.entries if e.video_id == video_id)
    return [nm for nm in scenario.roster.names if nm in entry.present]


def _write_streams(in_dir: str, scenario, streams) -> None:
    os.makedirs(os.path.join(in_dir, "detections"), exist_ok=True)
    ingest.atomic_write_text(os.path.join(in_dir, "roster.csv"), ingest.write_roster(scenario.roster))
    for video_id, stream in streams.items():
        ingest.atomic_write_text(
            os.path.join(in_dir, "detections", f"{video_id}.jsonl"),
            ingest.write_detection_stream(stream),
        )


def _detections(streams) -> int:
    return sum(s.detection_count for s in streams.values())


def _sightings(ledger) -> set[tuple[str, str]]:
    return {(e.video_id, name) for e in ledger.entries for name in e.present}


def _synth_streams(seed: int, size: Size, in_dir: str) -> tuple[Inputs, synth.SynthScenario]:
    t0 = time.perf_counter()
    frames = _frames_for(seed, size)
    scenario, streams = synth.build_scenario(
        seed, size.individuals, size.matrilines, size.videos, frames, NOISE
    )
    t1 = time.perf_counter()
    _write_streams(in_dir, scenario, streams)
    t2 = time.perf_counter()
    inputs = Inputs(work_units=_detections(streams), build_s=t1 - t0, write_s=t2 - t1, frames=frames)
    return inputs, scenario


def _setup_troop(seed: int, size: Size, in_dir: str) -> Inputs:
    inputs, scenario = _synth_streams(seed, size, in_dir)
    inputs.reference = {"sightings": _sightings(scenario.ground_truth_ledger)}
    return inputs


def _perfect_pair_ledger(scenario: synth.SynthScenario) -> set[tuple[str, str, str]]:
    """The pair ledger that perfect tracking gives: synth's true tracks,
    labelled through the ground-truth ledger, in proximal mode."""
    labelled = []
    for video_id, tracks in scenario.ground_truth_tracks.items():
        present = _present(scenario, video_id)
        for t in tracks:
            t.identity = Identity(name=present[t.track_id], confidence=1.0)
            labelled.append(t)
    ledger, _ = tracking.tracks_to_ledger(
        labelled, mode="proximal", prox=ProximityParams(max_gap=CROWD_PROX_GAP)
    )
    return {(e.video_id, a, b) for e in ledger.entries for a, b in e.pairs}


def _setup_crowd(seed: int, size: Size, in_dir: str) -> Inputs:
    inputs, scenario = _synth_streams(seed, size, in_dir)
    inputs.reference = {"pairs": _perfect_pair_ledger(scenario)}
    return inputs


def _setup_wide(seed: int, size: Size, in_dir: str) -> Inputs:
    t0 = time.perf_counter()
    scenario, ledger = _ledger_only(seed, size, size.videos)
    t1 = time.perf_counter()
    ingest.atomic_write_text(os.path.join(in_dir, "roster.csv"), ingest.write_roster(scenario.roster))
    ingest.atomic_write_text(os.path.join(in_dir, "ledger.csv"), ingest.write_ledger(ledger, scenario.roster))
    t2 = time.perf_counter()
    sightings = _sightings(ledger)
    return Inputs(
        work_units=len(sightings), build_s=t1 - t0, write_s=t2 - t1, reference={"sightings": sightings}
    )


def _ground_truth_doc(clean, streams) -> tuple[dict, dict[str, int]]:
    images, annotations, per_video = [], [], {}
    for video_id, stream in streams.items():
        present = _present(clean, video_id)
        per_video[video_id] = 0
        for frame in stream.frames:
            image_id = len(images)
            images.append(
                {
                    "id": image_id,
                    "width": GT_IMAGE_SIDE,
                    "height": GT_IMAGE_SIDE,
                    "video_id": video_id,
                    "frame_index": frame.frame_index,
                }
            )
            # noise-free: every present individual, in roster order, every frame
            for name, det in zip(present, frame.detections, strict=True):
                b = det.bbox
                annotations.append({"image_id": image_id, "bbox": [b.x, b.y, b.w, b.h], "label": name})
            per_video[video_id] += len(frame.detections)
    return {"images": images, "annotations": annotations}, per_video


def _id_samples(scenario: synth.SynthScenario) -> list[str]:
    lines = []
    for video_id, tracks in scenario.ground_truth_tracks.items():
        present = _present(scenario, video_id)
        for t in tracks:
            for obs in t.observations:
                scores = {k: obs.class_scores[k] for k in sorted(obs.class_scores)}
                lines.append(
                    json.dumps({"class_scores": scores, "true_label": present[t.track_id]}, separators=(",", ":"))
                )
    return lines


def _setup_score(seed: int, size: Size, in_dir: str) -> Inputs:
    t0 = time.perf_counter()
    frames = _frames_for(seed, size)
    args = (seed, size.individuals, size.matrilines, size.videos, frames)
    noisy, streams = synth.build_scenario(*args, NOISE)
    clean, clean_streams = synth.build_scenario(*args, synth.NoiseParams())
    t1 = time.perf_counter()
    _write_streams(in_dir, noisy, streams)
    gt_doc, gt_boxes = _ground_truth_doc(clean, clean_streams)
    ingest.atomic_write_text(os.path.join(in_dir, "gt.json"), json.dumps(gt_doc, separators=(",", ":")))
    samples = _id_samples(noisy)
    ingest.atomic_write_text(os.path.join(in_dir, "samples.jsonl"), "".join(line + "\n" for line in samples))
    t2 = time.perf_counter()
    return Inputs(
        work_units=_detections(streams),
        build_s=t1 - t0,
        write_s=t2 - t1,
        frames=frames,
        reference={"gt_boxes": gt_boxes, "samples": len(samples), "fn_rate": NOISE.fn_rate},
    )


SETUP = {"troop": _setup_troop, "crowd": _setup_crowd, "wide": _setup_wide, "score": _setup_score}


def _fixed_rounds(workload: str) -> list[str]:
    return [
        "--max-rounds-factor", str(ROUNDS_FACTOR[workload]),
        "--stop-fraction", repr(FIXED_ROUNDS_STOP_FRACTION),
    ]


def commands(workload: str, in_dir: str, out_dir: str, seed: int) -> list[list[str]]:
    """The troopnet subcommands of one workload run, in order."""
    if workload in ("troop", "crowd"):
        cmd = [
            "pipeline",
            "--detections-dir", os.path.join(in_dir, "detections"),
            "--roster", os.path.join(in_dir, "roster.csv"),
            "--seed", str(seed),
            "--out-dir", out_dir,
        ]
        if workload == "crowd":
            cmd += ["--mode", "proximal", "--prox-max-gap", str(CROWD_PROX_GAP)]
        else:
            cmd += _fixed_rounds(workload)
        return [cmd]
    if workload == "wide":
        matrix = os.path.join(out_dir, "matrix.csv")
        report = os.path.join(out_dir, "report.json")
        return [
            ["cooccur", "--ledger", os.path.join(in_dir, "ledger.csv"),
             "--roster", os.path.join(in_dir, "roster.csv"),
             "--out", matrix, "--ledger-out", os.path.join(out_dir, "ledger.csv")],
            ["network", "--matrix", matrix, "--out", report],
            ["layout", "--matrix", matrix, "--report", report, "--seed", str(seed),
             "--svg-out", os.path.join(out_dir, "network.svg"),
             "--dot-out", os.path.join(out_dir, "network.dot"), *_fixed_rounds(workload)],
        ]
    if workload == "score":
        videos = sorted(n[: -len(".jsonl")] for n in os.listdir(os.path.join(in_dir, "detections")))
        cmds = [
            ["eval-det", "--predictions", os.path.join(in_dir, "detections", f"{v}.jsonl"),
             "--ground-truth", os.path.join(in_dir, "gt.json"), "--video-id", v,
             "--out", os.path.join(out_dir, f"det-{v}.json")]
            for v in videos
        ]
        cmds.append(
            ["eval-id", "--samples", os.path.join(in_dir, "samples.jsonl"),
             "--roster", os.path.join(in_dir, "roster.csv"), "--out", os.path.join(out_dir, "id.json")]
        )
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
