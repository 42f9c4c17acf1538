"""Command-line interface.

One executable exposes each stage (track, eval-det, eval-id, cooccur,
network, layout, synth) and the full pipeline from per-video detection
streams to association matrix, network report and rendered graph.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 convergence failure. Errors print a human-readable message on stderr,
or a JSON object when --error-json is set. All output files are written
atomically (temp file in the target directory, then rename).

numpy loads only in network, layout and pipeline on graphs of
params.NUMPY_MIN_N (48) vertices or more; every other command, and these
on smaller graphs, runs on the standard library alone. Each
handler imports the stages it runs itself, so every command starts on
the standard library, and pipeline forks its per-video worker processes
before numpy could load, since a fork after OpenBLAS has started its
threads is unsafe.

Configuration: a flat key = value file (--config) supplies settings that
command-line flags override; the README's Configuration section lists
the keys, their types and defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

from . import evaluation, ingest, tracking
from .geometry import ProximityParams
from .ingest import ParseError, atomic_write_bytes, atomic_write_text
from .params import ConvergenceError, GemParams, NetworkParams, require_pairs
from .tracking import TrackerParams

__all__ = ["PipelineConfig", "main"]


class UsageError(Exception):
    pass


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@dataclass
class PipelineConfig:
    tracker: TrackerParams = field(default_factory=TrackerParams)
    proximity: ProximityParams = field(default_factory=ProximityParams)
    association_mode: str = "video-level"
    network: NetworkParams = field(default_factory=NetworkParams)
    gem: GemParams = field(default_factory=GemParams)
    seed: int | None = None
    detections_dir: str | None = None
    roster_path: str | None = None
    out_dir: str | None = None


class _Setting(NamedTuple):
    key: str  # config-file key; "section.name" sets that field of a params section
    flag: str
    type: type
    field: str | None = None  # the PipelineConfig attribute, for keys outside the sections
    choices: tuple[str, ...] | None = None


_SETTINGS = (
    _Setting("tracker.iou_gate", "--iou-gate", float),
    _Setting("tracker.max_gap_frames", "--max-gap-frames", int),
    _Setting("tracker.min_track_len_for_id", "--min-track-len", int),
    _Setting("proximity.max_gap", "--prox-max-gap", float),
    _Setting("proximity.max_height_ratio", "--prox-max-height-ratio", float),
    _Setting("association.mode", "--mode", str, "association_mode", tracking.ASSOCIATION_MODES),
    _Setting("network.tol", "--tol", float),
    _Setting("network.max_iter", "--max-iter", int),
    _Setting("gem.desired_edge_length", "--edge-length", float),
    _Setting("gem.max_rounds_factor", "--max-rounds-factor", int),
    _Setting("gem.stop_temperature_fraction", "--stop-fraction", float),
    _Setting("seed", "--seed", int),
    _Setting("paths.detections_dir", "--detections-dir", str, "detections_dir"),
    _Setting("paths.roster", "--roster", str, "roster_path"),
    _Setting("paths.out_dir", "--out-dir", str, "out_dir"),
)
_SETTING_BY_KEY = {s.key: s for s in _SETTINGS}


def _parse_config_text(text: str, origin: str) -> dict:
    values: dict[str, object] = {}
    # a line ends at LF, CRLF or a bare CR; str.splitlines would also end it at U+2028, U+0085 or \f
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw_value = line.partition("=")
        if not sep:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SETTING_BY_KEY:
            raise ConfigError(f"{origin}:{lineno}: unknown config key {key!r}")
        setting = _SETTING_BY_KEY[key]
        try:
            values[key] = setting.type(raw_value)
        except ValueError:
            raise ConfigError(
                f"{origin}:{lineno}: {key}: expected {setting.type.__name__}, got {raw_value!r}"
            ) from None
        if setting.choices and values[key] not in setting.choices:
            raise ConfigError(
                f"{origin}:{lineno}: {key}: expected one of {', '.join(setting.choices)}, got {raw_value!r}"
            )
    return values


def _build_config(values: dict) -> PipelineConfig:
    """PipelineConfig from the settings given; the dataclasses default the rest."""
    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {}
    for s in _SETTINGS:
        if s.key in values:
            section, _, name = (s.field or s.key).rpartition(".")
            (sections.setdefault(section, {}) if section else top)[name] = values[s.key]
    defaults = PipelineConfig()
    for section, changes in sections.items():
        try:
            top[section] = replace(getattr(defaults, section), **changes)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    return replace(defaults, **top)


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge config-file values with command-line overrides."""
    values = _parse_config_text(_read_text(args.config), args.config) if args.config else {}
    for s in _SETTINGS:
        flag_value = getattr(args, s.key, None)
        if flag_value is not None:
            values[s.key] = flag_value
    return _build_config(values)


def _read_text(path: str) -> str:
    """The file's text as written, less a leading UTF-8 BOM (Excel writes
    one): no newline translation, so each format decides where its lines
    end. A file that is not UTF-8 raises ParseError naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _parse_file(parse, path: str, *args):
    """parse(the text of path, *args), with path named in a ParseError."""
    text = _read_text(path)
    try:
        return parse(text, *args)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_roster(path: str | None):
    if path is None:
        return None
    return _parse_file(ingest.parse_roster, path)


# what each required value is called, by config key
_REQUIRED = {
    "seed": "a seed",
    "paths.detections_dir": "a detections directory",
    "paths.roster": "a roster",
    "paths.out_dir": "an output directory",
}


def _required(config: PipelineConfig, *keys: str) -> tuple:
    """The config's values of the settings keys, checked in order; a missing one is a usage error.

    Seed 0 is a seed, but an empty path is no path.
    """
    settings = [_SETTING_BY_KEY[key] for key in keys]
    values = tuple(getattr(config, s.field or s.key) for s in settings)
    for s, value in zip(settings, values):
        if (value is None) if s.key == "seed" else (not value):
            raise UsageError(f"{_REQUIRED[s.key]} is required: pass {s.flag} or set the {s.key!r} config key")
    return values


# ---------------------------------------------------------------------------
# stages, each shared by its subcommand and the pipeline


def _stream_tracks(path: str, video_id: str, roster, config: PipelineConfig) -> list[tracking.Track]:
    """Tracks of one detection stream, with fused identities when there is a roster."""
    stream = _parse_file(ingest.parse_detection_stream, path, video_id, roster)
    tracks = tracking.build_tracks(stream, config.tracker)
    if roster is not None:
        tracks = [tracking.fuse_identity(t, params=config.tracker) for t in tracks]
    return tracks


def _video_ledger(path: str, roster, config: PipelineConfig) -> tuple:
    """One stream's ledger entry and identity conflicts; the video id is
    the file name without its .jsonl.

    The same as tracks_to_ledger over every stream's tracks, a video at a
    time: that groups by video and orders conflicts by video first. A
    stream with no tracks still gets its entry, naming no one. The
    stream's detections and tracks are freed on return.
    """
    video_id = os.path.basename(path)[: -len(".jsonl")]
    tracks = _stream_tracks(path, video_id, roster, config)
    ledger, conflicts = tracking.tracks_to_ledger(tracks, mode=config.association_mode, prox=config.proximity)
    if not ledger.entries:  # a stream with no tracks
        return ingest.LedgerEntry(video_id=video_id, records=()), conflicts
    return ledger.entries[0], conflicts


def _workers(n_files: int) -> int:
    """Processes for pipeline's videos: one per usable CPU, at most one per file.

    1, which runs the videos in this process, once numpy is loaded (a fork
    after OpenBLAS has started its threads is unsafe) or where there is no
    fork start method.
    """
    import multiprocessing

    if "numpy" in sys.modules or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(n_files, cpus)


def _matrix(ledger, roster) -> ingest.AssociationMatrix:
    """Simple-ratio matrix over the roster's names, or the sorted counted names without one."""
    from . import association

    counts = association.count_occurrences(ledger)
    names = roster.names if roster is not None else sorted(counts.per_individual)
    return association.simple_ratio_matrix(counts, names)


def _ledger_text(ledger, roster, pairs: bool) -> str:
    """The ledger in the pair format when pairs, else in the presence format."""
    return ingest.write_pair_ledger(ledger) if pairs else ingest.write_ledger(ledger, roster)


def _conflicts_text(conflicts: list[tracking.IdentityConflict]) -> str:
    return ingest.write_json([asdict(c) for c in conflicts])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_track(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    roster = _read_roster(config.roster_path)
    tracks = _stream_tracks(args.detections, args.video_id, roster, config)
    atomic_write_text(args.out, ingest.write_tracks(tracks))
    return 0


def _cmd_eval_det(args: argparse.Namespace) -> int:
    stream = _parse_file(ingest.parse_detection_stream, args.predictions, args.video_id)
    gt = _parse_file(ingest.parse_ground_truth, args.ground_truth)
    if args.video_id not in gt:
        raise ParseError(f"{args.ground_truth}: no ground-truth image of video {args.video_id!r}")
    truth = gt[args.video_id]
    preds = {frame.frame_index: frame.detections for frame in stream.frames}
    groups = [(preds.get(fi, []), truth.get(fi, [])) for fi in sorted(preds.keys() | truth.keys())]
    # flags left out are absent from args, so the defaults stay in evaluation
    thresholds = {
        name: getattr(args, name) for name in ("iou_threshold", "score_threshold") if hasattr(args, name)
    }
    metrics = evaluation.pooled_detection_metrics(groups, **thresholds)
    atomic_write_text(args.out, ingest.write_json(metrics))
    return 0


def _cmd_eval_id(args: argparse.Namespace) -> int:
    roster = _read_roster(args.roster)
    samples = _parse_file(ingest.parse_id_samples, args.samples, roster)
    ks = sorted(set(args.k or [1, 5]))
    report = {
        "n_samples": len(samples),
        "top_k": {str(k): evaluation.topk_accuracy(samples, k) for k in ks},
        "names": roster.names,
        "confusion": evaluation.confusion_matrix(samples, roster),
    }
    atomic_write_text(args.out, ingest.write_json(report))
    return 0


def _cmd_cooccur(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    chosen = [opt for opt in ("tracks", "ledger", "pair_ledger") if getattr(args, opt)]
    if len(chosen) != 1:
        raise UsageError("exactly one of --tracks, --ledger or --pair-ledger is required")
    roster = _read_roster(config.roster_path)
    conflicts = []
    if args.tracks:
        tracks = []
        for path in args.tracks:
            tracks.extend(_parse_file(ingest.parse_tracks, path, roster))
        ledger, conflicts = tracking.tracks_to_ledger(
            tracks, mode=config.association_mode, prox=config.proximity
        )
    elif args.ledger:
        ledger = _parse_file(ingest.parse_occurrence_ledger, args.ledger, roster)
    else:
        ledger = _parse_file(ingest.parse_pair_ledger, args.pair_ledger, roster)
    inputs = ", ".join(args.tracks) if args.tracks else args.ledger or args.pair_ledger
    try:
        matrix = _matrix(ledger, roster)
    except ValueError as exc:  # without a roster, a ledger that names no one gives no names
        raise ParseError(f"{inputs}: counts no individual ({exc})") from None
    # the matrix's names are the roster's, or the names the inputs count
    source = f"{config.roster_path}: roster" if roster is not None else inputs
    require_pairs(matrix.n, f"{source}: cooccur")
    atomic_write_text(args.out, ingest.write_matrix(matrix))
    if args.ledger_out:
        pairs = bool(args.pair_ledger) or (bool(args.tracks) and config.association_mode == "proximal")
        atomic_write_text(args.ledger_out, _ledger_text(ledger, roster, pairs))
    if args.conflicts_out:
        atomic_write_text(args.conflicts_out, _conflicts_text(conflicts))
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    from . import network

    config = _resolve_config(args)
    matrix = _parse_file(ingest.parse_association_matrix, args.matrix)
    require_pairs(matrix.n, f"{args.matrix}: matrix: network")
    atomic_write_text(args.out, ingest.write_report(network.network_report(matrix, config.network)))
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    from . import layout, network

    config = _resolve_config(args)
    if not args.svg_out and not args.dot_out:
        raise UsageError("at least one of --svg-out or --dot-out is required")
    (seed,) = _required(config, "seed")
    matrix = _parse_file(ingest.parse_association_matrix, args.matrix)
    require_pairs(matrix.n, f"{args.matrix}: matrix: layout")
    if args.report:
        report = _parse_file(ingest.parse_report, args.report)
        try:
            layout.check_report(matrix, report)
        except ValueError as exc:
            raise ParseError(f"{args.report}: {exc}") from None
    else:
        report = network.network_report(matrix, config.network)
    if args.svg_out:
        placed = layout.gem_layout(matrix, config.gem, seed)
        atomic_write_bytes(args.svg_out, layout.render_svg(matrix, placed, report))
    if args.dot_out:
        atomic_write_text(args.dot_out, layout.render_dot(matrix, report))
    return 0


def _stream_names(directory: str) -> list[str]:
    """The .jsonl files in directory, sorted. A hidden name is no stream: macOS
    leaves an AppleDouble ._v0001.jsonl beside each file it copies."""
    return sorted(n for n in os.listdir(directory) if n.endswith(".jsonl") and not n.startswith("."))


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import synth

    config = _resolve_config(args)
    seed, out_dir = _required(config, "seed", "paths.out_dir")
    try:
        # noise flags left out are absent from args, so the defaults stay in NoiseParams
        noise = synth.NoiseParams(
            **{f.name: getattr(args, f.name) for f in fields(synth.NoiseParams) if hasattr(args, f.name)}
        )
        scenario, streams = synth.build_scenario(
            seed, args.individuals, args.matrilines, args.videos, args.frames, noise
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # a stream of an earlier, longer run would join this run's videos in a pipeline over the directory
    written = {f"{video_id}.jsonl" for video_id in streams}
    for directory in (os.path.join(out_dir, "detections"), os.path.join(out_dir, "tracks")):
        stale = [n for n in _stream_names(directory) if n not in written] if os.path.isdir(directory) else []
        if stale:
            raise FileExistsError(
                f"{os.path.join(directory, stale[0])}: a stream this run does not write; "
                "synth deletes nothing, so remove it or write to another directory"
            )
    os.makedirs(os.path.join(out_dir, "detections"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "tracks"), exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "roster.csv"), ingest.write_roster(scenario.roster))
    atomic_write_text(os.path.join(out_dir, "latent.csv"), ingest.write_matrix(scenario.latent_weights))
    atomic_write_text(
        os.path.join(out_dir, "ledger.csv"),
        ingest.write_ledger(scenario.ground_truth_ledger, scenario.roster),
    )
    for video_id, stream in streams.items():
        atomic_write_text(
            os.path.join(out_dir, "detections", f"{video_id}.jsonl"),
            ingest.write_detection_stream(stream),
        )
        atomic_write_text(
            os.path.join(out_dir, "tracks", f"{video_id}.jsonl"),
            ingest.write_tracks(scenario.ground_truth_tracks[video_id]),
        )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    seed, detections_dir, roster_path, out_dir = _required(
        config, "seed", "paths.detections_dir", "paths.roster", "paths.out_dir"
    )
    roster = _read_roster(roster_path)
    require_pairs(len(roster), f"{roster_path}: roster: pipeline")
    paths = [os.path.join(detections_dir, n) for n in _stream_names(detections_dir)]
    if not paths:
        raise ParseError(f"no .jsonl detection streams in {detections_dir}")

    # results come back in file order, so the merge, and the first error
    # raised, are the serial loop's for any number of workers
    video_ledger = functools.partial(_video_ledger, roster=roster, config=config)
    workers = _workers(len(paths))
    if workers == 1:
        results = list(map(video_ledger, paths))
    else:
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                results = list(pool.map(video_ledger, paths))
        except BrokenProcessPool as exc:  # a worker was killed, say for memory
            raise OSError(f"{detections_dir}: a pipeline worker process died: {exc}") from None
    entries = [entry for entry, _ in results]
    conflicts = [c for _, video_conflicts in results for c in video_conflicts]

    from . import layout, network

    ledger = ingest.OccurrenceLedger(entries)
    matrix = _matrix(ledger, roster)
    report = network.network_report(matrix, config.network)
    placed = layout.gem_layout(matrix, config.gem, seed)

    os.makedirs(out_dir, exist_ok=True)
    ledger_text = _ledger_text(ledger, roster, config.association_mode == "proximal")
    atomic_write_text(os.path.join(out_dir, "ledger.csv"), ledger_text)
    atomic_write_text(os.path.join(out_dir, "matrix.csv"), ingest.write_matrix(matrix))
    atomic_write_text(os.path.join(out_dir, "report.json"), ingest.write_report(report))
    atomic_write_bytes(os.path.join(out_dir, "network.svg"), layout.render_svg(matrix, placed, report))
    atomic_write_text(os.path.join(out_dir, "network.dot"), layout.render_dot(matrix, report))
    atomic_write_text(os.path.join(out_dir, "conflicts.json"), _conflicts_text(conflicts))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {raw}")
    return value


def _add_common(sub: argparse.ArgumentParser, config: bool = True) -> None:
    sub.add_argument("--error-json", action="store_true", help="emit errors as JSON on stderr")
    if config:
        sub.add_argument("--config", help="key = value configuration file")


def _add_settings(sub: argparse.ArgumentParser, *groups: str) -> None:
    """Add the flags of the settings whose key is, or lies under, one of groups."""
    for s in _SETTINGS:
        if any(s.key == g or s.key.startswith(g + ".") for g in groups):
            sub.add_argument(s.flag, dest=s.key, type=s.type, choices=s.choices)


def _build_parser() -> _Parser:
    parser = _Parser(prog="troopnet", description="Co-occurrence network toolkit")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = subs.add_parser("track", help="turn a detection stream into tracks")
    _add_common(p)
    p.add_argument("--detections", required=True)
    p.add_argument("--video-id", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, "tracker", "paths.roster")
    p.set_defaults(func=_cmd_track)

    p = subs.add_parser("eval-det", help="detection AP and FNR against ground truth")
    _add_common(p, config=False)
    p.add_argument("--predictions", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--video-id", required=True)
    p.add_argument("--iou-threshold", type=float, default=argparse.SUPPRESS)
    p.add_argument("--score-threshold", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval_det)

    p = subs.add_parser("eval-id", help="top-k accuracy and confusion matrix")
    _add_common(p, config=False)
    p.add_argument("--samples", required=True)
    p.add_argument("--roster", required=True)
    p.add_argument("--k", type=_positive_int, action="append")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval_id)

    p = subs.add_parser("cooccur", help="aggregate tracks or a ledger into an association matrix")
    _add_common(p)
    p.add_argument("--tracks", action="append")
    p.add_argument("--ledger")
    p.add_argument("--pair-ledger", dest="pair_ledger")
    p.add_argument("--out", required=True)
    p.add_argument("--ledger-out", dest="ledger_out")
    p.add_argument("--conflicts-out", dest="conflicts_out")
    _add_settings(p, "association", "proximity", "paths.roster")
    p.set_defaults(func=_cmd_cooccur)

    p = subs.add_parser("network", help="network measures from an association matrix")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, "network")
    p.set_defaults(func=_cmd_network)

    p = subs.add_parser("layout", help="GEM layout rendered to SVG and DOT")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--report")
    p.add_argument("--svg-out", dest="svg_out")
    p.add_argument("--dot-out", dest="dot_out")
    _add_settings(p, "seed", "gem", "network")
    p.set_defaults(func=_cmd_layout)

    p = subs.add_parser("synth", help="generate a synthetic scenario with ground truth")
    _add_common(p)
    p.add_argument("--individuals", type=_positive_int, default=12)
    p.add_argument("--matrilines", type=_positive_int, default=3)
    p.add_argument("--videos", type=_positive_int, default=200)
    p.add_argument("--frames", type=_positive_int, default=30)
    p.add_argument("--fp-rate", type=float, default=argparse.SUPPRESS)
    p.add_argument("--fn-rate", type=float, default=argparse.SUPPRESS)
    p.add_argument("--jitter-px", type=float, default=argparse.SUPPRESS)
    p.add_argument("--id-confusion-rate", type=float, default=argparse.SUPPRESS)
    _add_settings(p, "seed", "paths.out_dir")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("pipeline", help="detections per video to matrix, report and SVG")
    _add_common(p)
    _add_settings(p, "paths", "seed", "association", "tracker", "proximity", "gem", "network")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def _emit_error(message: str, code: int, as_json: bool) -> None:
    if as_json:
        sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")
    else:
        sys.stderr.write(message.rstrip("\n") + "\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    as_json = "--error-json" in argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error(str(exc), 1, as_json)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        _emit_error(parser.format_usage() + "troopnet: error: a subcommand is required", 1, as_json)
        return 1
    as_json = bool(getattr(args, "error_json", False)) or as_json
    try:
        return args.func(args)
    except UsageError as exc:
        _emit_error(str(exc), 1, as_json)
        return 1
    except ConvergenceError as exc:
        _emit_error(str(exc), 3, as_json)
        return 3
    except (ParseError, ConfigError, ValueError, OSError) as exc:
        _emit_error(str(exc), 2, as_json)
        return 2


if __name__ == "__main__":
    sys.exit(main())
