"""In-process traced runs.

Runs each workload command through troopnet's own ``cli.main`` in this
process, with the public functions the commands call wrapped in spans.
``troopnet.cli`` reaches each of them through a module attribute
(``ingest.parse_detection_stream``, ``tracking.fuse_identity``,
``layout.gem_layout``, ...) or, for file reads and atomic writes, through
its own namespace (``_read_text``, ``atomic_write_text``,
``atomic_write_bytes``). Replacing those attributes for the length of a
run makes the spans see exactly the calls the program makes, in its
order. Spans are measured from outside the program: the benchmark times
its own wrappers. The result files must match the CLI run's byte for
byte, which the benchmark checks.

Counts at each layer boundary are taken from the wrapped functions'
arguments and return values.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from troopnet import association, cli, evaluation, ingest, layout, network, tracking
from troopnet.layout import GemParams

LAYERS = ("cli", "ingest", "tracking", "association", "network", "layout", "evaluation")

COUNT_METRICS = (
    "ingest.bytes_in",
    "ingest.frames",
    "ingest.detections",
    "ingest.class_scores",
    "tracking.tracks",
    "tracking.identified",
    "tracking.unid_short",
    "tracking.unid_unscored",
    "tracking.conflicts",
    "tracking.pairs",
    "tracking.obs_live",
    "association.videos",
    "association.positive_dyads",
    "layout.rounds_used",
    "layout.round_cap_hit",
    "layout.svg_bytes",
    "evaluation.pred_boxes",
    "evaluation.gt_boxes",
    "evaluation.samples",
)


# -- boundary counters: (counts, args, kwargs, result) -> None -----------------


def _parsed(c, args, kw, result):
    c["parsed_bytes"] += len(args[0])  # the inputs are ASCII: characters == bytes


def _read(c, args, kw, result):
    c["ingest.bytes_in"] += os.path.getsize(args[0])


def _stream(c, args, kw, result):
    _parsed(c, args, kw, result)
    c["ingest.frames"] += len(result.frames)
    for frame in result.frames:
        c["ingest.detections"] += len(frame.detections)
        c["ingest.class_scores"] += sum(len(d.class_scores or ()) for d in frame.detections)


def _tracks(c, args, kw, result):
    c["tracking.tracks"] += len(result)


def _fused(c, args, kw, result):
    params = args[2] if len(args) > 2 else kw.get("params", tracking.TrackerParams())
    if result.identity is not None:
        c["tracking.identified"] += 1
    elif len(result.observations) < params.min_track_len_for_id:
        c["tracking.unid_short"] += 1
    else:
        c["tracking.unid_unscored"] += 1


def _ledger(c, args, kw, result):
    tracks = args[0]
    c["tracking.conflicts"] += len(result[1])
    c["tracking.obs_live"] += sum(len(t.observations) for t in tracks)
    if kw.get("mode") == "proximal":
        # box pairs the proximal ledger tests: identified boxes sharing a frame
        per_frame: dict[tuple[str, int], int] = {}
        for t in tracks:
            if t.identity is not None:
                for obs in t.observations:
                    key = (t.video_id, obs.frame_index)
                    per_frame[key] = per_frame.get(key, 0) + 1
        c["tracking.pairs"] += sum(k * (k - 1) // 2 for k in per_frame.values())


def _counted(c, args, kw, result):
    c["association.videos"] += len(args[0].entries)


def _matrix(c, args, kw, result):
    c["association.positive_dyads"] += int(np.count_nonzero(np.triu(result.values, 1)))


def _gem(c, args, kw, result):
    m = args[0]
    params = (args[1] if len(args) > 1 else kw.get("params")) or GemParams()
    c["layout.rounds_used"] += result.rounds_used
    c["layout.round_cap_hit"] += int(m.n > 1 and result.rounds_used >= params.max_rounds_factor * m.n)


def _svg(c, args, kw, result):
    c["layout.svg_bytes"] += len(result)


def _groups(c, args, kw, result):
    c["evaluation.pred_boxes"] += sum(len(p) for p, _ in args[0])
    c["evaluation.gt_boxes"] += sum(len(g) for _, g in args[0])


def _samples(c, args, kw, result):
    c["evaluation.samples"] += len(args[0])


# (module, attribute, layer, time metric, counter or None), one row per
# function the workload commands call
WRAPPED = (
    (cli, "_read_text", "ingest", "ingest.read_s", _read),
    (ingest, "parse_detection_stream", "ingest", "ingest.parse_stream_s", _stream),
    (ingest, "parse_roster", "ingest", "ingest.parse_table_s", _parsed),
    (ingest, "parse_occurrence_ledger", "ingest", "ingest.parse_table_s", _parsed),
    (ingest, "parse_association_matrix", "ingest", "ingest.parse_table_s", _parsed),
    (ingest, "parse_ground_truth", "ingest", "ingest.parse_table_s", _parsed),
    (ingest, "parse_report", "ingest", "ingest.parse_table_s", _parsed),
    (ingest, "write_ledger", "ingest", "ingest.write_s", None),
    (ingest, "write_pair_ledger", "ingest", "ingest.write_s", None),
    (ingest, "write_matrix", "ingest", "ingest.write_s", None),
    (ingest, "write_report", "ingest", "ingest.write_s", None),
    (ingest, "write_json", "ingest", "ingest.write_s", None),
    (cli, "atomic_write_text", "ingest", "ingest.write_s", None),
    (cli, "atomic_write_bytes", "ingest", "ingest.write_s", None),
    (tracking, "build_tracks", "tracking", "tracking.build_s", _tracks),
    (tracking, "fuse_identity", "tracking", "tracking.fuse_s", _fused),
    (tracking, "tracks_to_ledger", "tracking", "tracking.ledger_s", _ledger),
    (association, "count_occurrences", "association", "association.count_s", _counted),
    (association, "simple_ratio_matrix", "association", "association.matrix_s", _matrix),
    (network, "network_report", "network", "network.report_s", None),
    (network, "eigenvector_centrality", "network", "network.eigenvector_s", None),
    (layout, "gem_layout", "layout", "layout.gem_s", _gem),
    (layout, "render_svg", "layout", "layout.render_s", _svg),
    (layout, "render_dot", "layout", "layout.render_s", None),
    (evaluation, "pooled_detection_metrics", "evaluation", "evaluation.det_s", _groups),
    (evaluation, "confusion_matrix", "evaluation", "evaluation.id_s", _samples),
    (evaluation, "topk_accuracy", "evaluation", "evaluation.id_s", None),
)
# global_efficiency is one function for both modes; its spans take the mode
EFFICIENCY_METRIC = {"binary": "network.efficiency_binary_s", "weighted": "network.efficiency_weighted_s"}
TIME_METRICS = tuple(dict.fromkeys([row[3] for row in WRAPPED] + list(EFFICIENCY_METRIC.values())))


@dataclass
class Tracer:
    """Spans kept in memory: name, layer, metric, start, end, parent span, run id."""

    spans: list[dict] = field(default_factory=list)
    run: int = 0
    _stack: list[dict] = field(default_factory=list)

    @contextmanager
    def span(self, layer: str, name: str, metric: str | None = None):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run,
            "layer": layer,
            "name": name,
            "metric": metric,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def active(self, metric: str) -> bool:
        return any(s["metric"] == metric for s in self._stack)

    def run_spans(self, run: int) -> list[dict]:
        return [s for s in self.spans if s["run"] == run]


def _wrap(tracer: Tracer, counts: dict, fn, layer: str, metric_of, counter):
    def wrapped(*args, **kwargs):
        metric = metric_of(args, kwargs)
        # a call made inside a span of the same metric (write_report calling
        # write_json) is part of that span's time and counts
        if tracer.active(metric):
            return fn(*args, **kwargs)
        with tracer.span(layer, fn.__name__, metric):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(counts, args, kwargs, result)
        return result

    return wrapped


@contextmanager
def patched(tracer: Tracer, counts: dict):
    """Wrap every function in WRAPPED, and network.global_efficiency, in spans."""
    rows = [(mod, attr, layer, (lambda a, k, m=metric: m), counter) for mod, attr, layer, metric, counter in WRAPPED]
    rows.append(
        (network, "global_efficiency", "network",
         lambda a, k: EFFICIENCY_METRIC[a[1] if len(a) > 1 else k.get("mode", "binary")], None)
    )
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in rows]
    try:
        for mod, attr, layer, metric_of, counter in rows:
            setattr(mod, attr, _wrap(tracer, counts, getattr(mod, attr), layer, metric_of, counter))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def run_traced(tracer: Tracer, cmds: list[list[str]]) -> tuple[float, dict, list[str]]:
    """Run one workload's commands in process through ``cli.main``, one cli
    span per command. Returns the traced wall time, the boundary counts
    and a problem for each command that exited non-zero."""
    counts = dict.fromkeys((*COUNT_METRICS, "parsed_bytes"), 0)
    problems = []
    t0 = time.perf_counter()
    with patched(tracer, counts):
        for cmd in cmds:
            with tracer.span("cli", cmd[0]):
                code = cli.main(list(cmd))
            if code != 0:
                problems.append(f"traced {cmd[0]} exited {code}")
    return time.perf_counter() - t0, counts, problems


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Per-metric span time and per-layer self time for one traced run."""
    out = dict.fromkeys(TIME_METRICS, 0.0)
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (s["end"] - s["start"])
    for s in spans:
        duration = s["end"] - s["start"]
        if s["metric"] is not None:
            out[s["metric"]] += duration
        out[f"{s['layer']}.self_s"] += duration - child_time.get(s["id"], 0.0)
    return out
