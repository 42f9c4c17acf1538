"""Correctness oracles for the benchmark's outputs.

Each check reads the result files with its own parsing (csv, json,
ElementTree) and recomputes what it can with numpy, so a fault in
troopnet's readers or writers cannot hide itself. Every check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import xml.etree.ElementTree as ET

import numpy as np

from troopnet.ingest import AssociationMatrix
from troopnet.network import eigenvector_residual

EIGEN_RESIDUAL_TOL = 1e-6
FN_RATE_TOL = 0.01


def digest(out_dir: str) -> str:
    """SHA-256 over every output file's name and bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def read_roster_names(path: str) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [row[0] for row in rows[1:] if row]


def read_matrix(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    values = np.array([[float(c) if c else 0.0 for c in row[1:]] for row in rows[1:]])
    return names, values


def read_sightings(path: str) -> set[tuple[str, str]]:
    """(video, name) records of an occurrence ledger CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {(video, name) for video, cell in rows[1:] for name in cell.split(",") if name}


def read_pairs(path: str) -> set[tuple[str, str, str]]:
    """(video, a, b) records of a pair ledger CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {(video, *sorted(cell.split(","))) for video, cell in rows[1:]}


def f1(found: set, reference: set) -> float:
    if not found and not reference:
        return 1.0
    hits = len(found & reference)
    return 2.0 * hits / (len(found) + len(reference))


def simple_ratio(names: list[str], ledger_path: str, pair_ledger: bool) -> np.ndarray:
    """Simple-ratio index x_ij / (N_i + N_j - x_ij) from a ledger file.

    In a pair ledger an individual counts as present in a video when it
    appears in one of the video's pair records.
    """
    index = {name: i for i, name in enumerate(names)}
    presence: dict[str, set[int]] = {}
    joint = np.zeros((len(names), len(names)))
    if pair_ledger:
        for video, a, b in read_pairs(ledger_path):
            i, j = index[a], index[b]
            presence.setdefault(video, set()).update((i, j))
            joint[i, j] += 1.0
            joint[j, i] += 1.0
    else:
        for video, name in read_sightings(ledger_path):
            presence.setdefault(video, set()).add(index[name])
    videos = sorted(presence)
    p = np.zeros((len(videos), len(names)))
    for row, video in enumerate(videos):
        p[row, sorted(presence[video])] = 1.0
    both = p.T @ p
    if not pair_ledger:
        joint = both
    seen = np.diag(both)
    denom = seen[:, None] + seen[None, :] - joint
    sri = np.divide(joint, denom, out=np.zeros_like(joint), where=denom > 0)
    np.fill_diagonal(sri, 0.0)
    return sri


def check_matrix(out_dir: str, roster_names: list[str], pair_ledger: bool) -> list[str]:
    names, values = read_matrix(os.path.join(out_dir, "matrix.csv"))
    if names != roster_names:
        return ["matrix.csv: names differ from the roster"]
    expected = simple_ratio(names, os.path.join(out_dir, "ledger.csv"), pair_ledger)
    bad = np.argwhere(values != expected)
    if len(bad):
        i, j = bad[0]
        return [
            f"matrix.csv: {len(bad)} cells differ from the simple ratio of ledger.csv, "
            f"first ({names[i]}, {names[j]}): {float(values[i, j])!r} != {float(expected[i, j])!r}"
        ]
    return []


def check_report(out_dir: str) -> list[str]:
    names, values = read_matrix(os.path.join(out_dir, "matrix.csv"))
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    n = len(names)
    upper = values[np.triu_indices(n, 1)]
    dens = float((upper > 0).sum()) / (n * (n - 1) / 2)
    if not math.isclose(report["density"], dens, rel_tol=1e-12):
        problems.append(f"report.json: density {report['density']!r} != {dens!r}")
    inds = report["individuals"]
    if [ind["name"] for ind in inds] != names:
        return problems + ["report.json: individuals differ from the matrix names"]
    degree = (values > 0).sum(axis=1)
    strength = values.sum(axis=1)
    for k, ind in enumerate(inds):
        if ind["degree"] != degree[k]:
            problems.append(f"report.json: degree of {ind['name']} {ind['degree']} != {degree[k]}")
        if not math.isclose(ind["strength"], strength[k], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"report.json: strength of {ind['name']} {ind['strength']!r} != {float(strength[k])!r}")
    if values.max() > 0:
        centrality = {ind["name"]: ind["eigenvector"] for ind in inds}
        residual = eigenvector_residual(AssociationMatrix(names, values), centrality)
        if not residual < EIGEN_RESIDUAL_TOL:
            problems.append(f"report.json: eigenvector residual {residual:.3g} >= {EIGEN_RESIDUAL_TOL}")
    return problems


_DOT_NODE = re.compile(r'^  "([^"\\]*)" \[degree=\d+, strength="[^"]*", eigenvector="[^"]*"\];$')
_DOT_EDGE = re.compile(r'^  "([^"\\]*)" -- "([^"\\]*)" \[weight=[^\]]+\];$')


def check_drawings(out_dir: str, roster_names: list[str]) -> list[str]:
    _, values = read_matrix(os.path.join(out_dir, "matrix.csv"))
    dyads = int((np.triu(values, 1) > 0).sum())
    problems = []
    try:
        svg = ET.parse(os.path.join(out_dir, "network.svg")).getroot()
    except ET.ParseError as exc:
        problems.append(f"network.svg: does not parse: {exc}")
    else:
        ns = "{http://www.w3.org/2000/svg}"
        labels = sorted(t.text or "" for t in svg.iter(ns + "text"))
        if labels != sorted(roster_names):
            problems.append("network.svg: text labels differ from the roster names")
        if len(list(svg.iter(ns + "circle"))) != len(roster_names):
            problems.append("network.svg: one circle per individual expected")
        if len(list(svg.iter(ns + "line"))) != dyads:
            problems.append(f"network.svg: {dyads} edges expected")
    with open(os.path.join(out_dir, "network.dot"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "graph association {" or lines[-1] != "}":
        return problems + ["network.dot: not a 'graph association { ... }' document"]
    nodes, edges = [], 0
    for line in lines[1:-1]:
        if m := _DOT_NODE.match(line):
            nodes.append(m.group(1))
        elif _DOT_EDGE.match(line):
            edges += 1
        else:
            problems.append(f"network.dot: unparsable line {line!r}")
            break
    if nodes != roster_names:
        problems.append("network.dot: nodes differ from the roster names")
    if edges != dyads:
        problems.append(f"network.dot: {edges} edges, {dyads} expected")
    return problems


def check_score(out_dir: str, reference: dict) -> list[str]:
    problems = []
    missed = total = 0
    for video, boxes in reference["gt_boxes"].items():
        with open(os.path.join(out_dir, f"det-{video}.json"), encoding="utf-8") as fh:
            det = json.load(fh)
        if det["n_ground_truths"] != boxes:
            problems.append(f"det-{video}.json: n_ground_truths {det['n_ground_truths']} != {boxes}")
        missed += det["false_negative_rate"] * det["n_ground_truths"]
        total += det["n_ground_truths"]
    fnr = missed / total if total else math.nan
    if not abs(fnr - reference["fn_rate"]) <= FN_RATE_TOL:
        problems.append(f"pooled false-negative rate {fnr:.4f} not within {FN_RATE_TOL} of {reference['fn_rate']}")
    with open(os.path.join(out_dir, "id.json"), encoding="utf-8") as fh:
        ident = json.load(fh)
    if ident["n_samples"] != reference["samples"]:
        problems.append(f"id.json: n_samples {ident['n_samples']} != {reference['samples']}")
    if ident["top_k"].get("1") != 1.0:
        problems.append(f"id.json: top-1 accuracy {ident['top_k'].get('1')!r} != 1.0")
    return problems


def detection_f1(out_dir: str, reference: dict) -> float:
    """Pooled detection F1 at the IoU threshold: 2 TP / (GT boxes + predictions)."""
    hits = boxes = predictions = 0
    for video in reference["gt_boxes"]:
        with open(os.path.join(out_dir, f"det-{video}.json"), encoding="utf-8") as fh:
            det = json.load(fh)
        boxes += det["n_ground_truths"]
        predictions += det["n_predictions"]
        hits += round(det["n_ground_truths"] * (1.0 - det["false_negative_rate"]))
    return 2.0 * hits / (boxes + predictions)


def check(workload: str, in_dir: str, out_dir: str, reference: dict) -> list[str]:
    """Every oracle that applies to the workload's outputs; each problem
    names its oracle (matrix, report, drawings or score)."""
    if workload == "score":
        oracles = {"score": lambda: check_score(out_dir, reference)}
    else:
        roster = read_roster_names(os.path.join(in_dir, "roster.csv"))
        oracles = {
            "matrix": lambda: check_matrix(out_dir, roster, pair_ledger=workload == "crowd"),
            "report": lambda: check_report(out_dir),
            "drawings": lambda: check_drawings(out_dir, roster),
        }
    problems = []
    for name, oracle in oracles.items():
        try:
            found = oracle()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems += [f"{name}: {p}" for p in found]
    return problems


def ledger_f1(workload: str, out_dir: str, reference: dict) -> float:
    """F1 of what the workload recovered against its reference.

    troop: ledger sightings against synth's ground-truth ledger; crowd:
    pair records against the pair ledger of perfect tracking; wide: the
    ledger cooccur writes back against the input ledger; score: matched
    detections (see detection_f1).
    """
    if workload == "score":
        return detection_f1(out_dir, reference)
    ledger = os.path.join(out_dir, "ledger.csv")
    if workload == "crowd":
        return f1(read_pairs(ledger), reference["pairs"])
    return f1(read_sightings(ledger), reference["sightings"])
