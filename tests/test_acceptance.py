"""Acceptance checks.

Each test covers one numbered criterion and prints a one-line verdict
([C1] ... PASS/FAIL) on the real stdout so the gate is visible even under
pytest's capture. The checks pin the bundled fixture's network statistics
to their reference values, verify metric implementations against
independent oracles, and exercise determinism end to end.
"""

from __future__ import annotations

import math
import time
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest
from scipy.stats import spearmanr

from troopnet.association import count_occurrences, simple_ratio_matrix
from troopnet.cli import main
from troopnet.evaluation import IdSample, confusion_matrix, pooled_detection_metrics, topk_accuracy
from troopnet.geometry import BBox, iou
from troopnet.ingest import (
    AssociationMatrix,
    Detection,
    LedgerEntry,
    OccurrenceLedger,
    parse_association_matrix,
    write_matrix,
)
from troopnet.layout import gem_layout, render_svg
from troopnet.network import (
    degree_strength,
    density,
    eigenvector_centrality,
    eigenvector_residual,
    global_efficiency,
    network_report,
)
from troopnet.rng import Rng
from troopnet.synth import NoiseParams, build_scenario
from troopnet.tracking import build_tracks, fuse_identity, tracks_to_ledger

from conftest import matrix_value


def _fixture_matrix() -> AssociationMatrix:
    text = (resources.files("troopnet") / "data" / "troop_matrix.csv").read_text()
    return parse_association_matrix(text)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    """Expose the capture fixture so verdict lines reach the real terminal."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line: str) -> None:
    if _CAPTURE is None:
        print(line, flush=True)
        return
    with _CAPTURE.disabled():
        # pytest's progress line is mid-write; break out of it first
        print("\n" + line, flush=True)


def _check(tag: str, summary: str, worker) -> None:
    try:
        failures = worker()
    except Exception as exc:  # the verdict line must appear no matter what
        failures = [f"raised {type(exc).__name__}: {exc}"]
    status = "FAIL" if failures else "PASS"
    _emit(f"[{tag}] {summary}: {status}")
    assert not failures, f"[{tag}] " + " | ".join(failures)


def _note(tag: str, line: str) -> None:
    _emit(f"  [{tag}] {line}")


# ---------------------------------------------------------------------------
# reference values for the bundled fixture: per-individual degree, strength
# and eigenvector centrality of the 42-member troop


_REFERENCE_TABLE = {
    "Baby_Hiba": (4, 0.619, 0.542),
    "Baby_Komatsu": (7, 0.917, 0.760),
    "Baby_Tabu": (3, 0.862, 0.731),
    "Baby_Yone": (6, 0.732, 0.612),
    "Beni": (7, 0.809, 0.605),
    "Binega": (5, 0.836, 0.550),
    "Botan": (5, 0.831, 0.545),
    "Baby_Mikan": (4, 0.748, 0.527),
    "Chimaki": (11, 1.200, 0.810),
    "Gure": (10, 1.050, 0.860),
    "Hado": (3, 0.788, 0.484),
    "Hamayu": (4, 0.547, 0.386),
    "Hiba": (10, 1.202, 0.885),
    "Hinoki": (11, 1.011, 0.814),
    "Hirugi": (15, 1.180, 1.000),
    "Kanna": (5, 0.879, 0.645),
    "Kizu": (6, 0.993, 0.884),
    "Kobu": (11, 0.945, 0.712),
    "Komatsu": (10, 1.203, 0.860),
    "Kuro": (2, 0.760, 0.687),
    "Meji": (8, 1.049, 0.755),
    "Mikan": (4, 1.035, 0.671),
    "Muku": (3, 0.515, 0.334),
    "Nishin": (9, 0.859, 0.579),
    "Noguchi": (9, 1.057, 0.712),
    "Patasu": (9, 1.065, 0.746),
    "Pichi": (9, 1.042, 0.653),
    "Reo": (6, 0.861, 0.490),
    "Shibi": (8, 0.758, 0.600),
    "Shika": (1, 0.200, 0.100),
    "Tabu": (4, 1.107, 0.814),
    "Takana": (7, 0.911, 0.704),
    "Tane": (7, 1.062, 0.794),
    "Taraba": (10, 1.014, 0.813),
    "Teriha": (7, 0.973, 0.576),
    "Tsukasa": (11, 1.114, 0.874),
    "Tsutsuji": (8, 0.931, 0.792),
    "Tsuwa": (9, 1.190, 0.895),
    "Yone": (14, 1.139, 0.822),
    "Yotsuba": (6, 0.975, 0.665),
    "Yuna": (7, 1.252, 0.789),
    "Zanbo": (3, 0.609, 0.495),
}


def test_c1_fixture_network_statistics():
    def worker():
        failures = []
        m = _fixture_matrix()
        started = time.perf_counter()
        report = network_report(m)
        elapsed = time.perf_counter() - started
        if elapsed >= 1.0:
            failures.append(f"report took {elapsed:.3f}s, budget 1s")
        if abs(report.density - 0.173) > 0.006:
            failures.append(f"density {report.density:.6f} not within 0.173 +/- 0.006")
        if abs(report.global_efficiency_binary - 0.508) > 0.02:
            failures.append(
                f"binary efficiency {report.global_efficiency_binary:.6f} not within 0.508 +/- 0.02"
            )
        by_name = {ind.name: ind for ind in report.individuals}
        for name, want_deg, want_str in [
            ("Hirugi", 15, 1.180),
            ("Hinoki", 11, 1.011),
            ("Chimaki", 11, 1.200),
            ("Tsukasa", 11, 1.114),
        ]:
            ind = by_name[name]
            if abs(ind.degree - want_deg) > 1:
                failures.append(f"{name} degree {ind.degree} vs {want_deg} +/- 1")
            if abs(ind.strength - want_str) > 0.08:
                failures.append(f"{name} strength {ind.strength:.3f} vs {want_str} +/- 0.08")
        for name, want in [("Tsuwa", 0.895), ("Hiba", 0.885), ("Kizu", 0.884), ("Yone", 0.822)]:
            got = by_name[name].eigenvector
            if abs(got - want) > 0.05:
                failures.append(f"{name} eigenvector {got:.3f} vs {want} +/- 0.05")
        ranked = max(report.individuals, key=lambda ind: ind.eigenvector)
        if ranked.name != "Hirugi" or ranked.eigenvector != 1.0:
            failures.append(
                f"eigenvector maximum is {ranked.name} at {ranked.eigenvector}, want Hirugi at 1.0"
            )
        return failures

    _check("C1", "fixture density, efficiency, named measures within tolerance in under 1s", worker)


def test_c2_reference_table_match():
    def worker():
        failures = []
        m = _fixture_matrix()
        report = network_report(m)
        index = {name: i for i, name in enumerate(m.names)}
        mismatches = []
        for ind in report.individuals:
            want_deg, want_str, _want_eig = _REFERENCE_TABLE[ind.name]
            if abs(ind.degree - want_deg) > 1 or abs(ind.strength - want_str) > 0.08:
                mismatches.append((ind, want_deg, want_str))
        matched = len(report.individuals) - len(mismatches)
        for ind, want_deg, want_str in mismatches:
            row = m.values[index[ind.name]]
            cells = [
                f"{ind.name}--{m.names[j]}={w:.4f}" for j, w in enumerate(row) if w > 0
            ]
            _note(
                "C2",
                f"{ind.name}: degree {ind.degree} vs {want_deg}, strength "
                f"{ind.strength:.3f} vs {want_str}; responsible cells: {'; '.join(cells)}",
            )
        _note("C2", f"{matched}/42 individuals match the reference table")
        if matched < math.ceil(0.9 * 42):
            failures.append(f"only {matched}/42 match; at least 90% required")
        return failures

    _check("C2", "at least 90% of the 42 reference degree/strength rows reproduced", worker)


# ---------------------------------------------------------------------------
# detection metric oracles


def _random_instance(seed: int, max_each: int = 25):
    rng = Rng(seed)

    def uniform(lo, hi):
        return lo + (hi - lo) * rng.random()

    gts = [
        BBox(uniform(0.0, 400.0), uniform(0.0, 400.0),
             20.0 + uniform(0.0, 60.0), 20.0 + uniform(0.0, 60.0))
        for _ in range(rng.randrange(max_each + 1))
    ]
    preds = []
    for _ in range(rng.randrange(max_each + 1)):
        if gts and rng.random() < 0.6:
            base = gts[rng.randrange(len(gts))]
            box = BBox(
                base.x + uniform(-15.0, 15.0),
                base.y + uniform(-15.0, 15.0),
                base.w * (0.8 + uniform(0.0, 0.4)),
                base.h * (0.8 + uniform(0.0, 0.4)),
            )
        else:
            box = BBox(uniform(0.0, 400.0), uniform(0.0, 400.0),
                       20.0 + uniform(0.0, 60.0), 20.0 + uniform(0.0, 60.0))
        preds.append(Detection(frame_index=0, bbox=box, score=uniform(0.05, 1.0)))
    return preds, gts


def _oracle_ap_101(preds, gts, iou_threshold):
    """101-point AP recomputed by rematching at every distinct threshold."""
    if not gts:
        return 1.0 if not preds else 0.0
    if not preds:
        return 0.0
    table = [[iou(p.bbox, g) for g in gts] for p in preds]
    order = sorted(range(len(preds)), key=lambda i: -preds[i].score)
    points = []
    for threshold in sorted({p.score for p in preds}, reverse=True):
        kept = [i for i in order if preds[i].score >= threshold]
        taken = [False] * len(gts)
        matched = 0
        for i in kept:
            row = table[i]
            best, best_j = 0.0, -1
            for j in range(len(gts)):
                if not taken[j] and row[j] >= iou_threshold and row[j] > best:
                    best, best_j = row[j], j
            if best_j >= 0:
                taken[best_j] = True
                matched += 1
        points.append((matched / len(gts), matched / len(kept)))
    total = 0.0
    for i in range(101):
        r = i / 100.0
        best = 0.0
        for recall, precision in points:
            if recall >= r and precision > best:
                best = precision
        total += best
    return total / 101.0


def test_c3_detection_metric_oracles():
    def worker():
        failures = []
        # 500 random instances against the exhaustive-threshold oracle
        worst = 0.0
        for seed in range(500):
            preds, gts = _random_instance(seed)
            got = pooled_detection_metrics([(preds, gts)], 0.5)["average_precision"]
            want = _oracle_ap_101(preds, gts, 0.5)
            worst = max(worst, abs(got - want))
        if worst > 1e-9:
            failures.append(f"AP deviates from the threshold oracle by {worst:.3e}")
        # hand case: two ground truths; hits at scores 0.9 and 0.7 with a
        # miss between them give (51 + 50 * 2/3) / 101 = 253/303
        preds = [
            Detection(frame_index=0, bbox=BBox(0.0, 0.0, 10.0, 10.0), score=0.9),
            Detection(frame_index=0, bbox=BBox(300.0, 300.0, 10.0, 10.0), score=0.8),
            Detection(frame_index=0, bbox=BBox(100.0, 0.0, 10.0, 10.0), score=0.7),
        ]
        gts = [BBox(0.0, 0.0, 10.0, 10.0), BBox(100.0, 0.0, 10.0, 10.0)]
        got = pooled_detection_metrics([(preds, gts)], 0.5)["average_precision"]
        if abs(got - 253.0 / 303.0) > 1e-9:
            failures.append(f"hand-case AP {got!r} differs from 253/303")
        # top-k accuracy must be monotone in k and reach 1 at the full roster
        rng = Rng(17)
        names = [f"n{k}" for k in range(6)]
        samples = [
            IdSample({nm: rng.random() for nm in names}, names[rng.randrange(6)])
            for _ in range(60)
        ]
        topk = [topk_accuracy(samples, k) for k in range(1, 7)]
        if topk != sorted(topk):
            failures.append(f"top-k accuracy not monotone: {topk}")
        if topk[-1] != 1.0:
            failures.append(f"top-{len(names)} accuracy is {topk[-1]}, want 1.0")
        # confusion rows with samples must sum to one
        from troopnet.ingest import Individual, Roster

        roster = Roster([Individual(nm) for nm in names])
        counts = confusion_matrix(samples, roster)
        for r in range(len(names)):
            total = sum(counts[r])
            if total > 0 and abs(total - 1.0) > 1e-12:
                failures.append(f"confusion row {r} sums to {total!r}")
        return failures

    _check("C3", "AP matches the exhaustive-threshold oracle on 500 instances; "
           "hand case, top-k monotonicity and confusion normalization hold", worker)


def test_c4_simple_ratio_oracle():
    def worker():
        failures = []
        for seed in range(200):
            rng = Rng(seed)
            names = [f"n{k:02d}" for k in range(2 + rng.randrange(9))]
            entries = []
            for v in range(1 + rng.randrange(20)):
                present = frozenset(nm for nm in names if rng.random() < 0.4)
                entries.append(LedgerEntry(video_id=f"v{v:03d}", records=(present,) if present else ()))
            ledger = OccurrenceLedger(entries)
            m = simple_ratio_matrix(count_occurrences(ledger), names)
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    n_a = sum(1 for e in entries if a in e.present)
                    n_b = sum(1 for e in entries if b in e.present)
                    x = sum(1 for e in entries if a in e.present and b in e.present)
                    want = x / (n_a + n_b - x) if n_a + n_b - x > 0 else 0.0
                    if matrix_value(m, a, b) != want:
                        failures.append(
                            f"seed {seed} {a}/{b}: {matrix_value(m, a, b)!r} vs recount {want!r}"
                        )
                        return failures
        # joint presence 2 of (5 + 4 - 2) videos
        videos = [{"A", "B"}] * 2 + [{"A"}] * 3 + [{"B"}] * 2
        ledger = OccurrenceLedger(
            [LedgerEntry(video_id=f"v{k}", records=(frozenset(p),)) for k, p in enumerate(videos)]
        )
        got = matrix_value(simple_ratio_matrix(count_occurrences(ledger), ["A", "B"]), "A", "B")
        if abs(got - 2.0 / 7.0) > 1e-9:
            failures.append(f"2/(5+4-2) case: {got!r}")
        return failures

    _check("C4", "simple ratios equal a direct double-loop recount on 200 random ledgers", worker)


def test_c5_network_measure_contracts():
    def worker():
        failures = []
        m = _fixture_matrix()
        eig = eigenvector_centrality(m)
        residual = eigenvector_residual(m, eig)
        if residual > 1e-9:
            failures.append(f"fixture eigenvector residual {residual:.3e} above 1e-9")
        # star: the center carries centrality 1, each leaf 1/sqrt(3)
        star = np.zeros((4, 4))
        star[0, 1:] = star[1:, 0] = 0.5
        star_m = AssociationMatrix(names=["hub", "a", "b", "c"], values=star)
        star_eig = eigenvector_centrality(star_m)
        if star_eig["hub"] != 1.0:
            failures.append(f"star hub centrality {star_eig['hub']!r}, want 1.0")
        for leaf in ("a", "b", "c"):
            if abs(star_eig[leaf] - 1.0 / math.sqrt(3.0)) > 1e-6:
                failures.append(f"star leaf {leaf} centrality {star_eig[leaf]!r}")
        # path of three: binary efficiency (1 + 1 + 1/2) / 3
        path = np.zeros((3, 3))
        path[0, 1] = path[1, 0] = 0.9
        path[1, 2] = path[2, 1] = 0.1
        path_m = AssociationMatrix(names=["a", "b", "c"], values=path)
        eff = global_efficiency(path_m, "binary")
        if abs(eff - 5.0 / 6.0) > 1e-9:
            failures.append(f"path-of-three binary efficiency {eff!r}, want 5/6")
        # scaling by 10: dyadic weights k/256 stay exact under the scaling,
        # so scale-free measures must be bit-identical and strength exact
        rng = Rng(99)
        names = [f"n{k}" for k in range(6)]
        values = np.zeros((6, 6))
        for i in range(6):
            for j in range(i + 1, 6):
                if rng.random() < 0.7:
                    values[i, j] = values[j, i] = (1 + rng.randrange(25)) / 256.0
        base = AssociationMatrix(names=names, values=values)
        scaled = AssociationMatrix(names=names, values=values * 10.0)
        if density(scaled) != density(base):
            failures.append("density changed under exact x10 scaling")
        if global_efficiency(scaled, "binary") != global_efficiency(base, "binary"):
            failures.append("binary efficiency changed under exact x10 scaling")
        if eigenvector_centrality(scaled) != eigenvector_centrality(base):
            failures.append("eigenvector centrality changed under exact x10 scaling")
        for name in names:
            d, s = degree_strength(base)[name]
            d10, s10 = degree_strength(scaled)[name]
            if d10 != d:
                failures.append(f"{name} degree changed under scaling")
            if s10 != 10.0 * s:
                failures.append(f"{name} strength {s10!r} is not exactly 10 * {s!r}")
        return failures

    _check("C5", "eigenvector residual, star and path hand cases, exact x10 scaling", worker)


def test_c6_tracking_recovery():
    def worker():
        failures = []
        for seed in range(100):
            n = 4 + seed % 6
            lines = 1 + seed % 3
            scenario, streams = build_scenario(seed, n, lines, 3, 10)
            for vid, stream in streams.items():
                if build_tracks(stream) != scenario.ground_truth_tracks[vid]:
                    failures.append(f"seed {seed} video {vid}: tracks differ from truth")
                    return failures
        noise = NoiseParams(fp_rate=0.05, fn_rate=0.10)
        for seed in range(20):
            scenario, streams = build_scenario(seed, 6, 2, 4, 12, noise)
            for vid, stream in streams.items():
                tracks = build_tracks(stream)
                if sum(len(t) for t in tracks) != stream.detection_count:
                    failures.append(f"noisy seed {seed} video {vid}: detections not conserved")
                if tracks != build_tracks(stream):
                    failures.append(f"noisy seed {seed} video {vid}: non-deterministic")
        return failures

    _check("C6", "100 noise-free scenarios tracked back to exact truth; noisy runs "
           "conserve detections deterministically", worker)


_FROZEN_NOISY_SPEARMAN = 0.8216984693163506


def test_c7_end_to_end_recovery():
    def worker():
        failures = []
        started = time.perf_counter()

        def run(noise):
            scenario, streams = build_scenario(42, 12, 3, 200, 30, noise)
            tracks = []
            for vid in sorted(streams):
                for t in build_tracks(streams[vid]):
                    tracks.append(fuse_identity(t))
            ledger, _conflicts = tracks_to_ledger(tracks, mode="video-level")
            matrix = simple_ratio_matrix(count_occurrences(ledger), scenario.roster.names)
            return scenario, matrix

        scenario, matrix = run(None)
        oracle = simple_ratio_matrix(
            count_occurrences(scenario.ground_truth_ledger), scenario.roster.names
        )
        if not np.array_equal(matrix.values, oracle.values):
            worst = float(np.max(np.abs(np.array(matrix.values) - np.array(oracle.values))))
            failures.append(f"noise-free matrix differs from the oracle (max {worst:.3e})")
        got_report = network_report(matrix)
        want_report = network_report(oracle)
        if abs(got_report.density - want_report.density) > 1e-9:
            failures.append("report density drifts from the oracle report")
        if (
            abs(got_report.global_efficiency_binary - want_report.global_efficiency_binary)
            > 1e-9
            or abs(
                got_report.global_efficiency_weighted - want_report.global_efficiency_weighted
            )
            > 1e-9
        ):
            failures.append("report efficiencies drift from the oracle report")
        for got, want in zip(got_report.individuals, want_report.individuals):
            if (
                got.degree != want.degree
                or abs(got.strength - want.strength) > 1e-9
                or abs(got.eigenvector - want.eigenvector) > 1e-9
            ):
                failures.append(f"report row {got.name} drifts from the oracle report")
                break

        noisy_scenario, noisy_matrix = run(
            NoiseParams(fp_rate=0.05, fn_rate=0.10, jitter_px=2.0, id_confusion_rate=0.10)
        )
        iu = np.triu_indices(noisy_matrix.n, k=1)
        rho = float(
            spearmanr(np.array(noisy_matrix.values)[iu], np.array(noisy_scenario.latent_weights.values)[iu]).statistic
        )
        if rho < 0.8:
            failures.append(f"noisy Spearman correlation {rho:.4f} below 0.8")
        if abs(rho - _FROZEN_NOISY_SPEARMAN) > 1e-9:
            failures.append(
                f"noisy Spearman {rho!r} drifted from frozen {_FROZEN_NOISY_SPEARMAN!r}"
            )
        elapsed = time.perf_counter() - started
        if elapsed >= 30.0:
            failures.append(f"end-to-end run took {elapsed:.1f}s, budget 30s")
        return failures

    _check("C7", "noise-free pipeline equals the ledger oracle exactly; noisy recovery "
           "correlates with the latent weights in under 30s", worker)


def test_c8_determinism_and_formats(tmp_path):
    def worker():
        failures = []
        synth_a = tmp_path / "synth_a"
        synth_b = tmp_path / "synth_b"
        for out in (synth_a, synth_b):
            code = main(
                ["synth", "--seed", "11", "--individuals", "8", "--matrilines", "2",
                 "--videos", "16", "--frames", "6", "--out-dir", str(out)]
            )
            if code != 0:
                failures.append(f"synth exited {code}")
                return failures
        for rel in ["roster.csv", "latent.csv", "ledger.csv", "detections/v0000.jsonl"]:
            if (synth_a / rel).read_bytes() != (synth_b / rel).read_bytes():
                failures.append(f"synth rerun changed {rel}")

        pipe_a = tmp_path / "pipe_a"
        pipe_b = tmp_path / "pipe_b"
        for out in (pipe_a, pipe_b):
            code = main(
                ["pipeline", "--detections-dir", str(synth_a / "detections"),
                 "--roster", str(synth_a / "roster.csv"), "--out-dir", str(out),
                 "--seed", "11", "--min-track-len", "1"]
            )
            if code != 0:
                failures.append(f"pipeline exited {code}")
                return failures
        outputs = ["ledger.csv", "matrix.csv", "report.json", "network.svg",
                   "network.dot", "conflicts.json"]
        for rel in outputs:
            if (pipe_a / rel).read_bytes() != (pipe_b / rel).read_bytes():
                failures.append(f"pipeline rerun changed {rel}")

        matrix = parse_association_matrix((pipe_a / "matrix.csv").read_text())
        root = ET.fromstring((pipe_a / "network.svg").read_bytes())
        tags = [el.tag.split("}")[-1] for el in root.iter()]
        expected_edges = int((np.array(matrix.values) > 0).sum() // 2)
        if tags.count("circle") != matrix.n:
            failures.append(
                f"SVG has {tags.count('circle')} nodes for a {matrix.n}-member graph"
            )
        if tags.count("line") != expected_edges:
            failures.append(
                f"SVG has {tags.count('line')} edges, graph has {expected_edges}"
            )

        reparsed = parse_association_matrix(write_matrix(matrix))
        worst = float(np.max(np.abs(np.array(reparsed.values) - np.array(matrix.values)))) if matrix.n else 0.0
        if reparsed.names != matrix.names or worst > 1e-12:
            failures.append(f"matrix CSV round trip drifts by {worst:.3e}")

        layout_a = tmp_path / "layout_a.svg"
        layout_b = tmp_path / "layout_b.svg"
        for out in (layout_a, layout_b):
            code = main(
                ["layout", "--matrix", str(pipe_a / "matrix.csv"), "--seed", "3",
                 "--svg-out", str(out)]
            )
            if code != 0:
                failures.append(f"layout exited {code}")
                return failures
        if layout_a.read_bytes() != layout_b.read_bytes():
            failures.append("layout rerun changed the SVG")
        return failures

    _check("C8", "subcommand reruns are byte-identical; SVG structure matches the "
           "graph; matrix CSV round-trips", worker)
