"""Tests for the force-directed layout and the SVG/DOT renderers."""

from __future__ import annotations

import math
import statistics
import xml.etree.ElementTree as ET
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from troopnet import bundled, layout, synth
from troopnet.association import count_occurrences, simple_ratio_matrix
from troopnet.geometry import ProximityParams
from troopnet.ingest import AssociationMatrix, OccurrenceLedger
from troopnet.layout import GemParams, gem_layout, render_dot, render_svg
from troopnet.network import network_report
from troopnet.rng import Rng
from troopnet.tracking import Identity, tracks_to_ledger

from conftest import matrix_from_dyads


def _dist(layout, a, b):
    (x1, y1), (x2, y2) = layout.positions[a], layout.positions[b]
    return math.hypot(x2 - x1, y2 - y1)


def _tags(svg_bytes):
    root = ET.fromstring(svg_bytes)
    return [el.tag.split("}")[-1] for el in root.iter()]


def _elements(svg_bytes, tag):
    root = ET.fromstring(svg_bytes)
    return [el for el in root.iter() if el.tag.split("}")[-1] == tag]


SQUARE = matrix_from_dyads(
    ["P", "Q", "R", "S"],
    {("P", "Q"): 0.5, ("Q", "R"): 0.5, ("R", "S"): 0.5, ("P", "S"): 0.5},
)


# ---------------------------------------------------------------------------
# parameters


def test_gem_params_defaults():
    params = GemParams()
    assert params.desired_edge_length == 128.0
    assert params.max_rounds_factor == 6
    assert params.stop_temperature_fraction == 1.0 / 50.0


def test_gem_params_validation():
    for bad in (
        dict(desired_edge_length=0.0),
        dict(desired_edge_length=2.0**-401),
        dict(desired_edge_length=2.0**401),
        dict(max_rounds_factor=0),
        dict(stop_temperature_fraction=0.0),
    ):
        with pytest.raises(ValueError):
            GemParams(**bad)
    for edge in (2.0**-400, 2.0**400):
        assert GemParams(desired_edge_length=edge).desired_edge_length == edge


# ---------------------------------------------------------------------------
# layout behaviour


def test_layout_single_node_at_origin():
    m = matrix_from_dyads(["Solo"], {})
    result = gem_layout(m)
    assert result.positions == {"Solo": (0.0, 0.0)}
    assert result.rounds_used == 0


def test_layout_pair_lands_near_desired_length():
    m = matrix_from_dyads(["A", "B"], {("A", "B"): 0.8})
    result = gem_layout(m, seed=0)
    assert 0.75 * 128.0 <= _dist(result, "A", "B") <= 1.25 * 128.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_layout_square_cycle_is_square(seed):
    result = gem_layout(SQUARE, seed=seed)
    sides = [
        _dist(result, a, b) for a, b in (("P", "Q"), ("Q", "R"), ("R", "S"), ("P", "S"))
    ]
    assert max(sides) / min(sides) <= 1.15
    mean_side = sum(sides) / 4.0
    for a, b in (("P", "R"), ("Q", "S")):
        assert _dist(result, a, b) == pytest.approx(mean_side * math.sqrt(2.0), rel=0.15)


def test_layout_star_leaves_equidistant():
    dyads = {("Hub", f"L{k}"): 0.5 for k in range(6)}
    m = matrix_from_dyads(["Hub"] + [f"L{k}" for k in range(6)], dyads)
    result = gem_layout(m, seed=0)
    spokes = [_dist(result, "Hub", f"L{k}") for k in range(6)]
    assert max(spokes) / min(spokes) <= 1.15
    assert result.rounds_used < GemParams().max_rounds_factor * 7


def test_layout_is_deterministic():
    first = gem_layout(SQUARE, seed=42)
    second = gem_layout(SQUARE, seed=42)
    assert first.positions == second.positions
    assert first.rounds_used == second.rounds_used


def test_layout_seed_changes_result():
    a = gem_layout(SQUARE, seed=1)
    b = gem_layout(SQUARE, seed=2)
    assert a.positions != b.positions


def test_layout_terminates_on_fixture(troop_matrix):
    params = GemParams()
    result = gem_layout(troop_matrix, params=params, seed=42)
    assert result.rounds_used < params.max_rounds_factor * troop_matrix.n
    assert all(
        math.isfinite(x) and math.isfinite(y) for x, y in result.positions.values()
    )


@given(st.integers(0, 1000), st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_layout_finite_on_random_graphs(seed, n):
    rng = Rng(seed)
    names = [f"n{k}" for k in range(n)]
    dyads = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                dyads[(names[i], names[j])] = 0.1 + 0.8 * rng.random()
    m = matrix_from_dyads(names, dyads)
    result = gem_layout(m, seed=seed)
    assert set(result.positions) == set(names)
    for x, y in result.positions.values():
        assert math.isfinite(x) and math.isfinite(y)


def test_zero_edge_graph_spreads_out():
    m = matrix_from_dyads(["A", "B", "C"], {})
    result = gem_layout(m, seed=0)
    assert _dist(result, "A", "B") > 1.0
    assert _dist(result, "A", "C") > 1.0


# ---------------------------------------------------------------------------
# the numpy visit against the scalar loop, bit for bit


@st.composite
def _graphs(draw):
    """2 to 12 vertices; each pair an edge or not, so some vertices are isolated."""
    n = draw(st.integers(2, 12))
    names = [f"n{k}" for k in range(n)]
    dyads = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
            if w > 0.0:
                dyads[(names[i], names[j])] = w
    return matrix_from_dyads(names, dyads)


def _hex(point):
    return tuple(float(c).hex() for c in point)


# a few values drawn often, so vertices coincide (d2 == 0) and coordinates
# overflow when squared (d2 == inf) or when subtracted (delta == inf)
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-200, 1e200, -1e200, 1e308]),
    st.floats(-1e4, 1e4),
)


@given(_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_vector_visit_matches_scalar_visit(m, data):
    n = m.n
    xs = data.draw(st.lists(_COORDS, min_size=n, max_size=n))
    ys = data.draw(st.lists(_COORDS, min_size=n, max_size=n))
    px, py = data.draw(_COORDS), data.draw(_COORDS)
    edge_sq = data.draw(st.sampled_from([1.0, 3.0, 128.0 * 128.0]))
    phi = [1.0 + len(row) / 2.0 for row in m.edges]
    scalar = layout._scalar_visit(xs, ys, m.edges, phi, edge_sq)
    vector = layout._vector_visit(xs, ys, m.values, phi, edge_sq)
    with np.errstate(all="ignore"):
        for v in range(n):
            assert _hex(vector(v, px, py)) == _hex(scalar(v, px, py))


# visits whose unmasked sums are not both finite and non-zero, so the masked
# pass (layout._masked_sums) must run: two coincident vertices (d2 == 0), a
# sum that ends at exactly zero (v at the origin between non-adjacent
# vertices at (+-1, 0), no impulse), and an infinite coordinate. In the zero
# sum, v's y and the impulse's are -0.0, so that the masked sum is -0.0 and
# the unmasked one +0.0: each non-edge adds (-0.0) * (-0.0).
_PATH = {("n0", "n1"): 0.5, ("n1", "n2"): 0.25}
_FALLBACK_CASES = {
    "coincident": (_PATH, [0.0, 3.0, 3.0], [1.0, -2.0, -2.0], 1, 0.25, 0.5),
    "zero sum": ({}, [0.0, 1.0, -1.0], [-0.0, 0.0, 0.0], 0, 0.0, -0.0),
    "infinite": (_PATH, [0.0, math.inf, 2.0], [0.0, 1.0, 1.0], 0, 0.25, 0.5),
}


@pytest.mark.parametrize("case", sorted(_FALLBACK_CASES))
def test_vector_visit_falls_back_to_the_masked_pass(case):
    dyads, xs, ys, v, px, py = _FALLBACK_CASES[case]
    m = matrix_from_dyads(["n0", "n1", "n2"], dyads)
    phi = [1.0 + len(row) / 2.0 for row in m.edges]
    scalar = layout._scalar_visit(xs, ys, m.edges, phi, 3.0)
    vector = layout._vector_visit(xs, ys, m.values, phi, 3.0)
    with np.errstate(all="ignore"), mock.patch.object(layout, "_masked_sums", wraps=layout._masked_sums) as masked:
        assert _hex(vector(v, px, py)) == _hex(scalar(v, px, py))
    assert masked.call_count == 1


def test_bundled_layout_never_needs_the_masked_pass(troop_matrix):
    runs = []
    for line in (troop_matrix.n, troop_matrix.n + 1):
        with mock.patch.object(layout, "NUMPY_MIN_N", line), mock.patch.object(
            layout, "_masked_sums", wraps=layout._masked_sums
        ) as masked:
            runs.append(gem_layout(troop_matrix, seed=5))
        assert masked.call_count == 0
    vector, scalar = runs
    assert vector.rounds_used == scalar.rounds_used
    assert {k: _hex(p) for k, p in vector.positions.items()} == {
        k: _hex(p) for k, p in scalar.positions.items()
    }


@given(_graphs(), st.integers(0, 1000), st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_vector_layout_matches_scalar_layout(m, seed, rounds_factor):
    params = GemParams(max_rounds_factor=rounds_factor)
    runs = []
    # a graph of exactly NUMPY_MIN_N vertices takes the numpy visit
    for line in (m.n, m.n + 1):
        with mock.patch.object(layout, "NUMPY_MIN_N", line):
            runs.append(gem_layout(m, params, seed))
    vector, scalar = runs
    assert vector.rounds_used == scalar.rounds_used
    assert {k: _hex(p) for k, p in vector.positions.items()} == {
        k: _hex(p) for k, p in scalar.positions.items()
    }


def _random_graph(n, seed, p=0.2):
    rng = Rng(seed)
    names = [f"n{k}" for k in range(n)]
    dyads = {
        (names[i], names[j]): 0.05 + 0.95 * rng.random()
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    }
    return matrix_from_dyads(names, dyads)


@pytest.fixture(scope="module")
def scaling_bases(troop_matrix):
    """Per visit path, a graph and its layout at the default edge length."""
    bases = {}
    for visit_path, m in (("scalar", troop_matrix), ("vector", _random_graph(layout.NUMPY_MIN_N, 3))):
        assert (m.n >= layout.NUMPY_MIN_N) == (visit_path == "vector")
        bases[visit_path] = m, gem_layout(m, GemParams(max_rounds_factor=3), seed=7)
    return bases


@pytest.mark.parametrize("k", [-300, -7, 1, 7, 20, 300])
@pytest.mark.parametrize("visit_path", ["scalar", "vector"])
def test_layout_scales_exactly_with_the_edge_length(scaling_bases, visit_path, k):
    # every length is a multiple of the edge length, so a power-of-two factor is exact
    m, base = scaling_bases[visit_path]
    factor = 2.0**k
    scaled = gem_layout(m, GemParams(desired_edge_length=128.0 * factor, max_rounds_factor=3), seed=7)
    assert scaled.rounds_used == base.rounds_used
    assert {name: _hex(p) for name, p in scaled.positions.items()} == {
        name: _hex((x * factor, y * factor)) for name, (x, y) in base.positions.items()
    }


@pytest.mark.parametrize("visit_path", ["scalar", "vector"])
def test_network_and_layout_derive_the_edge_lists_once(visit_path):
    # a ring, with or without enough vertices for the numpy visit
    n = 5 if visit_path == "scalar" else layout.NUMPY_MIN_N
    names = [f"n{k}" for k in range(n)]
    m = matrix_from_dyads(names, {(names[k], names[(k + 1) % n]): 0.25 + k / (2 * n) for k in range(n)})
    edges = AssociationMatrix.__dict__["edges"]  # the cached_property, whose func builds the lists
    with mock.patch.object(edges, "func", wraps=edges.func) as builds:
        report = network_report(m)
        placed = gem_layout(m, GemParams(max_rounds_factor=1), seed=1)
        render_svg(m, placed, report)
        render_dot(m, report)
    assert builds.call_count == 1


# ---------------------------------------------------------------------------
# layout quality: stress against hop distances, and the rounds the schedule runs


def _ledger_matrix(seed, individuals, matrilines, videos):
    """The video-level SRI matrix of a ledger synth samples from its latent weights."""
    roster, weights = synth.generate_troop(seed, individuals, matrilines)
    scenario = synth.SynthScenario(roster, weights, OccurrenceLedger([]), {})
    ledger = synth.sample_ledger(scenario, videos, seed)
    return simple_ratio_matrix(count_occurrences(ledger), roster.names)


def _proximal_matrix(seed, individuals, matrilines, videos, frames):
    """The proximal SRI matrix of synth's true tracks, each named through the
    ground-truth ledger: synth numbers a video's tracks in roster order."""
    scenario, _streams = synth.build_scenario(seed, individuals, matrilines, videos, frames)
    labelled = []
    for entry in scenario.ground_truth_ledger.entries:
        present = [name for name in scenario.roster.names if name in entry.present]
        for t in scenario.ground_truth_tracks[entry.video_id]:
            labelled.append(replace(t, identity=Identity(name=present[t.track_id], confidence=1.0)))
    ledger, _conflicts = tracks_to_ledger(labelled, "proximal", ProximityParams(max_gap=3.0))
    return simple_ratio_matrix(count_occurrences(ledger), scenario.roster.names)


def _path(n):
    names = [f"p{k:02d}" for k in range(n)]
    return matrix_from_dyads(names, {(names[k], names[k + 1]): 0.5 for k in range(n - 1)})


def _grid(side):
    name = "g{}_{}".format
    dyads = {}
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                dyads[(name(r, c), name(r, c + 1))] = 0.5
            if r + 1 < side:
                dyads[(name(r, c), name(r + 1, c))] = 0.5
    return matrix_from_dyads([name(r, c) for r in range(side) for c in range(side)], dyads)


def _hops(m):
    """Per vertex, the hop distance to each vertex it reaches, by breadth-first search."""
    out = []
    for source in range(m.n):
        dist = {source: 0}
        queue = [source]
        for v in queue:
            for u, _w in m.edges[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        out.append(dist)
    return out


def _stress(m, placed, hops):
    """Kamada & Kawai's stress of a layout: over connected pairs, the mean of
    ((s * d - t) / t)^2 with d the layout distance, t the hop distance and
    s = sum(d / t) / sum(d^2 / t^2), the scale that minimises it."""
    pairs = [
        (math.dist(placed.positions[m.names[i]], placed.positions[m.names[j]]), t)
        for i in range(m.n)
        for j, t in hops[i].items()
        if j > i
    ]
    s = math.fsum(d / t for d, t in pairs) / math.fsum((d / t) ** 2 for d, t in pairs)
    return math.fsum(((s * d - t) / t) ** 2 for d, t in pairs) / len(pairs)


# graph -> (builder, layout seeds), at default GemParams; n = 160 takes two seeds to keep the suite quick
_STRESS_GRAPHS = {
    "bundled": (bundled.load_troop_matrix, range(8)),
    "video-40": (lambda: _ledger_matrix(7, 42, 6, 40), range(8)),
    "proximal-24": (lambda: _proximal_matrix(5, 24, 1, 5, 20), range(8)),
    "path-20": (lambda: _path(20), range(8)),
    "grid-6x6": (lambda: _grid(6), range(8)),
    "n160": (lambda: _ledger_matrix(61, 160, 16, 320), range(2)),
}


# (median, maximum) stress over each graph's seeds, measured with the code
# above on the per-vertex adaptive cooling that the one schedule replaced,
# at its default budget of 40 n rounds
_ADAPTIVE_STRESS = {
    "bundled": (0.11156, 0.12876),
    "video-40": (0.14381, 0.14682),
    "proximal-24": (0.11922, 0.12097),
    "path-20": (0.046307, 0.047487),
    "grid-6x6": (0.022176, 0.022297),
    "n160": (0.18806, 0.18826),
}


@pytest.mark.parametrize("graph", list(_STRESS_GRAPHS))
def test_layout_stress_no_worse_than_adaptive_cooling(graph):
    build, seeds = _STRESS_GRAPHS[graph]
    m = build()
    hops = _hops(m)
    stresses = [_stress(m, gem_layout(m, seed=seed), hops) for seed in seeds]
    median, worst = _ADAPTIVE_STRESS[graph]
    assert statistics.median(stresses) <= 1.02 * median
    assert max(stresses) <= 1.05 * worst


def _scheduled_rounds(n, params=GemParams()):
    """The first round r that leaves the temperature, E * (1 - r / ramp), below
    the stop fraction of E: the closed form of the rounds a layout runs."""
    ramp = params.max_rounds_factor * n * 5 / 8
    return math.floor(ramp * (1.0 - params.stop_temperature_fraction)) + 1


def test_rounds_depend_only_on_the_vertex_count():
    dense = _random_graph(20, 5, p=0.6)
    rounds = {gem_layout(m, seed=seed).rounds_used for m, seed in ((_path(20), 0), (dense, 3))}
    assert rounds == {_scheduled_rounds(20)} == {74}


@pytest.mark.parametrize(
    ("build", "factor"),
    [(bundled.load_troop_matrix, 6), (lambda: _random_graph(48, 3), 2)],
    ids=["bundled-6n", "random48-2n"],
)
def test_stop_fraction_below_the_floor_runs_exactly_the_cap(build, factor):
    # the temperature never falls below E/128, so a stop at E/256 never fires
    m = build()
    params = GemParams(max_rounds_factor=factor, stop_temperature_fraction=1.0 / 256.0)
    assert gem_layout(m, params, seed=1).rounds_used == factor * m.n


# ---------------------------------------------------------------------------
# SVG rendering


def _rendered(m, seed=0):
    report = network_report(m)
    layout = gem_layout(m, seed=seed)
    return render_svg(m, layout, report), layout, report


def test_svg_is_wellformed_with_matching_counts(troop_matrix, troop_report):
    layout = gem_layout(troop_matrix, seed=42)
    svg = render_svg(troop_matrix, layout, troop_report)
    tags = _tags(svg)
    n = troop_matrix.n
    edges = int((np.array(troop_matrix.values) > 0).sum() // 2)
    assert tags.count("circle") == n
    assert tags.count("text") == n
    assert tags.count("line") == edges
    assert svg.startswith(b'<?xml version="1.0" encoding="UTF-8"?>')


def test_svg_bytes_deterministic(troop_matrix, troop_report):
    layout = gem_layout(troop_matrix, seed=42)
    assert render_svg(troop_matrix, layout, troop_report) == render_svg(
        troop_matrix, layout, troop_report
    )


def test_svg_two_nodes_one_edge():
    m = matrix_from_dyads(["A", "B"], {("A", "B"): 0.5})
    svg, _layout, _report = _rendered(m)
    tags = _tags(svg)
    assert tags.count("circle") == 2
    assert tags.count("line") == 1
    assert tags.count("text") == 2


def test_svg_equal_degrees_get_midpoint_radius():
    m = matrix_from_dyads(["A", "B"], {("A", "B"): 0.5})
    svg, _layout, _report = _rendered(m)
    radii = {c.get("r") for c in _elements(svg, "circle")}
    assert radii == {"14"}


def test_svg_radius_scales_with_degree():
    m = matrix_from_dyads(
        ["Hub", "L1", "L2", "L3"],
        {("Hub", "L1"): 0.5, ("Hub", "L2"): 0.5, ("Hub", "L3"): 0.5},
    )
    svg, layout, _report = _rendered(m)
    circles = {}
    for c in _elements(svg, "circle"):
        cx, cy = float(c.get("cx")), float(c.get("cy"))
        for name, (x, y) in layout.positions.items():
            if abs(cx - x) < 1e-3 and abs(cy - y) < 1e-3:
                circles[name] = float(c.get("r"))
    assert circles["Hub"] == 24.0
    assert circles["L1"] == 4.0


def test_svg_stroke_widths_follow_weights():
    m = matrix_from_dyads(["A", "B", "C"], {("A", "B"): 0.8, ("B", "C"): 0.4})
    svg, _layout, _report = _rendered(m)
    widths = sorted(float(l.get("stroke-width")) for l in _elements(svg, "line"))
    assert widths == [0.5 + 7.5 * 0.5, 8.0]


def test_svg_zero_edges_has_no_lines():
    m = matrix_from_dyads(["A", "B"], {})
    svg, _layout, _report = _rendered(m)
    assert _tags(svg).count("line") == 0


def test_svg_escapes_names():
    m = matrix_from_dyads(["A<1>", "B&Co"], {("A<1>", "B&Co"): 0.5})
    svg, _layout, _report = _rendered(m)
    texts = {t.text for t in _elements(svg, "text")}
    assert texts == {"A<1>", "B&Co"}
    assert b"A&lt;1&gt;" in svg


@given(st.text(alphabet=st.sampled_from("&<>\"'ab ;#éλ😀\u2028") | st.characters()))
@settings(max_examples=300, deadline=None)
def test_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape  # the oracle; layout itself does not import xml

    assert layout._escape(text) == escape(text)


# ---------------------------------------------------------------------------
# DOT rendering


def test_dot_single_edge():
    m = matrix_from_dyads(["A", "B"], {("A", "B"): 0.37})
    dot = render_dot(m, network_report(m))
    lines = dot.splitlines()
    assert lines[0] == "graph association {"
    assert lines[-1] == "}"
    assert '  "A" -- "B" [weight=0.37];' in lines
    node_lines = [l for l in lines if " [degree=" in l]
    assert len(node_lines) == 2
    assert node_lines[0].startswith('  "A" [degree=1, strength="0.37", ')


def test_dot_counts_match_graph(troop_matrix, troop_report):
    dot = render_dot(troop_matrix, troop_report)
    lines = dot.splitlines()
    n = troop_matrix.n
    edges = int((np.array(troop_matrix.values) > 0).sum() // 2)
    assert len([l for l in lines if " [degree=" in l]) == n
    assert len([l for l in lines if " -- " in l]) == edges


def test_dot_quotes_awkward_names():
    name = 'Fa"ce\\Off'
    m = matrix_from_dyads([name, "B"], {(name, "B"): 0.5})
    dot = render_dot(m, network_report(m))
    assert '"Fa\\"ce\\\\Off"' in dot


def test_dot_deterministic(troop_matrix, troop_report):
    assert render_dot(troop_matrix, troop_report) == render_dot(troop_matrix, troop_report)
