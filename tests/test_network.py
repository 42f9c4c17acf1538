"""Tests for network measures: density, degree, strength, eigenvector
centrality and global efficiency."""

from __future__ import annotations

import heapq
import math
import subprocess
import sys
import warnings
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from troopnet import network
from troopnet.ingest import AssociationMatrix
from troopnet.network import (
    ConvergenceError,
    NetworkParams,
    connected_components,
    degree_strength,
    density,
    eigenvector_centrality,
    eigenvector_residual,
    global_efficiency,
    network_report,
)
from troopnet.rng import Rng

from conftest import matrix_from_dyads


def _random_positive_matrix(seed, n):
    """Fully connected symmetric matrix with entries in (0.05, 0.95)."""
    rng = Rng(seed)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = 0.05 + 0.9 * rng.random()
    return AssociationMatrix(names=[f"n{k}" for k in range(n)], values=values)


def _random_sparse_matrix(seed, n, p=0.5):
    rng = Rng(seed)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                values[i, j] = values[j, i] = 0.05 + 0.9 * rng.random()
    return AssociationMatrix(names=[f"n{k}" for k in range(n)], values=values)


# ---------------------------------------------------------------------------
# density, degree, strength


def test_density_single_edge_of_three():
    m = matrix_from_dyads(["A", "B", "C"], {("A", "B"): 0.4})
    assert density(m) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_density_extremes():
    full = _random_positive_matrix(0, 5)
    assert density(full) == 1.0
    empty = matrix_from_dyads(["A", "B"], {})
    assert density(empty) == 0.0


def test_density_needs_two_individuals():
    solo = AssociationMatrix(names=["A"], values=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="network report needs at least 2 individuals, got 1"):
        network_report(solo)


def test_degree_strength_hand_case():
    m = matrix_from_dyads(["A", "B", "C"], {("A", "B"): 0.2, ("A", "C"): 0.3})
    ds = degree_strength(m)
    assert ds["A"] == (2, pytest.approx(0.5, abs=1e-15))
    assert ds["B"] == (1, 0.2)
    assert ds["C"] == (1, 0.3)


def test_degree_ignores_weight_magnitude():
    m = matrix_from_dyads(["A", "B", "C"], {("A", "B"): 1e-9, ("A", "C"): 0.9})
    assert degree_strength(m)["A"][0] == 2


# ---------------------------------------------------------------------------
# eigenvector centrality


def test_star_centrality():
    dyads = {("Hub", leaf): 0.5 for leaf in ("L1", "L2", "L3")}
    m = matrix_from_dyads(["Hub", "L1", "L2", "L3"], dyads)
    eig = eigenvector_centrality(m)
    assert eig["Hub"] == pytest.approx(1.0, abs=1e-9)
    for leaf in ("L1", "L2", "L3"):
        assert eig[leaf] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


def test_two_equal_disconnected_edges_all_equal():
    m = matrix_from_dyads(["A", "B", "C", "D"], {("A", "B"): 0.4, ("C", "D"): 0.4})
    eig = eigenvector_centrality(m)
    assert set(eig.values()) == {1.0}


def test_centrality_max_is_exactly_one():
    m = _random_sparse_matrix(3, 9)
    assume_edges = max(map(max, m.values)) > 0
    assert assume_edges
    eig = eigenvector_centrality(m)
    assert max(eig.values()) == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": math.inf}, {"tol": math.nan}, {"tol": 0.0}, {"max_iter": 0}],
    ids=["tol-inf", "tol-nan", "tol-zero", "max_iter-zero"],
)
def test_centrality_rejects_bad_tol_and_max_iter(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        NetworkParams(**kwargs)


def test_centrality_convergence_error_carries_residual():
    m = matrix_from_dyads(["A", "B", "C"], {("A", "B"): 0.2, ("B", "C"): 0.7})
    with pytest.raises(ConvergenceError) as exc:
        eigenvector_centrality(m, NetworkParams(max_iter=1))
    assert exc.value.residual > 0.0


@given(st.integers(0, 5000), st.integers(2, 8))
@settings(max_examples=50, deadline=None)
def test_centrality_matches_dense_eigensolver(seed, n):
    m = _random_positive_matrix(seed, n)
    eig = eigenvector_centrality(m)
    values, vectors = np.linalg.eigh(m.values)
    dominant = vectors[:, -1]
    dominant = dominant / dominant[np.argmax(np.abs(dominant))]
    for i, name in enumerate(m.names):
        assert eig[name] == pytest.approx(dominant[i], abs=1e-6)


@given(st.integers(0, 5000), st.integers(2, 10))
@settings(max_examples=50, deadline=None)
def test_centrality_residual_within_tolerance(seed, n):
    m = _random_positive_matrix(seed, n)
    tol = 1e-10
    eig = eigenvector_centrality(m, NetworkParams(tol=tol))
    assert eigenvector_residual(m, eig) <= 10.0 * tol


def test_fixture_residual(troop_matrix):
    eig = eigenvector_centrality(troop_matrix)
    assert eigenvector_residual(troop_matrix, eig) <= 1e-9
    assert max(eig.values()) == 1.0


@st.composite
def _near_symmetric_matrices(draw):
    """Valid matrices with zero rows, zero cells and mirror cells that differ
    by up to 9e-13, including a zero facing a tiny positive value."""
    n = draw(st.integers(2, 8))
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=n))
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if i in isolated or j in isolated:
                continue
            w = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)))
            mirror = min(max(w + draw(st.sampled_from([0.0, 1e-13, -1e-13, 9e-13])), 0.0), 1.0)
            values[i, j], values[j, i] = (w, mirror) if draw(st.booleans()) else (mirror, w)
    return AssociationMatrix(names=[f"n{k}" for k in range(n)], values=values)


def _dense_residual(rows, v):
    n = len(v)
    mv = [math.fsum(rows[i][j] * v[j] for j in range(n)) for i in range(n)]
    vv = math.fsum(x * x for x in v)
    if vv == 0.0:
        return 0.0
    lam = math.fsum(v[i] * mv[i] for i in range(n)) / vv
    return max(abs(mv[i] - lam * v[i]) for i in range(n))


def _dense_centrality(rows):
    """The power iteration of eigenvector_centrality over every cell, zeros included."""
    n = len(rows)
    top = max(max(row) for row in rows)
    scaled = [[x / top for x in row] for row in rows]
    v = [1.0] * n
    for _ in range(10000):
        nxt = [math.fsum(scaled[i][j] * v[j] for j in range(n)) + v[i] for i in range(n)]
        peak = max(nxt)
        nxt = [x / peak for x in nxt]
        diff = max(abs(a - b) for a, b in zip(nxt, v))
        v = nxt
        if diff < 1e-10:
            return v
    return None


@given(_near_symmetric_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_measures_equal_dense_formulas(m, data):
    n = m.n
    rows = m.values
    positive = sum(1 for i in range(n) for j in range(i + 1, n) if rows[i][j] > 0.0)
    assert density(m) == positive / (n * (n - 1) / 2)
    assert degree_strength(m) == {
        name: (sum(1 for x in row if x > 0.0), math.fsum(row)) for name, row in zip(m.names, rows)
    }
    v = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    assert eigenvector_residual(m, dict(zip(m.names, v))) == _dense_residual(rows, v)
    if max(map(max, rows)) > 0.0:
        dense = _dense_centrality(rows)
        assume(dense is not None)
        eig = eigenvector_centrality(m)
        assert [eig[name] for name in m.names] == dense
        assert eigenvector_residual(m, eig) == _dense_residual(rows, dense)


# ---------------------------------------------------------------------------
# global efficiency


def test_binary_efficiency_path_of_three():
    m = matrix_from_dyads(["A", "B", "C"], {("A", "B"): 0.9, ("B", "C"): 0.1})
    assert global_efficiency(m, "binary") == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_binary_efficiency_complete_is_one():
    m = _random_positive_matrix(1, 6)
    assert global_efficiency(m, "binary") == 1.0


def test_weighted_efficiency_path_of_three():
    m = matrix_from_dyads(["A", "B", "C"], {("A", "B"): 0.5, ("B", "C"): 0.5})
    # lengths 2 and 2, so pair distances 2, 2 and 4
    expected = (0.5 + 0.5 + 0.25) / 3.0
    assert global_efficiency(m, "weighted") == pytest.approx(expected, abs=1e-12)


def test_weighted_efficiency_prefers_strong_detour():
    # the direct edge has length 10; the two-hop route has length 4
    m = matrix_from_dyads(
        ["A", "B", "C"],
        {("A", "C"): 0.1, ("A", "B"): 0.5, ("B", "C"): 0.5},
    )
    expected = (0.5 + 0.5 + 0.25) / 3.0
    assert global_efficiency(m, "weighted") == pytest.approx(expected, abs=1e-12)


def test_a_negative_zero_entry_is_no_edge():
    # 1 / -0.0 was an edge length of -inf, which the Dijkstra turned to NaN with a RuntimeWarning
    values = np.array([[0.0, 0.5, -0.0], [0.5, 0.0, 0.5], [-0.0, 0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = network_report(AssociationMatrix(["a", "b", "c"], values))
    assert report == network_report(AssociationMatrix(["a", "b", "c"], np.abs(values)))
    assert report.global_efficiency_weighted == pytest.approx(5.0 / 12.0, abs=1e-12)


def _brute_distances(m, mode):
    """Shortest-path distances by exhaustive simple-path enumeration."""
    n = m.n
    best = [[math.inf] * n for _ in range(n)]

    def explore(path, length):
        src, here = path[0], path[-1]
        if length < best[src][here]:
            best[src][here] = length
        for nxt in range(n):
            if nxt in path:
                continue
            w = m.values[here][nxt]
            if w <= 0.0:
                continue
            step = 1.0 if mode == "binary" else 1.0 / w
            explore(path + [nxt], length + step)

    for src in range(n):
        explore([src], 0.0)
    return best


def _brute_efficiency(m, mode):
    dist = _brute_distances(m, mode)
    inv = [
        1.0 / dist[i][j]
        for i in range(m.n)
        for j in range(m.n)
        if i != j and dist[i][j] < math.inf
    ]
    return math.fsum(inv) / (m.n * (m.n - 1))


@given(st.integers(0, 5000), st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_efficiency_matches_exhaustive_enumeration(seed, n):
    m = _random_sparse_matrix(seed, n)
    assert global_efficiency(m, "binary") == pytest.approx(
        _brute_efficiency(m, "binary"), abs=1e-12
    )
    assert global_efficiency(m, "weighted") == pytest.approx(
        _brute_efficiency(m, "weighted"), abs=1e-9
    )


def _bfs_distances(m):
    """Hop counts by a breadth-first search per source: the reference for _distances at unit lengths."""
    n = m.n
    adj = m.edges
    rows = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for vtx, _w in adj[u]:
                if dist[vtx] < 0:
                    dist[vtx] = dist[u] + 1
                    queue.append(vtx)
        rows.append([math.inf if d < 0 else float(d) for d in dist])
    return np.array(rows)


def _dijkstra_distances(m):
    """Lengths by a heap Dijkstra per source: the reference for _distances at lengths 1/w."""
    n = m.n
    lengths = [[(vtx, 1.0 / w) for vtx, w in row] for row in m.edges]
    rows = []
    for src in range(n):
        dist = [math.inf] * n
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for vtx, length in lengths[u]:
                nd = d + length
                if nd < dist[vtx]:
                    dist[vtx] = nd
                    heapq.heappush(heap, (nd, vtx))
        rows.append(dist)
    return np.array(rows)


def _oracle_efficiency(dist):
    n = len(dist)
    rows = dist.tolist()
    return math.fsum(
        1.0 / rows[i][j] for i in range(n) for j in range(n) if i != j and rows[i][j] < math.inf
    ) / (n * (n - 1))


def _oracle_components(m):
    """Components by whole-row frontiers on a boolean array, grown until
    they stop: the reference for connected_components' depth-first search."""
    edge = np.array(m.values) > 0.0
    seen = np.zeros(m.n, dtype=bool)
    components = []
    for start in range(m.n):
        if not seen[start]:
            frontier = np.arange(m.n) == start
            seen |= frontier
            comp = frontier
            while frontier.any():
                frontier = edge[frontier].any(axis=0) & ~seen
                seen |= frontier
                comp = comp | frontier
            components.append([name for name, inside in zip(m.names, comp.tolist()) if inside])
    return components


def _helper_distances(m, mode):
    """network._distances over the edge lengths global_efficiency builds for mode."""
    values = np.array(m.values)
    if mode == "binary":
        return network._distances(np.where(values > 0.0, 1.0, math.inf))
    with np.errstate(divide="ignore", over="ignore"):
        return network._distances(1.0 / values)


def _efficiency_paths(m, mode):
    """global_efficiency(m, mode) by the heap Dijkstra and by the dense one,
    the line moved to either side of m."""
    with mock.patch.object(network, "NUMPY_MIN_N", m.n + 1):
        heap = global_efficiency(m, mode)
    with mock.patch.object(network, "NUMPY_MIN_N", m.n):
        dense = global_efficiency(m, mode)
    return heap, dense


def _assert_matches_oracles(m):
    hops, lengths = _bfs_distances(m), _dijkstra_distances(m)
    assert np.array_equal(_helper_distances(m, "binary"), hops)
    assert np.array_equal(_helper_distances(m, "weighted"), lengths)
    assert _efficiency_paths(m, "binary") == (_oracle_efficiency(hops),) * 2
    assert _efficiency_paths(m, "weighted") == (_oracle_efficiency(lengths),) * 2
    assert connected_components(m) == _oracle_components(m)


# ties (exact lengths 1, 2, 4, 8), lengths that round (1/0.3, 1/0.7),
# weights a 9e-13 mirror offset clamps to zero, and subnormals whose length
# 1/w overflows to inf
_ORACLE_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.1, 0.3, 0.7, 5e-13, 5e-324, 1e-310]),
    st.floats(1e-300, 1.0),
)


@st.composite
def _oracle_matrices(draw):
    """Graphs with isolated vertices, several components, tied and subnormal
    weights, and mirror cells that differ by up to 1e-12 (a zero facing a
    tiny weight among them, so an edge may run one way only)."""
    n = draw(st.integers(2, 24))
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=3))
    groups = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    p = draw(st.sampled_from([0.15, 0.4, 0.8]))
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if i in isolated or j in isolated or groups[i] != groups[j]:
                continue
            if draw(st.floats(0.0, 1.0)) >= p:
                continue
            w = draw(_ORACLE_WEIGHTS)
            mirror = min(max(w + draw(st.sampled_from([0.0, 0.0, 9e-13, -9e-13])), 0.0), 1.0)
            values[i, j], values[j, i] = (w, mirror) if draw(st.booleans()) else (mirror, w)
    return AssociationMatrix(names=[f"n{k}" for k in range(n)], values=values)


@given(_oracle_matrices())
@settings(max_examples=300, deadline=None)
@example(AssociationMatrix(names=["a", "b", "c"], values=[[0.0, 5e-324, 0.0], [5e-324, 0.0, 0.5], [0.0, 0.5, 0.0]]))
@example(AssociationMatrix(names=["a", "b", "c"], values=[[0.0, 1e-12, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]]))
def test_distances_equal_the_search_oracles(m):
    _assert_matches_oracles(m)


@given(st.integers(0, 5000), st.integers(24, 60), st.sampled_from([0.1, 0.5, 0.85]))
@settings(max_examples=20, deadline=None)
def test_distances_equal_the_search_oracles_on_larger_graphs(seed, n, p):
    _assert_matches_oracles(_random_sparse_matrix(seed, n, p))


@st.composite
def _line_graphs(draw):
    """Graphs on either side of the numpy line: random components or paths
    cut into pieces, weights whose 1/w overflows to inf among them, and
    -0.0 in some of the cells that hold no edge."""
    line = network.NUMPY_MIN_N
    n = draw(st.integers(2, 12) | st.integers(line - 2, line + 6))
    if draw(st.booleans()):  # a path along the matrix order, cut at a few places
        cuts = draw(st.sets(st.integers(0, n - 2), max_size=3))
        pairs = [(i, i + 1) for i in range(n - 1) if i not in cuts]
    else:
        groups = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        p = draw(st.sampled_from([0.1, 0.5, 0.9]))
        rng = Rng(draw(st.integers(0, 2**32)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if groups[i] == groups[j] and rng.random() < p]
    blank = draw(st.sampled_from([0.0, -0.0]))
    values = [[blank] * n for _ in range(n)]
    for i in range(n):
        values[i][i] = 0.0
    for i, j in pairs:
        values[i][j] = values[j][i] = draw(_ORACLE_WEIGHTS)
    return AssociationMatrix(names=[f"n{k}" for k in range(n)], values=values)


@given(_line_graphs())
@settings(max_examples=80, deadline=None)
@example(AssociationMatrix(names=["a", "b", "c"], values=[[0.0, 5e-324, -0.0], [5e-324, 0.0, 1e-310], [-0.0, 1e-310, 0.0]]))
def test_heap_and_dense_efficiencies_agree_bit_for_bit(m):
    for mode in ("binary", "weighted"):
        heap, dense = _efficiency_paths(m, mode)
        assert heap.hex() == dense.hex()
        # the real line picks one of the two
        assert global_efficiency(m, mode).hex() == (dense if m.n >= network.NUMPY_MIN_N else heap).hex()
    assert connected_components(m) == _oracle_components(m)


def test_complete_graph_past_255_vertices():
    values = np.full((300, 300), 0.5)
    np.fill_diagonal(values, 0.0)
    m = AssociationMatrix(names=[f"n{k}" for k in range(300)], values=values)
    assert density(m) == 1.0
    assert global_efficiency(m, "binary") == 1.0
    assert global_efficiency(m, "weighted") == 0.5


def test_256_common_neighbours_still_reach():
    # the ends 0 and 257 share the 256 middle vertices, which are all joined,
    # so they are two hops apart along 256 tied paths: more than a count in
    # 8 bits can hold
    values = np.full((258, 258), 0.5)
    np.fill_diagonal(values, 0.0)
    values[0, 257] = values[257, 0] = 0.0
    m = AssociationMatrix(names=[f"n{k}" for k in range(258)], values=values)
    hops = _helper_distances(m, "binary")
    assert hops[0, 257] == hops[257, 0] == 2.0
    assert np.array_equal(hops, _bfs_distances(m))


def test_path_of_300_vertices():
    # diameter n - 1: both efficiencies still take n steps of n x n work
    n = 300
    rng = Rng(4)
    values = np.zeros((n, n))
    for i in range(n - 1):
        values[i, i + 1] = values[i + 1, i] = 0.05 + 0.9 * rng.random()
    m = AssociationMatrix(names=[f"n{k}" for k in range(n)], values=values)
    hops = _helper_distances(m, "binary")
    assert hops[0, n - 1] == n - 1
    assert np.array_equal(hops, _bfs_distances(m))
    assert global_efficiency(m, "binary") == _oracle_efficiency(hops)
    lengths = _dijkstra_distances(m)
    assert np.array_equal(_helper_distances(m, "weighted"), lengths)
    assert global_efficiency(m, "weighted") == _oracle_efficiency(lengths)
    assert connected_components(m) == _oracle_components(m)


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_adding_an_edge_never_lowers_binary_efficiency(seed):
    m = _random_sparse_matrix(seed, 6)
    zeros = [
        (i, j)
        for i in range(m.n)
        for j in range(i + 1, m.n)
        if m.values[i][j] == 0.0
    ]
    assume(zeros)
    i, j = zeros[0]
    before = global_efficiency(m, "binary")
    grown = [row[:] for row in m.values]
    grown[i][j] = grown[j][i] = 0.5
    after = global_efficiency(AssociationMatrix(names=m.names, values=grown), "binary")
    assert after >= before


@given(st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_isolated_newcomer_dilutes_everything(seed):
    m = _random_sparse_matrix(seed, 6)
    assume(max(map(max, m.values)) > 0)
    bigger = np.zeros((m.n + 1, m.n + 1))
    bigger[: m.n, : m.n] = m.values
    grown = AssociationMatrix(names=m.names + ["loner"], values=bigger)
    assert density(grown) < density(m)
    assert global_efficiency(grown, "binary") < global_efficiency(m, "binary")
    assert global_efficiency(grown, "weighted") < global_efficiency(m, "weighted")


# ---------------------------------------------------------------------------
# scaling behaviour


def test_dyadic_scale_by_ten_is_bit_stable():
    # weights k/256 scale to 10k/256 without rounding, so every measure
    # that should ignore scale must come out bit-identical
    names = [f"n{k}" for k in range(6)]
    rng = Rng(99)
    dyads = {}
    for i in range(6):
        for j in range(i + 1, 6):
            if rng.random() < 0.7:
                dyads[(names[i], names[j])] = (1 + rng.randrange(25)) / 256.0
    m = matrix_from_dyads(names, dyads)
    scaled = AssociationMatrix(names=names, values=np.array(m.values) * 10.0)
    assert density(scaled) == density(m)
    assert global_efficiency(scaled, "binary") == global_efficiency(m, "binary")
    eig, eig10 = eigenvector_centrality(m), eigenvector_centrality(scaled)
    assert eig == eig10
    for name in names:
        d, s = degree_strength(m)[name]
        d10, s10 = degree_strength(scaled)[name]
        assert d10 == d
        assert s10 == 10.0 * s


@given(st.integers(0, 5000), st.sampled_from([0.25, 2.0, 3.7]))
@settings(max_examples=30, deadline=None)
def test_generic_scaling_behaviour(seed, c):
    m = _random_sparse_matrix(seed, 6)
    values = np.array(m.values)
    assume(values.max() > 0)
    scaled_values = np.minimum(values * c, 1.0) if c > 1.0 else values * c
    assume(np.all(values * c <= 1.0))
    scaled = AssociationMatrix(names=m.names, values=scaled_values)
    assert density(scaled) == density(m)
    assert global_efficiency(scaled, "binary") == global_efficiency(m, "binary")
    assert global_efficiency(scaled, "weighted") == pytest.approx(
        c * global_efficiency(m, "weighted"), rel=1e-9
    )
    eig, eig_c = eigenvector_centrality(m), eigenvector_centrality(scaled)
    for name in m.names:
        assert eig_c[name] == pytest.approx(eig[name], abs=1e-8)
        d, s = degree_strength(m)[name]
        d_c, s_c = degree_strength(scaled)[name]
        assert d_c == d
        assert s_c == pytest.approx(c * s, rel=1e-12)


# ---------------------------------------------------------------------------
# components and reports


def test_connected_components():
    m = matrix_from_dyads(
        ["A", "B", "C", "D", "E"],
        {("A", "B"): 0.5, ("B", "C"): 0.5, ("D", "E"): 0.5},
    )
    assert connected_components(m) == [["A", "B", "C"], ["D", "E"]]


def test_components_of_empty_matrix_are_singletons():
    m = matrix_from_dyads(["A", "B"], {})
    assert connected_components(m) == [["A"], ["B"]]


def test_report_single_edge_of_three():
    m = matrix_from_dyads(["A", "B", "C"], {("A", "B"): 0.4})
    report = network_report(m)
    assert report.density == pytest.approx(1.0 / 3.0, abs=1e-12)
    by_name = {ind.name: ind for ind in report.individuals}
    assert by_name["A"].eigenvector == pytest.approx(1.0, abs=1e-9)
    assert by_name["B"].eigenvector == pytest.approx(1.0, abs=1e-9)
    assert by_name["C"].eigenvector == pytest.approx(0.0, abs=1e-9)
    assert by_name["C"].degree == 0
    assert by_name["C"].strength == 0.0
    assert any("disconnected (2 components, 1 isolated)" in w for w in report.warnings)


def test_report_zero_matrix_warns():
    m = matrix_from_dyads(["A", "B"], {})
    report = network_report(m)
    assert report.density == 0.0
    assert report.global_efficiency_binary == 0.0
    assert report.global_efficiency_weighted == 0.0
    assert all(ind.eigenvector == 0.0 for ind in report.individuals)
    assert report.warnings == [
        "matrix has no positive entries; eigenvector centrality reported as zeros"
    ]


def test_report_individuals_follow_matrix_order(troop_matrix):
    report = network_report(troop_matrix)
    assert [ind.name for ind in report.individuals] == troop_matrix.names


def test_report_agrees_with_pieces(troop_matrix):
    report = network_report(troop_matrix)
    assert report.density == density(troop_matrix)
    assert report.global_efficiency_binary == global_efficiency(troop_matrix, "binary")
    assert report.global_efficiency_weighted == global_efficiency(troop_matrix, "weighted")
    ds = degree_strength(troop_matrix)
    eig = eigenvector_centrality(troop_matrix)
    for ind in report.individuals:
        assert (ind.degree, ind.strength) == ds[ind.name]
        assert ind.eigenvector == eig[ind.name]
    assert report.warnings == []  # the troop graph is connected


def test_network_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: neither the library modules nor the
    # CLI, whose tracker solves its assignments itself, may load it.
    for modules in ("troopnet.bundled, troopnet.network", "troopnet.cli"):
        code = f"import sys, {modules}; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", modules
