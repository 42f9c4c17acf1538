"""Network measures over an association matrix.

Density, degree, strength, eigenvector centrality and global efficiency,
assembled into a NetworkReport. All accumulation uses math.fsum, which is
exactly rounded, so results do not depend on summation order, BLAS builds
or platform.

Shortest paths are exact. Below NUMPY_MIN_N vertices a heap Dijkstra runs
from each source in plain Python; from it on, one dense Dijkstra runs from
all sources at once on n x n numpy arrays. Both add d + l, so the dense one
reaches the heap's bits (_distances has the proof). Weighted distances use
l = 1/w; hop counts use l = 1, whose sums are exact integers. numpy is
imported only on that dense path.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .ingest import AssociationMatrix
from .params import NUMPY_MIN_N, ConvergenceError, NetworkParams, require_pairs

__all__ = [
    "IndividualMeasures",
    "NetworkReport",
    "NetworkParams",
    "ConvergenceError",
    "density",
    "degree_strength",
    "eigenvector_centrality",
    "eigenvector_residual",
    "global_efficiency",
    "connected_components",
    "network_report",
    "require_pairs",
]


@dataclass
class IndividualMeasures:
    name: str
    degree: int
    strength: float
    eigenvector: float


@dataclass
class NetworkReport:
    density: float
    global_efficiency_binary: float
    global_efficiency_weighted: float
    individuals: list[IndividualMeasures]
    warnings: list[str] = field(default_factory=list)


def density(m: AssociationMatrix) -> float:
    """Fraction of unordered pairs with a positive association index."""
    n = m.n
    positive = sum(1 for i, row in enumerate(m.edges) for j, _w in row if j > i)
    return positive / (n * (n - 1) / 2)


def degree_strength(m: AssociationMatrix) -> dict[str, tuple[int, float]]:
    """Per-individual (degree, strength): partner count and row sum."""
    return {
        name: (len(row), math.fsum(w for _j, w in row)) for name, row in zip(m.names, m.edges)
    }


def eigenvector_centrality(m: AssociationMatrix, params: NetworkParams = NetworkParams()) -> dict[str, float]:
    """Dominant-eigenvector centrality of the weighted matrix.

    Power iteration from the uniform positive vector, renormalized by the
    maximum entry each step, stopping when successive iterates differ by
    less than params.tol in max-norm; the result is scaled so that the
    maximum entry is exactly 1. The matrix is pre-divided by its largest
    entry, which leaves the eigenvector unchanged and makes the iteration
    invariant under exact rescaling of the weights. Iterating on M + I
    rather than M keeps the same eigenvectors while shifting every
    eigenvalue up by one, so the top one strictly dominates in magnitude
    even on bipartite graphs (a zero-diagonal star, say, where M alone has
    a matching negative eigenvalue and the iteration would oscillate).

    The matrix has a positive entry: network_report calls this only then.
    Raises ConvergenceError (carrying the last step size) when
    params.max_iter is exceeded.
    """
    top = max(w for row in m.edges for _j, w in row)
    rows = [[(j, w / top) for j, w in row] for row in m.edges]
    v = [1.0] * m.n
    diff = math.inf
    for _ in range(params.max_iter):
        nxt = [math.fsum(w * v[j] for j, w in row) + v[i] for i, row in enumerate(rows)]
        peak = max(nxt)  # at least 1: no entry of nxt is below v's, whose peak is 1
        nxt = [x / peak for x in nxt]
        diff = max(abs(a - b) for a, b in zip(nxt, v))
        v = nxt
        if diff < params.tol:
            return dict(zip(m.names, v))
    raise ConvergenceError(
        f"power iteration did not converge within {params.max_iter} iterations (last step {diff:.3e})",
        diff,
    )


def eigenvector_residual(m: AssociationMatrix, centrality: dict[str, float]) -> float:
    """Max-norm residual ||Mv - lambda*v|| with lambda the Rayleigh quotient."""
    v = [centrality[name] for name in m.names]
    mv = [math.fsum(w * v[j] for j, w in row) for row in m.edges]
    vv = math.fsum(x * x for x in v)
    if vv == 0.0:
        return 0.0
    lam = math.fsum(v[i] * mv[i] for i in range(m.n)) / vv
    return max(abs(mv[i] - lam * v[i]) for i in range(m.n))


def _heap_distances(lengths: list[list[tuple[int, float]]], src: int) -> list[float]:
    """Shortest-path lengths from src by a heap Dijkstra, inf where
    unreachable, given each vertex's (partner, length) list."""
    dist = [math.inf] * len(lengths)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, length in lengths[u]:
            nd = d + length
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _distances(lengths):
    """Shortest-path lengths from every source (row), given the n x n numpy
    array of edge lengths (inf off the edges), inf where unreachable:
    Dijkstra run for all sources at once on dense arrays, n steps of n x n
    work whatever the graph's diameter.

    Each step every source closes its open vertex of least label and relaxes
    with that vertex's row of lengths, d + l (which cannot lower a closed
    label). fl(d + l) is monotone in d and at least d for l >= 0, so
    label-setting settles each vertex at the least left-folded path sum
    whatever the order of ties: the same bits as _heap_distances per source,
    and exact hop counts at unit lengths. Row u, not column u, holds u's
    out-lengths, as the matrix is symmetric only within 1e-12.
    """
    import numpy as np

    n = len(lengths)
    dist = np.where(np.eye(n, dtype=bool), 0.0, math.inf)
    closed = np.zeros((n, n))  # inf once a source has closed the vertex
    sources = np.arange(n)
    for _ in range(n):  # each step closes one vertex per source
        labels = dist + closed
        u = labels.argmin(axis=1)
        d_u = labels[sources, u]
        if d_u.min() == math.inf:
            break
        closed[sources, u] = math.inf
        np.minimum(dist, d_u[:, None] + lengths[u], out=dist)
    return dist


def global_efficiency(m: AssociationMatrix, mode: str = "binary") -> float:
    """Mean inverse shortest-path distance over ordered pairs, with 1/inf = 0.

    binary mode uses hop counts over positive edges (length 1 each); weighted
    mode uses nonnegative-weight shortest paths with edge length 1/index, so
    strong associations are short (1/w may overflow to inf, no edge at all).
    m has at least 2 individuals, as network_report requires.
    """
    n = m.n
    if n < NUMPY_MIN_N:
        lengths = [[(j, 1.0 if mode == "binary" else 1.0 / w) for j, w in row] for row in m.edges]
        inverses = [
            1.0 / d
            for src in range(n)
            for j, d in enumerate(_heap_distances(lengths, src))
            if j != src and d < math.inf
        ]
    else:
        import numpy as np

        values = np.array(m.values)
        if mode == "binary":
            lengths = np.where(values > 0.0, 1.0, math.inf)
        else:
            with np.errstate(divide="ignore", over="ignore"):
                lengths = 1.0 / values  # inf off the edges, and where 1/w overflows
        dist = _distances(lengths)
        reachable = np.isfinite(dist) & ~np.eye(n, dtype=bool)
        inverses = (1.0 / dist[reachable]).tolist()
    return math.fsum(inverses) / (n * (n - 1))


def connected_components(m: AssociationMatrix) -> list[list[str]]:
    """Vertex components over positive edges, in matrix order: a depth-first
    search along each row's edges from every vertex not yet seen."""
    seen = [False] * m.n
    components = []
    for start in range(m.n):
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v, _w in m.edges[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append([m.names[v] for v in sorted(comp)])
    return components


def network_report(m: AssociationMatrix, params: NetworkParams = NetworkParams()) -> NetworkReport:
    """Assemble all measures; individual order equals matrix order.

    The measures are over pairs, so a matrix of fewer than 2 individuals
    raises ValueError. A matrix with no positive entries yields all-zero
    eigenvector values with a warning instead of an error; a disconnected
    graph is flagged because eigenvector centrality then reflects only the
    dominant component.
    """
    require_pairs(m.n, "network report")
    warnings: list[str] = []
    ds = degree_strength(m)
    if not any(deg for deg, _s in ds.values()):
        eig = {name: 0.0 for name in m.names}
        warnings.append("matrix has no positive entries; eigenvector centrality reported as zeros")
    else:
        eig = eigenvector_centrality(m, params)
        components = connected_components(m)
        if len(components) > 1:
            isolated = sum(1 for comp in components if len(comp) == 1)
            warnings.append(
                f"graph is disconnected ({len(components)} components, {isolated} isolated); "
                "eigenvector centrality reflects the dominant component"
            )
    individuals = [
        IndividualMeasures(name=name, degree=ds[name][0], strength=ds[name][1], eigenvector=eig[name])
        for name in m.names
    ]
    return NetworkReport(
        density=density(m),
        global_efficiency_binary=global_efficiency(m, "binary"),
        global_efficiency_weighted=global_efficiency(m, "weighted"),
        individuals=individuals,
        warnings=warnings,
    )
