"""Network measures over an association matrix.

Density, degree, strength, eigenvector centrality and global efficiency,
assembled into a NetworkReport. All accumulation uses math.fsum, which is
exactly rounded, so results do not depend on summation order, BLAS builds
or platform.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from .ingest import AssociationMatrix

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


@dataclass(frozen=True)
class NetworkParams:
    """Eigenvector power iteration: converged once a step moves every entry
    by less than tol, a ConvergenceError after max_iter steps."""

    tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


class ConvergenceError(RuntimeError):
    """Iterative computation failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _require_pairs(m: AssociationMatrix, what: str) -> None:
    if m.n < 2:
        raise ValueError(f"{what} needs at least 2 individuals, got {m.n}")


def density(m: AssociationMatrix) -> float:
    """Fraction of unordered pairs with a positive association index."""
    _require_pairs(m, "density")
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

    Raises ConvergenceError (carrying the last step size) when
    params.max_iter is exceeded, and ValueError when the matrix has no
    positive entry.
    """
    top = max((w for row in m.edges for _j, w in row), default=0.0)
    if top <= 0.0:
        raise ValueError("eigenvector centrality needs at least one positive entry")
    rows = [[(j, w / top) for j, w in row] for row in m.edges]
    v = [1.0] * m.n
    diff = math.inf
    for _ in range(params.max_iter):
        nxt = [math.fsum(w * v[j] for j, w in row) + v[i] for i, row in enumerate(rows)]
        peak = max(nxt)
        if peak <= 0.0:
            raise ConvergenceError("power iteration collapsed to the zero vector", math.inf)
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


def global_efficiency(m: AssociationMatrix, mode: str = "binary") -> float:
    """Mean inverse shortest-path distance over ordered pairs, with 1/inf = 0.

    binary mode uses hop counts over positive edges (breadth-first search);
    weighted mode uses nonnegative-weight shortest paths with edge length
    1/index, so strong associations are short.
    """
    _require_pairs(m, "global efficiency")
    if mode not in ("binary", "weighted"):
        raise ValueError(f"mode must be 'binary' or 'weighted', got {mode!r}")
    n = m.n
    adj = m.edges
    contributions: list[float] = []
    if mode == "binary":
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
            contributions.extend(1.0 / dist[j] for j in range(n) if j != src and dist[j] > 0)
    else:
        lengths = [[(vtx, 1.0 / w) for vtx, w in row] for row in adj]
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
            contributions.extend(1.0 / dist[j] for j in range(n) if j != src and dist[j] < math.inf)
    return math.fsum(contributions) / (n * (n - 1))


def connected_components(m: AssociationMatrix) -> list[list[str]]:
    """Vertex components over positive edges, in matrix order."""
    adj = m.edges
    seen = [False] * m.n
    components = []
    for start in range(m.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for vtx, _w in adj[u]:
                if not seen[vtx]:
                    seen[vtx] = True
                    stack.append(vtx)
        components.append(sorted(comp))
    return [[m.names[i] for i in comp] for comp in components]


def network_report(m: AssociationMatrix, params: NetworkParams = NetworkParams()) -> NetworkReport:
    """Assemble all measures; individual order equals matrix order.

    A matrix with no positive entries yields all-zero eigenvector values
    with a warning instead of an error; a disconnected graph is flagged
    because eigenvector centrality then reflects only the dominant
    component.
    """
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
