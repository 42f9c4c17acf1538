"""Settings of the matrix stages, the error their iteration raises, their
two-individual rule and the vertex count from which they use numpy.

These live apart from :mod:`troopnet.network` and :mod:`troopnet.layout`,
which re-export them, so that the CLI can build its configuration, check a
roster and map ConvergenceError to its exit code before it imports either.
Neither imports numpy unless a graph has NUMPY_MIN_N vertices or more, so
network, layout and pipeline on a smaller graph run on the standard library
alone, and pipeline forks its worker processes before numpy could load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["GemParams", "NetworkParams", "ConvergenceError", "require_pairs"]

# Graphs of at least this many vertices take the two numpy kernels, smaller
# ones their plain-Python twins, which give the same bits: GEM's visit
# (layout._vector_visit against _scalar_visit) and the all-pairs shortest
# paths (network._distances against a heap Dijkstra per source). numpy's
# fixed cost, about 7 us a GEM visit, outweighs the loop's O(n) work below
# about 30 vertices on dense graphs and 48 on sparse ones, so GEM's line
# sits at the sparse crossover and no graph is slower for taking the numpy
# visit (CHANGES.md has the measured table, in the entry on the unmasked
# numpy GEM visit). The shortest paths share the line because from it on GEM
# loads numpy anyway: below it no stage does, and the heap Dijkstra, though
# slower than the dense one once numpy is loaded (10 against 2 ms for both
# modes at 47 vertices and density 0.9), costs far less than numpy's import.
NUMPY_MIN_N = 48


@dataclass(frozen=True)
class GemParams:
    """GEM layout settings. desired_edge_length lies in [2**-400, 2**400]:
    there its square, and that square times squared distances and degrees,
    stay normal floats, so scaling it by a power of two scales the layout
    exactly. Far outside, the square underflows to 0 or overflows to inf.
    """

    desired_edge_length: float = 128.0
    max_rounds_factor: int = 6
    stop_temperature_fraction: float = 1.0 / 50.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise ValueError(f"{f.name} must be positive and finite, got {value}")
        if not 2.0**-400 <= self.desired_edge_length <= 2.0**400:
            raise ValueError(
                f"desired_edge_length must lie in [2**-400, 2**400], got {self.desired_edge_length}"
            )


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


def require_pairs(n: int, what: str) -> None:
    """The measures are over pairs: fewer than 2 individuals is an error."""
    if n < 2:
        raise ValueError(f"{what} needs at least 2 individuals, got {n}")
