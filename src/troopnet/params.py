"""Settings of the matrix stages, the error their iteration raises, and
their two-individual rule.

These live apart from :mod:`troopnet.network` and :mod:`troopnet.layout`,
which re-export them, because those modules import numpy: the CLI builds
its configuration, checks a roster and maps ConvergenceError to its exit
code from here, so the commands that never touch a matrix start on the
standard library alone, and pipeline starts its worker processes before
numpy loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["GemParams", "NetworkParams", "ConvergenceError", "require_pairs"]


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
