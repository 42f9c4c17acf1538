"""Worked-example data shipped with the package.

A 42-individual troop's video co-occurrence association matrix, used by
the documentation and the test suite as a realistic fixture. Loaded
through importlib.resources so the package works from wheels and zip
imports alike.
"""

from __future__ import annotations

from importlib.resources import files

from .ingest import AssociationMatrix, parse_association_matrix

__all__ = ["load_troop_matrix"]


def load_troop_matrix() -> AssociationMatrix:
    """The example troop's simple-ratio association matrix."""
    text = files("troopnet").joinpath("data", "troop_matrix.csv").read_text(encoding="utf-8")
    return parse_association_matrix(text)
