"""Shared fixtures: the bundled troop matrix and small graph builders."""

from __future__ import annotations

import numpy as np
import pytest

from troopnet import bundled
from troopnet.ingest import AssociationMatrix
from troopnet.network import network_report


@pytest.fixture(scope="session")
def troop_matrix():
    return bundled.load_troop_matrix()


@pytest.fixture(scope="session")
def troop_roster():
    return bundled.load_troop_roster()


@pytest.fixture(scope="session")
def troop_report(troop_matrix):
    return network_report(troop_matrix)


def matrix_from_dyads(names: list[str], dyads: dict[tuple[str, str], float]) -> AssociationMatrix:
    """Build an AssociationMatrix from a sparse {(a, b): weight} map."""
    index = {name: i for i, name in enumerate(names)}
    values = np.zeros((len(names), len(names)))
    for (a, b), w in dyads.items():
        values[index[a], index[b]] = values[index[b], index[a]] = w
    return AssociationMatrix(names=list(names), values=values)
