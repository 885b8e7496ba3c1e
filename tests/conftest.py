import numpy as np
import pytest

from lpeval import Snapshot


def random_graph(rng, n=None, p=None):
    """Random undirected graph with unit-ish random weights."""
    if n is None:
        n = int(rng.integers(4, 31))
    if p is None:
        p = float(rng.uniform(0.08, 0.35))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.2, 3.0))))
    if not edges:
        edges = [(0, 1, 1.0)]
    return Snapshot.from_edges(edges, n=n), edges, n


def assert_same_ranking(got, want):
    """Every array of the Ranking ``got`` equals ``want``'s; the scores by
    value, so a group of -0.0 and 0.0 may keep either."""
    for attr in ("pos", "neg", "tp", "fp", "bounds"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)
    assert (got.distances is None) == (want.distances is None)
    if want.distances is not None:
        assert np.array_equal(got.distances, want.distances)
    assert got.scores.tolist() == want.scores.tolist()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
