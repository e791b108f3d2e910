"""Shortest-path tests: the compiled csgraph kernel vs the Dijkstra oracle."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.graph import build_topology
from repro.topology.shortest_path import all_pairs_path_cost

from ..oracles.shortest_path import dijkstra, oracle_all_pairs_path_cost


def path_graph(weights):
    """Dense cost matrix of a path graph with the given edge weights."""
    n = len(weights) + 1
    cost = np.full((n, n), np.inf)
    np.fill_diagonal(cost, 0.0)
    for i, w in enumerate(weights):
        cost[i, i + 1] = cost[i + 1, i] = w
    return cost


class TestDijkstra:
    def test_path_graph(self):
        cost = path_graph([1.0, 2.0, 4.0])
        d = dijkstra(cost, 0)
        assert np.allclose(d, [0.0, 1.0, 3.0, 7.0])

    def test_unreachable_is_inf(self):
        cost = np.full((3, 3), np.inf)
        np.fill_diagonal(cost, 0.0)
        cost[0, 1] = cost[1, 0] = 1.0
        d = dijkstra(cost, 0)
        assert d[1] == 1.0 and np.isinf(d[2])

    def test_picks_cheaper_indirect_route(self):
        cost = np.full((3, 3), np.inf)
        np.fill_diagonal(cost, 0.0)
        cost[0, 2] = cost[2, 0] = 10.0
        cost[0, 1] = cost[1, 0] = 1.0
        cost[1, 2] = cost[2, 1] = 1.0
        assert dijkstra(cost, 0)[2] == pytest.approx(2.0)

    def test_bad_source(self):
        with pytest.raises(TopologyError):
            dijkstra(np.zeros((2, 2)), 5)

    def test_bad_shape(self):
        with pytest.raises(TopologyError):
            dijkstra(np.zeros((2, 3)), 0)


class TestAllPairs:
    def test_matches_reference_on_random_graphs(self):
        for seed in range(5):
            topo = build_topology(15, 2.0, seed)
            cost = topo.adjacency_cost
            fast = all_pairs_path_cost(cost)
            ref = oracle_all_pairs_path_cost(cost)
            assert np.allclose(fast, ref, equal_nan=True)

    def test_symmetric(self):
        topo = build_topology(12, 1.5, 3)
        apc = all_pairs_path_cost(topo.adjacency_cost)
        assert np.allclose(apc, apc.T, equal_nan=True)

    def test_triangle_inequality(self):
        topo = build_topology(10, 3.0, 4)
        d = all_pairs_path_cost(topo.adjacency_cost)
        finite = np.isfinite(d)
        for i in range(10):
            for j in range(10):
                if not finite[i, j]:
                    continue
                via = d[i, :] + d[:, j]
                assert d[i, j] <= np.nanmin(via) + 1e-12

    def test_disconnected_pair_is_inf(self):
        # The raw search leaves an unreachable pair infinite; only the
        # topology's path cost caps it at the cloud fetch (Eq. 8).
        cost = path_graph([1.0])
        cost = np.pad(cost, ((0, 1), (0, 1)), constant_values=np.inf)
        cost[2, 2] = 0.0
        for search in (all_pairs_path_cost, oracle_all_pairs_path_cost):
            d = search(cost)
            assert d[0, 1] == 1.0
            assert np.isinf(d[0, 2]) and np.isinf(d[2, 1])

    def test_bad_shape(self):
        with pytest.raises(TopologyError):
            all_pairs_path_cost(np.zeros((2, 3)))
