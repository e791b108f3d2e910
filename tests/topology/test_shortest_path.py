"""Shortest-path tests: the numpy kernel vs the Dijkstra oracle and csgraph.

The kernel must equal both bit for bit (see the module docstring of
:mod:`repro.topology.shortest_path`), so every comparison here is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path as csgraph_shortest_path

from repro.errors import TopologyError
from repro.topology.graph import build_topology
from repro.topology import shortest_path
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
            assert np.array_equal(fast, ref)

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

    def test_single_server(self):
        assert np.array_equal(all_pairs_path_cost(np.zeros((1, 1))), [[0.0]])

    def test_edgeless_graph(self):
        cost = np.full((4, 4), np.inf)
        np.fill_diagonal(cost, 0.0)
        d = all_pairs_path_cost(cost)
        assert np.array_equal(d, cost)

    def test_disconnected_components(self):
        # Two paths, 0-1-2 and 3-4, with no link between them.
        cost = np.full((5, 5), np.inf)
        np.fill_diagonal(cost, 0.0)
        for a, b, w in ((0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)):
            cost[a, b] = cost[b, a] = w
        d = all_pairs_path_cost(cost)
        assert np.array_equal(d, oracle_all_pairs_path_cost(cost))
        assert d[0, 2] == 3.0 and d[3, 4] == 0.5
        assert np.isinf(d[:3, 3:]).all() and np.isinf(d[3:, :3]).all()

    @pytest.mark.parametrize("bad", [-1.0, np.nan, -np.inf])
    def test_refuses_negative_or_nan_weight(self, bad):
        cost = path_graph([1.0, 2.0])
        cost[0, 1] = cost[1, 0] = bad
        with pytest.raises(TopologyError):
            all_pairs_path_cost(cost)


@st.composite
def weighted_graphs(draw):
    """Symmetric cost matrices: random links, zero diagonal, ``inf`` non-edges.

    Weights are strictly positive (csgraph reads a dense 0 as a missing
    edge), drawn as arbitrary floats or, to make equal-cost paths common,
    as whole numbers or powers of two.
    """
    n = draw(st.integers(1, 12))
    weights = draw(
        st.sampled_from(
            [
                st.floats(1e-3, 1e3),
                st.integers(1, 4).map(float),
                st.integers(-3, 3).map(lambda e: 2.0**e),
            ]
        )
    )
    cost = np.full((n, n), np.inf)
    np.fill_diagonal(cost, 0.0)
    if n > 1:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
            cost[a, b] = cost[b, a] = draw(weights)
    return cost


class TestBitwise:
    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_equals_oracle_and_csgraph(self, cost):
        d = all_pairs_path_cost(cost)
        assert np.array_equal(d, oracle_all_pairs_path_cost(cost))
        assert np.array_equal(d, csgraph_shortest_path(cost, method="D", directed=False))

    @pytest.mark.parametrize("n", [5, 30, 125])
    def test_equals_csgraph_on_built_topologies(self, n):
        for seed in range(3):
            cost = build_topology(n, 2.0, seed).adjacency_cost
            d = all_pairs_path_cost(cost)
            assert np.array_equal(d, csgraph_shortest_path(cost, method="D", directed=False))

    @pytest.mark.parametrize("seed", range(3))
    def test_blocked_sources_equal_one_block(self, seed, monkeypatch):
        # Dense graphs relax a few sources at a time; with no float budget
        # beyond n², a near-complete graph relaxes one source per block.
        rng = np.random.default_rng(seed)
        n = 20
        weight = rng.uniform(0.1, 10.0, size=(n, n))
        weight[rng.random((n, n)) < 0.3] = np.inf
        cost = np.minimum(weight, weight.T)
        np.fill_diagonal(cost, 0.0)
        whole = all_pairs_path_cost(cost)
        monkeypatch.setattr(shortest_path, "_RELAX_BLOCK_FLOATS", 0)
        blocked = all_pairs_path_cost(cost)
        assert np.array_equal(blocked, whole)
        assert np.array_equal(blocked, oracle_all_pairs_path_cost(cost))
