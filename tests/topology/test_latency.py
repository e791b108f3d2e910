"""Delivery latency model tests (Eq. 8 and the latency constraint)."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.latency import DeliveryLatencyModel

from ..conftest import line_topology


class TestPathCost:
    def test_capped_at_cloud(self):
        topo = line_topology(5, speed=3000.0, cloud=600.0)
        model = DeliveryLatencyModel(topo)
        assert (model.path_cost <= model.cloud_cost + 1e-15).all()

    def test_local_is_zero(self):
        model = DeliveryLatencyModel(line_topology(3))
        assert np.allclose(np.diag(model.path_cost), 0.0)

    def test_multi_hop_accumulates(self):
        topo = line_topology(4, speed=3000.0)
        model = DeliveryLatencyModel(topo)
        # 0 -> 2 is two hops at 1/3000 s/MB each.
        assert model.path_cost[0, 2] == pytest.approx(2 / 3000.0)

    def test_disconnected_falls_back_to_cloud(self):
        from repro.topology.graph import EdgeTopology

        topo = EdgeTopology(
            n=3, links=np.array([[0, 1]]), speeds=np.array([3000.0]), cloud_speed=600.0
        )
        model = DeliveryLatencyModel(topo)
        assert model.path_cost[0, 2] == pytest.approx(1 / 600.0)


class TestLatencies:
    @pytest.fixture
    def model(self):
        return DeliveryLatencyModel(line_topology(3, speed=3000.0, cloud=600.0))

    def test_transfer_latency(self, model):
        assert model.transfer_latency(60.0, 0, 1) == pytest.approx(60.0 / 3000.0)

    def test_cloud_latency(self, model):
        assert model.cloud_latency(60.0) == pytest.approx(0.1)

    def test_ms_variants(self, model):
        assert model.cloud_latency_ms(60.0) == pytest.approx(100.0)
        assert model.transfer_latency_ms(30.0, 0, 0) == 0.0

    def test_latency_matrix(self, model):
        mat = model.latency_matrix(90.0)
        assert mat.shape == (3, 3)
        assert mat[0, 1] == pytest.approx(90.0 / 3000.0)

    def test_negative_size_rejected(self, model):
        with pytest.raises(TopologyError):
            model.transfer_latency(-1.0, 0, 1)
        with pytest.raises(TopologyError):
            model.cloud_latency(-1.0)

    def test_bad_index(self, model):
        with pytest.raises(TopologyError):
            model.transfer_latency(1.0, 0, 7)
