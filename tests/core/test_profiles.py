"""Allocation/delivery profile tests (Definitions 1-2, Eqs. 1 and 6)."""

import numpy as np
import pytest

from repro.core.profiles import UNALLOCATED, AllocationProfile, DeliveryProfile
from repro.errors import AllocationError, CoverageError, DeliveryError, StorageViolation

from ..conftest import make_scenario


class TestAllocationProfile:
    def test_empty(self):
        p = AllocationProfile.empty(5)
        assert p.n_users == 5
        assert p.n_allocated == 0
        assert not p.allocated.any()

    def test_users_of_server_and_channel(self):
        p = AllocationProfile(
            np.array([0, 0, 1, UNALLOCATED]), np.array([0, 1, 0, UNALLOCATED])
        )
        assert p.users_of_server(0).tolist() == [0, 1]
        assert p.users_of_channel(0, 1).tolist() == [1]
        assert p.n_allocated == 3

    def test_inconsistent_unallocated_rejected(self):
        with pytest.raises(AllocationError):
            AllocationProfile(np.array([0]), np.array([UNALLOCATED]))

    @pytest.mark.parametrize(
        "server, channel", [([-3, -1], [-3, -1]), ([0, -1], [-2, -1]), ([-2, 0], [0, 0])]
    )
    def test_index_below_unallocated_rejected(self, server, channel):
        """−3 would otherwise gather server N−3's coverage column."""
        with pytest.raises(AllocationError, match=">= -1"):
            AllocationProfile(np.array(server), np.array(channel))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AllocationError):
            AllocationProfile(np.array([0, 1]), np.array([0]))

    @pytest.mark.parametrize(
        "server, channel",
        [
            (np.array([2.7]), np.array([0.9])),  # a cast would read (2, 0)
            (np.array([2]), np.array([0.0])),
            (np.array([True]), np.array([0])),
            (np.array([1]), np.array([False])),
        ],
    )
    def test_non_integer_dtype_rejected(self, server, channel):
        with pytest.raises(AllocationError, match="integer dtype"):
            AllocationProfile(server, channel)

    def test_integer_dtypes_accepted_as_int64_copies(self):
        server = np.array([2], dtype=np.uint8)
        p = AllocationProfile(server, np.array([0], dtype=np.int32))
        assert p.server.dtype == p.channel.dtype == np.int64
        server[0] = 0
        assert p.server.tolist() == [2]

    def test_validate_coverage(self, tiny_scenario):
        p = AllocationProfile.empty(tiny_scenario.n_users)
        p.server[0], p.channel[0] = 0, 0
        p.validate(tiny_scenario)  # full overlap: fine

    def test_validate_rejects_uncovered(self):
        sc = make_scenario(
            [[0.0, 0.0], [10_000.0, 0.0]], [[1.0, 0.0]], radius=100.0
        )
        p = AllocationProfile.empty(1)
        p.server[0], p.channel[0] = 1, 0
        with pytest.raises(CoverageError):
            p.validate(sc)

    def test_validate_rejects_bad_channel(self, tiny_scenario):
        p = AllocationProfile.empty(tiny_scenario.n_users)
        p.server[0], p.channel[0] = 0, 99
        with pytest.raises(AllocationError):
            p.validate(tiny_scenario)

    def test_validate_rejects_bad_server_index(self, tiny_scenario):
        p = AllocationProfile.empty(tiny_scenario.n_users)
        p.server[0], p.channel[0] = 42, 0
        with pytest.raises(AllocationError):
            p.validate(tiny_scenario)

    def test_validate_rejects_wrong_user_count(self, tiny_scenario):
        with pytest.raises(AllocationError):
            AllocationProfile.empty(3).validate(tiny_scenario)

    def test_copy_is_independent(self):
        p = AllocationProfile.empty(2)
        q = p.copy()
        q.server[0], q.channel[0] = 0, 0
        assert p.n_allocated == 0 and q.n_allocated == 1

    def test_equality(self):
        a = AllocationProfile.empty(2)
        b = AllocationProfile.empty(2)
        assert a == b
        b.server[0], b.channel[0] = 0, 0
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(AllocationProfile.empty(1))


class TestDeliveryProfile:
    def test_empty(self):
        p = DeliveryProfile.empty(3, 4)
        assert p.n_servers == 3 and p.n_data == 4 and p.n_replicas == 0

    def test_servers_holding(self):
        p = DeliveryProfile.empty(3, 2)
        p.placed[0, 1] = True
        p.placed[2, 1] = True
        assert p.servers_holding(1).tolist() == [0, 2]
        assert p.servers_holding(0).tolist() == []

    def test_used_and_residual_storage(self, tiny_scenario):
        p = DeliveryProfile.empty(3, 2)
        p.placed[0, 0] = True  # 30 MB
        p.placed[0, 1] = True  # 60 MB
        used = p.used_storage(tiny_scenario.sizes)
        assert used[0] == pytest.approx(90.0)
        res = p.residual_storage(tiny_scenario)
        assert res[0] == pytest.approx(110.0)

    def test_validate_storage(self, tiny_scenario):
        p = DeliveryProfile.empty(3, 2)
        p.placed[:] = True
        p.validate(tiny_scenario)  # 90 <= 200 everywhere

    def test_validate_rejects_overflow(self):
        sc = make_scenario([[0.0, 0.0]], [[1.0, 0.0]], storage=50.0, sizes=(60.0,))
        p = DeliveryProfile.empty(1, 1)
        p.placed[0, 0] = True
        with pytest.raises(StorageViolation):
            p.validate(sc)

    def test_validate_rejects_shape(self, tiny_scenario):
        with pytest.raises(DeliveryError):
            DeliveryProfile.empty(2, 2).validate(tiny_scenario)

    def test_one_dim_rejected(self):
        with pytest.raises(DeliveryError):
            DeliveryProfile(np.zeros(3, dtype=bool))

    def test_copy_and_equality(self):
        p = DeliveryProfile.empty(2, 2)
        q = p.copy()
        assert p == q
        q.placed[0, 0] = True
        assert p != q

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DeliveryProfile.empty(1, 1))
