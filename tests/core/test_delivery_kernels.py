"""The lazy delivery kernel against the per-item oracle.

The lazy heap-driven loop claims bit-for-bit equivalence with the
literal Algorithm 1 sweep (``tests/oracles/delivery.py``) — identical
placement sequence, identical floats, identical tracer observables — so
every comparison here is exact equality, never a tolerance (the
``tests/oracles/test_parity.py`` discipline).
"""

import numpy as np
import pytest

from repro.config import DeliveryConfig
from repro.core.delivery import (
    _GainTable,
    attached_request_counts,
    greedy_delivery,
)
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.core.profiles import AllocationProfile
from repro.obs.tracer import RecordingTracer

from ..oracles.delivery import oracle_delivery

SEEDS = (0, 1, 2, 3)

CONFIGS = [
    DeliveryConfig(ratio_rule=True),
    DeliveryConfig(ratio_rule=True, min_gain_s_per_mb=0.01),
    DeliveryConfig(ratio_rule=False),
    DeliveryConfig(ratio_rule=False, min_gain_s=1.0),
]


def _small(seed: int) -> tuple[IDDEInstance, AllocationProfile]:
    instance = IDDEInstance.generate(n=8, m=30, k=4, density=1.5, seed=seed)
    alloc = IddeUGame(instance).run(rng=seed).profile
    return instance, alloc


def _run_pair(instance, alloc, cfg, tracer_ref=None, tracer_bat=None):
    ref = oracle_delivery(instance, alloc, cfg, tracer=tracer_ref)
    bat = greedy_delivery(instance, alloc, cfg, tracer=tracer_bat)
    return ref, bat


def _assert_identical(ref, bat):
    assert ref.placements == bat.placements
    assert ref.total_gain_s == bat.total_gain_s  # bitwise, not approx
    assert ref.iterations == bat.iterations
    assert np.array_equal(ref.profile.placed, bat.profile.placed)


def _delivery_trace(tracer: RecordingTracer):
    """What a traced call records, minus the lazy loop's own
    ``delivery.reselects``: the ``delivery.greedy`` span's attributes and
    the counters the oracle also keeps.  Neither side emits an event."""
    assert not tracer.events
    (attrs,) = [s.attrs for s in tracer.spans if s.name == "delivery.greedy"]
    counters = {
        name: tracer.counters.get(name)
        for name in ("delivery.placements", "delivery.threshold_rejects")
    }
    return attrs, counters


class TestKernelParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: (
        f"{'ratio' if c.ratio_rule else 'abs'}-t{c.min_gain_s_per_mb if c.ratio_rule else c.min_gain_s:g}"
    ))
    def test_identical_on_generated_instances(self, seed, cfg):
        instance, alloc = _small(seed)
        ref, bat = _run_pair(instance, alloc, cfg)
        _assert_identical(ref, bat)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_traced_observables_identical(self, seed):
        """The span's placement count, total gain and terminal rejections,
        and the placement and threshold-reject counters, match exactly."""
        instance, alloc = _small(seed)
        for cfg in CONFIGS:
            tr_ref, tr_bat = RecordingTracer(), RecordingTracer()
            ref, bat = _run_pair(instance, alloc, cfg, tr_ref, tr_bat)
            _assert_identical(ref, bat)
            assert _delivery_trace(tr_ref) == _delivery_trace(tr_bat)

    def test_parity_on_line_fixture(self, line_instance):
        alloc = AllocationProfile.empty(line_instance.n_users)
        for j in range(line_instance.n_users):
            alloc.server[j] = int(line_instance.scenario.covering_servers[j][0])
            alloc.channel[j] = 0
        for cfg in CONFIGS:
            ref, bat = _run_pair(line_instance, alloc, cfg)
            _assert_identical(ref, bat)

    def test_span_records_shape(self, line_instance):
        alloc = AllocationProfile.empty(line_instance.n_users)
        tracer = RecordingTracer()
        greedy_delivery(line_instance, alloc, DeliveryConfig(), tracer=tracer)
        spans = [s for s in tracer.spans if s.name == "delivery.greedy"]
        assert spans
        assert spans[0].attrs["items"] == line_instance.n_data
        assert "kernel" not in spans[0].attrs

    def test_bad_kernel_rejected(self):
        """Delivery has one kernel: there is no field to select another."""
        with pytest.raises(TypeError):
            DeliveryConfig(kernel="batched")


class TestTieBreaks:
    """Explicit argmax tie-break parity: equal scores must resolve to the
    lowest server index within an item and the lowest item index across
    items — in kernel and oracle alike."""

    @pytest.fixture
    def symmetric(self):
        from ..conftest import make_instance, make_scenario

        # Two disconnected servers, each covering two users; every user
        # requests both (equal-sized) items, so every candidate scores
        # exactly the same float and only the tie-break picks the winner.
        rng = np.random.default_rng(0)
        server_xy = [[0.0, 0.0], [5000.0, 0.0]]
        user_xy = np.concatenate(
            [
                rng.uniform(-50, 50, size=(2, 2)),
                rng.uniform(-50, 50, size=(2, 2)) + [5000.0, 0.0],
            ]
        )
        requests = np.ones((4, 2), dtype=bool)
        sc = make_scenario(
            server_xy, user_xy, radius=300.0, storage=200.0,
            sizes=(30.0, 30.0), requests=requests,
        )
        inst = make_instance(sc, density=0.0)
        alloc = AllocationProfile.empty(4)
        alloc.server[:] = [0, 0, 1, 1]
        alloc.channel[:] = [0, 1, 0, 1]
        return inst, alloc

    @pytest.mark.parametrize("ratio_rule", [True, False])
    def test_lowest_server_then_lowest_item_wins(self, symmetric, ratio_rule):
        inst, alloc = symmetric
        cfg = DeliveryConfig(ratio_rule=ratio_rule)
        ref, bat = _run_pair(inst, alloc, cfg)
        _assert_identical(ref, bat)
        # With no links, each placement only helps its own server's users,
        # so the four candidates stay tied until placed: the oracle's scan
        # order (lowest server within an item, first item across items)
        # must be reproduced exactly.
        assert ref.placements == [(0, 0), (1, 0), (0, 1), (1, 1)]


def _tie_heavy(seed: int) -> tuple[IDDEInstance, AllocationProfile, np.ndarray]:
    """Integer sizes, path costs and counts, so many scores tie exactly.

    Six cells on a ring whose links cost 1 or 2 s/MB (the cloud 4 s/MB),
    four users per cell attached to it, eight items of 1–4 MB and 3–8 MB
    of storage per server: every gain is a whole number of seconds.  Also
    returns CDP-style integer weights (each item's popularity in every
    cell), under which every cell of an item ties.
    """
    from repro.topology.graph import EdgeTopology

    from ..conftest import make_scenario

    rng = np.random.default_rng(seed)
    n, per, k = 6, 4, 8
    server_xy = np.column_stack([1000.0 * np.arange(n), np.zeros(n)])
    user_xy = np.repeat(server_xy, per, axis=0) + rng.uniform(-50, 50, (n * per, 2))
    sc = make_scenario(
        server_xy,
        user_xy,
        radius=150.0,
        storage=rng.integers(3, 9, size=n).astype(float),
        sizes=tuple(rng.integers(1, 5, size=k).astype(float)),
        requests=rng.random((n * per, k)) < 0.5,
    )
    ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    topo = EdgeTopology(
        n=n, links=ring, speeds=rng.choice([1.0, 0.5], size=n), cloud_speed=0.25
    )
    instance = IDDEInstance(sc, topo)
    pc = instance.latency_model.path_cost
    assert np.array_equal(pc, np.round(pc))  # whole seconds per MB
    alloc = AllocationProfile.empty(n * per)
    alloc.server[:] = np.repeat(np.arange(n), per)
    alloc.channel[:] = 0
    popularity = sc.requests.sum(axis=0).astype(float)
    return instance, alloc, np.tile(popularity[:, None], (1, n))


TIE_CONFIGS = CONFIGS + [
    DeliveryConfig(ratio_rule=True, min_gain_s_per_mb=1.0),
    DeliveryConfig(ratio_rule=False, min_gain_s=2.0),
]


class TestTieHeavyParity:
    """Exact parity where ties are the rule, not the exception: equal
    scores across servers, items and the stopping threshold must resolve
    as the oracle's scan does, with or without a tracer and CDP weights."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("demand", ["attached", "cdp"])
    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_identical_under_ties(self, seed, demand, traced):
        instance, alloc, cdp = _tie_heavy(seed)
        weights = cdp if demand == "cdp" else None
        gains = _first_sweep_gains(instance, alloc, weights)
        assert len(set(gains)) < len(gains), "the fixture produced no ties"
        for cfg in TIE_CONFIGS:
            tr_ref = RecordingTracer() if traced else None
            tr_bat = RecordingTracer() if traced else None
            ref = oracle_delivery(instance, alloc, cfg, weights=weights, tracer=tr_ref)
            bat = greedy_delivery(instance, alloc, cfg, weights=weights, tracer=tr_bat)
            _assert_identical(ref, bat)
            if traced:
                assert _delivery_trace(tr_ref) == _delivery_trace(tr_bat)
            assert ref.placements


def _first_sweep_gains(instance, alloc, weights) -> list[float]:
    """Every positive first-sweep gain: ties among them are the point."""
    sizes = instance.scenario.sizes
    pc = instance.latency_model.path_cost
    counts = attached_request_counts(instance, alloc) if weights is None else weights
    best = np.tile(instance.latency_model.cloud_cost * sizes[:, None], (1, instance.n_servers))
    gains = _GainTable(best, sizes, pc, counts).gains
    return gains[gains > 0.0].tolist()


class TestIncrementalInvariant:
    """Property: after every placement, the incrementally-maintained gain
    table is bitwise equal to a from-scratch rebuild (the incremental
    loop's correctness invariant)."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("ratio_rule", [True, False])
    def test_refresh_matches_rebuild(self, seed, ratio_rule):
        instance, alloc = _small(seed)
        result = greedy_delivery(
            instance, alloc, DeliveryConfig(ratio_rule=ratio_rule)
        )
        assert result.placements  # the property must be exercised

        sizes = instance.scenario.sizes
        pc = instance.latency_model.path_cost
        cloud = instance.latency_model.cloud_cost
        counts = attached_request_counts(instance, alloc)
        best = np.tile(cloud * sizes[:, None], (1, instance.n_servers))
        table = _GainTable(best, sizes, pc, counts)
        for i, kk in result.placements:
            best[kk] = np.minimum(best[kk], sizes[kk] * pc[i, :])
            table.refresh_row(kk)
            fresh = _GainTable(best.copy(), sizes, pc, counts)
            assert np.array_equal(table.gains, fresh.gains)  # bitwise

    def test_tiled_build_matches_reference_matvec(self, monkeypatch):
        """Forcing a one-row tile exercises the K-block loop; every row of
        the build must equal the oracle's per-item matvec bitwise."""
        import repro.core.delivery as delivery_mod

        instance, alloc = _small(0)
        sizes = instance.scenario.sizes
        pc = instance.latency_model.path_cost
        cloud = instance.latency_model.cloud_cost
        counts = attached_request_counts(instance, alloc)
        best = np.tile(cloud * sizes[:, None], (1, instance.n_servers))

        monkeypatch.setattr(delivery_mod, "_GAIN_TILE_BYTES", 1)
        tiled = _GainTable(best, sizes, pc, counts).gains
        for kk in range(instance.n_data):
            expected = np.maximum(best[kk][None, :] - sizes[kk] * pc, 0.0) @ counts[kk]
            assert np.array_equal(tiled[kk], expected)

    def test_tile_size_does_not_change_placements(self, monkeypatch):
        import repro.core.delivery as delivery_mod

        instance, alloc = _small(1)
        wide = greedy_delivery(instance, alloc, DeliveryConfig())
        monkeypatch.setattr(delivery_mod, "_GAIN_TILE_BYTES", 1)
        narrow = greedy_delivery(instance, alloc, DeliveryConfig())
        _assert_identical(wide, narrow)


class TestCountsDtype:
    def test_float64_whole_numbers(self, line_instance):
        alloc = AllocationProfile.empty(line_instance.n_users)
        for j in range(line_instance.n_users):
            alloc.server[j] = int(line_instance.scenario.covering_servers[j][0])
            alloc.channel[j] = 0
        counts = attached_request_counts(line_instance, alloc)
        assert counts.dtype == np.float64
        assert np.array_equal(counts, np.round(counts))  # still whole counts
