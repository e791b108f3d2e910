"""Phase 2 greedy delivery tests (Algorithm 1 lines 22-26, Eq. 17)."""

import numpy as np
import pytest

from repro.config import DeliveryConfig
from repro.core.delivery import attached_request_counts, greedy_delivery
from repro.core.game import IddeUGame
from repro.core.objectives import average_delivery_latency_ms
from repro.core.profiles import AllocationProfile, DeliveryProfile
from repro.errors import DeliveryError, SolverError


@pytest.fixture
def line_alloc(line_instance):
    """Users attached to their (unique) covering server."""
    alloc = AllocationProfile.empty(line_instance.n_users)
    for j in range(line_instance.n_users):
        cov = line_instance.scenario.covering_servers[j]
        alloc.server[j] = int(cov[0])
        alloc.channel[j] = 0
    return alloc


class TestAttachedCounts:
    def test_counts(self, line_instance, line_alloc):
        counts = attached_request_counts(line_instance, line_alloc)
        assert counts.shape == (3, 4)
        # 2 users per server, item j % 3.
        assert counts.sum() == line_instance.scenario.requests.sum()

    def test_unallocated_excluded(self, line_instance):
        alloc = AllocationProfile.empty(line_instance.n_users)
        counts = attached_request_counts(line_instance, alloc)
        assert counts.sum() == 0


class TestGreedy:
    def test_respects_storage(self, line_instance, line_alloc):
        result = greedy_delivery(line_instance, line_alloc)
        result.profile.validate(line_instance.scenario)

    def test_reduces_latency(self, line_instance, line_alloc):
        empty = DeliveryProfile.empty(4, 3)
        before = average_delivery_latency_ms(line_instance, line_alloc, empty)
        result = greedy_delivery(line_instance, line_alloc)
        after = average_delivery_latency_ms(line_instance, line_alloc, result.profile)
        assert after < before

    def test_placements_monotone_improve(self, line_instance, line_alloc):
        """Replaying the greedy's placement sequence never increases L_avg."""
        result = greedy_delivery(line_instance, line_alloc)
        profile = DeliveryProfile.empty(4, 3)
        last = average_delivery_latency_ms(line_instance, line_alloc, profile)
        for i, k in result.placements:
            profile.placed[i, k] = True
            cur = average_delivery_latency_ms(line_instance, line_alloc, profile)
            assert cur <= last + 1e-9
            last = cur

    def test_no_useless_replicas(self, line_instance, line_alloc):
        """Every placement the greedy makes strictly reduced latency."""
        result = greedy_delivery(line_instance, line_alloc)
        profile = DeliveryProfile.empty(4, 3)
        last = average_delivery_latency_ms(line_instance, line_alloc, profile)
        for i, k in result.placements:
            profile.placed[i, k] = True
            cur = average_delivery_latency_ms(line_instance, line_alloc, profile)
            assert cur < last - 1e-12
            last = cur

    def test_empty_alloc_places_nothing(self, line_instance):
        alloc = AllocationProfile.empty(line_instance.n_users)
        result = greedy_delivery(line_instance, alloc)
        assert result.profile.n_replicas == 0

    def test_gain_accounting(self, line_instance, line_alloc):
        result = greedy_delivery(line_instance, line_alloc)
        empty = DeliveryProfile.empty(4, 3)
        before = average_delivery_latency_ms(line_instance, line_alloc, empty)
        after = average_delivery_latency_ms(line_instance, line_alloc, result.profile)
        total_requests = line_instance.scenario.requests.sum()
        # total_gain_s is the sum over requests; convert to the average.
        assert (before - after) == pytest.approx(
            1000.0 * result.total_gain_s / total_requests, rel=1e-9
        )

    def test_zero_storage_places_nothing(self, line_instance, line_alloc):
        from ..conftest import make_scenario
        from repro.core.instance import IDDEInstance

        sc = line_instance.scenario
        tight = make_scenario(
            sc.server_xy,
            sc.user_xy,
            radius=150.0,
            storage=0.0,
            sizes=tuple(sc.sizes),
            requests=sc.requests,
        )
        inst = IDDEInstance(tight, line_instance.topology)
        result = greedy_delivery(inst, line_alloc)
        assert result.profile.n_replicas == 0

    def test_weights_override(self, line_instance, line_alloc):
        weights = np.zeros((3, 4))
        weights[0, 0] = 5.0  # only item 0 at server 0 is worth anything
        result = greedy_delivery(line_instance, line_alloc, weights=weights)
        assert result.profile.placed[0, 0]
        # No weight elsewhere: item 1/2 replicas only placed if they reduce
        # the weighted objective, which they cannot.
        assert result.profile.placed[:, 1:].sum() == 0

    def test_weights_shape_checked(self, line_instance, line_alloc):
        with pytest.raises(ValueError):
            greedy_delivery(line_instance, line_alloc, weights=np.zeros((2, 2)))
        with pytest.raises(DeliveryError, match=r"\(K, N\)"):
            greedy_delivery(line_instance, line_alloc, weights=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_weights_must_be_finite_and_non_negative(
        self, line_instance, line_alloc, bad
    ):
        """Lazy selection relies on gains that never rise, which only
        finite, non-negative demand guarantees: anything else is refused
        rather than silently placing nothing."""
        weights = np.ones((3, 4))
        weights[1, 2] = bad
        with pytest.raises(DeliveryError, match="finite and non-negative"):
            greedy_delivery(line_instance, line_alloc, weights=weights)

    def test_negative_zero_weight_accepted(self, line_instance, line_alloc):
        weights = np.ones((3, 4))
        weights[0, 0] = -0.0
        assert greedy_delivery(line_instance, line_alloc, weights=weights).placements


class TestLazyBound:
    """The heap's keys are upper bounds only while no gain rises; a
    re-score above the bound it was popped with is refused."""

    def test_rising_gain_raises_solver_error(
        self, line_instance, line_alloc, monkeypatch
    ):
        from repro.core import delivery as delivery_mod

        refresh = delivery_mod._GainTable.refresh_row

        def inflate(self, kk):
            refresh(self, kk)
            self.gains[kk] += 1.0

        monkeypatch.setattr(delivery_mod._GainTable, "refresh_row", inflate)
        with pytest.raises(SolverError, match="above its bound"):
            greedy_delivery(line_instance, line_alloc)

    def test_reselects_counted_once_per_call(self, line_instance, line_alloc):
        from repro.obs.tracer import RecordingTracer

        class CallLog(RecordingTracer):
            def __init__(self):
                super().__init__()
                self.calls = []

            def count(self, name, n=1):
                self.calls.append(name)
                super().count(name, n)

        tracer = CallLog()
        result = greedy_delivery(line_instance, line_alloc, tracer=tracer)
        # Every placed item is re-scored before the heap can run dry.
        assert tracer.counters["delivery.reselects"] >= len(result.placements) > 0
        assert tracer.calls.count("delivery.reselects") == 1


class TestIterationCounting:
    def test_iterations_count_productive_sweeps_only(self, line_instance, line_alloc):
        """Regression: the terminal sweep that places nothing used to be
        counted, reporting ``len(placements) + 1``."""
        result = greedy_delivery(line_instance, line_alloc)
        assert result.placements
        assert result.iterations == len(result.placements)

    def test_no_placement_means_zero_iterations(self, line_instance):
        alloc = AllocationProfile.empty(line_instance.n_users)
        result = greedy_delivery(line_instance, alloc)
        assert result.iterations == 0


class TestStoppingThresholds:
    """The two selection rules score in different units (s/MB vs s), so
    each rule must consult only its own explicitly-suffixed threshold."""

    def test_min_gain_s_ignored_under_ratio_rule(self, line_instance, line_alloc):
        base = greedy_delivery(line_instance, line_alloc, DeliveryConfig(ratio_rule=True))
        huge_abs = greedy_delivery(
            line_instance,
            line_alloc,
            DeliveryConfig(ratio_rule=True, min_gain_s=1e9),
        )
        assert huge_abs.placements == base.placements

    def test_min_gain_s_per_mb_ignored_under_absolute_rule(self, line_instance, line_alloc):
        base = greedy_delivery(line_instance, line_alloc, DeliveryConfig(ratio_rule=False))
        huge_ratio = greedy_delivery(
            line_instance,
            line_alloc,
            DeliveryConfig(ratio_rule=False, min_gain_s_per_mb=1e9),
        )
        assert huge_ratio.placements == base.placements

    @pytest.mark.parametrize(
        "cfg",
        [
            DeliveryConfig(ratio_rule=True, min_gain_s_per_mb=1e9),
            DeliveryConfig(ratio_rule=False, min_gain_s=1e9),
        ],
    )
    def test_unreachable_threshold_blocks_every_placement(
        self, line_instance, line_alloc, cfg
    ):
        result = greedy_delivery(line_instance, line_alloc, cfg)
        assert result.profile.n_replicas == 0
        assert result.iterations == 0


class TestRatioVsAbsolute:
    def test_ratio_rule_wins_when_big_item_crowds_storage(self):
        """Eq. (17)'s per-byte rule beats absolute gain when one big item
        would crowd out several small high-value placements — the regime
        the paper's ratio normalisation targets (ablation A1)."""
        from ..conftest import make_instance, make_scenario

        # One server, 90 MB of storage.  Item 0 is 90 MB with 4 requesters;
        # items 1-3 are 30 MB with 10 requesters each.  Absolute gain picks
        # the big item (0.6 s saved) and fills the disk; the per-byte rule
        # picks the three small items (1.5 s saved).
        n_users = 34
        requests = np.zeros((n_users, 4), dtype=bool)
        requests[:4, 0] = True
        for u in range(4, 14):
            requests[u, 1] = True
        for u in range(14, 24):
            requests[u, 2] = True
        for u in range(24, 34):
            requests[u, 3] = True
        rng = np.random.default_rng(0)
        sc = make_scenario(
            [[0.0, 0.0]],
            rng.uniform(-50, 50, size=(n_users, 2)),
            radius=300.0,
            storage=90.0,
            sizes=(90.0, 30.0, 30.0, 30.0),
            requests=requests,
        )
        inst = make_instance(sc, density=0.0)
        alloc = AllocationProfile.empty(n_users)
        alloc.server[:] = 0
        alloc.channel[:] = np.arange(n_users) % 2
        ratio = greedy_delivery(inst, alloc, DeliveryConfig(ratio_rule=True))
        absolute = greedy_delivery(inst, alloc, DeliveryConfig(ratio_rule=False))
        l_ratio = average_delivery_latency_ms(inst, alloc, ratio.profile)
        l_abs = average_delivery_latency_ms(inst, alloc, absolute.profile)
        assert l_ratio < l_abs
        assert absolute.profile.placed[0, 0]
        assert not ratio.profile.placed[0, 0]

    def test_both_rules_feasible_on_generated_instance(self, medium_instance):
        game = IddeUGame(medium_instance)
        alloc = game.run(rng=0).profile
        for rule in (True, False):
            result = greedy_delivery(
                medium_instance, alloc, DeliveryConfig(ratio_rule=rule)
            )
            result.profile.validate(medium_instance.scenario)


class TestThresholdRejectCount:
    """The terminal sweep's ``rejected`` count covers *every* positive-gain
    candidate the stopping threshold killed — not just each item's argmax
    server (the old undercount)."""

    def test_counts_all_positive_gain_candidates(self, line_instance, line_alloc):
        from repro.core.delivery import attached_request_counts
        from repro.obs.tracer import RecordingTracer

        cfg = DeliveryConfig(min_gain_s_per_mb=1e9)  # kills every placement
        tracer = RecordingTracer()
        result = greedy_delivery(line_instance, line_alloc, cfg, tracer=tracer)
        assert result.placements == []

        (span,) = [s for s in tracer.spans if s.name == "delivery.greedy"]
        rejected = span.attrs["rejected"]
        assert tracer.counters["delivery.threshold_rejects"] == rejected

        # Independent recomputation of the first (= terminal) sweep.
        pc = line_instance.latency_model.path_cost
        cloud = line_instance.latency_model.cloud_cost
        counts = attached_request_counts(line_instance, line_alloc).astype(float)
        sizes = line_instance.scenario.sizes
        residual = line_instance.scenario.storage.astype(float)
        per_item = []
        for kk in range(line_instance.n_data):
            s_k = sizes[kk]
            feasible = residual >= s_k
            improvement = np.maximum(cloud * s_k - s_k * pc, 0.0)
            gains = improvement @ counts[kk]
            per_item.append(int(((gains > 0.0) & feasible).sum()))
        assert rejected == sum(per_item)
        # The scenario exercises the fixed path: at least one item has
        # several positive-gain servers, so the old argmax-only counter
        # (at most one per item) necessarily undercounted.
        assert max(per_item) > 1
        assert rejected > sum(1 for p in per_item if p > 0)

    def test_untraced_run_unaffected(self, line_instance, line_alloc):
        cfg = DeliveryConfig(min_gain_s_per_mb=1e9)
        result = greedy_delivery(line_instance, line_alloc, cfg)
        assert result.placements == []
        assert result.iterations == 0
