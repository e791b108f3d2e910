"""Sharded-vs-global parity across the seed × schedule grid.

The harness mirrors the oracle parity tests: every sharded S-scale run
must certify ε-Nash on the whole instance, and on clean decompositions the
deterministic schedules must reproduce the global profile bit-for-bit.
"""

from __future__ import annotations

from repro.bench import render_shard_parity_text, verify_sharded_pair
from repro.bench.shard_parity import PARITY_SCHEDULES, PARITY_SEEDS


class TestShardParity:
    def test_full_grid_is_ok(self):
        report = verify_sharded_pair(scale="S")
        assert len(report.cases) == len(PARITY_SEEDS) * len(PARITY_SCHEDULES)
        assert report.ok, render_shard_parity_text(report)
        for case in report.cases:
            assert case.global_nash and case.sharded_nash
            if case.profile_must_match:
                assert case.same_profile

    def test_render_text_lists_every_case(self):
        report = verify_sharded_pair(scale="S", seeds=(0,), schedules=("round-robin",))
        text = render_shard_parity_text(report)
        assert "round-robin" in text
        assert ("SHARD PARITY OK" in text) or ("SHARD PARITY BROKEN" in text)
