"""The delivery half of the oracle parity harness (``tests/oracles/parity.py``).

``tests/oracles/test_parity.py`` runs the full grid; these tests pin the
harness itself — grid shape, verdict plumbing, and the rendered table a
failing parity case prints.
"""

from __future__ import annotations

from dataclasses import replace

from ..oracles.parity import DELIVERY_CONFIGS, PairCase, delivery_cases, render


def _one_seed() -> list[PairCase]:
    # One shared-fixture seed keeps this cheap: the S instance and its
    # equilibrium are memoised across the whole test process.
    return delivery_cases("S", 0)


class TestVerifyDeliveryPair:
    def test_grid_shape_and_verdict(self):
        cases = _one_seed()
        # one seed x four configs x {plain, traced}
        assert len(cases) == len(DELIVERY_CONFIGS) * 2
        assert all(case.ok for case in cases)

    def test_both_rules_and_thresholds_covered(self):
        assert {cfg.ratio_rule for cfg in DELIVERY_CONFIGS} == {True, False}
        assert any(cfg.min_gain_s_per_mb > 0 for cfg in DELIVERY_CONFIGS)
        assert any(cfg.min_gain_s > 0 for cfg in DELIVERY_CONFIGS)
        labels = [case.label for case in _one_seed()]
        assert any(label.endswith("traced") for label in labels)
        assert any(label.endswith("plain") for label in labels)

    def test_some_case_actually_places(self):
        """A grid where nothing is placed would verify vacuously."""
        assert any(case.work > 0 for case in _one_seed())

    def test_render_reports_parity_ok(self):
        cases = _one_seed()
        text = render(cases)
        assert "PARITY OK" in text
        assert f"{len(cases)} cases" in text

    def test_render_flags_failures(self):
        cases = _one_seed()
        broken = replace(cases[0], broken=("gains",))
        assert not broken.ok
        assert "gains" in broken.describe()
        assert "PARITY BROKEN (1 cases)" in render([broken, *cases[1:]])

    def test_case_describe_mentions_rule(self):
        case = _one_seed()[0]
        assert ("ratio" in case.describe()) or ("abs" in case.describe())
