"""Persistence round-trip tests."""

import numpy as np
import pytest

from repro.core.idde_g import IddeG
from repro.core.instance import IDDEInstance
from repro.errors import DatasetError
from repro.io import load_instance, load_strategy, save_instance, save_strategy
from repro.radio.fading import lognormal_shadowing


class TestInstanceRoundTrip:
    def test_arrays_bit_exact(self, small_instance, tmp_path):
        path = save_instance(small_instance, tmp_path / "inst.npz")
        loaded = load_instance(path)
        sc0, sc1 = small_instance.scenario, loaded.scenario
        assert np.array_equal(sc0.server_xy, sc1.server_xy)
        assert np.array_equal(sc0.user_xy, sc1.user_xy)
        assert np.array_equal(sc0.requests, sc1.requests)
        assert np.array_equal(sc0.storage, sc1.storage)
        assert np.array_equal(
            small_instance.topology.links, loaded.topology.links
        )
        assert np.array_equal(
            small_instance.topology.speeds, loaded.topology.speeds
        )
        assert loaded.topology.cloud_speed == small_instance.topology.cloud_speed
        assert loaded.radio == small_instance.radio

    def test_solver_agrees_after_reload(self, small_instance, tmp_path):
        path = save_instance(small_instance, tmp_path / "inst.npz")
        loaded = load_instance(path)
        a = IddeG().solve(small_instance, rng=0)
        b = IddeG().solve(loaded, rng=0)
        assert a.r_avg == pytest.approx(b.r_avg)
        assert a.l_avg_ms == pytest.approx(b.l_avg_ms)

    def test_gain_override_persisted(self, tmp_path):
        base = IDDEInstance.generate(n=6, m=15, k=2, seed=3)
        gain = lognormal_shadowing(
            base.scenario.server_xy, base.scenario.user_xy, rng=1
        )
        instance = IDDEInstance(
            base.scenario, base.topology, base.radio, gain_override=gain
        )
        path = save_instance(instance, tmp_path / "shadowed.npz")
        loaded = load_instance(path)
        assert loaded.gain_override is not None
        assert np.allclose(loaded.gain_override, gain)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_instance(tmp_path / "nope.npz")

    def test_wrong_kind_rejected(self, small_instance, tmp_path):
        strategy = IddeG().solve(small_instance, rng=0)
        path = save_strategy(strategy, tmp_path / "strategy.npz")
        with pytest.raises(DatasetError):
            load_instance(path)


class TestStrategyRoundTrip:
    def test_profiles_bit_exact(self, small_instance, tmp_path):
        strategy = IddeG().solve(small_instance, rng=0)
        path = save_strategy(strategy, tmp_path / "s.npz")
        loaded = load_strategy(path, small_instance)
        assert loaded.solver == "IDDE-G"
        assert loaded.allocation == strategy.allocation
        assert loaded.delivery == strategy.delivery
        assert loaded.wall_time_s == strategy.wall_time_s
        # The evaluation is rebuilt from the profiles, bit for bit.
        assert loaded.evaluation.r_avg == strategy.r_avg
        assert loaded.evaluation.l_avg_ms == strategy.l_avg_ms
        assert loaded.game is None and loaded.extras == {}

    def test_loaded_profiles_still_valid(self, small_instance, tmp_path):
        strategy = IddeG().solve(small_instance, rng=0)
        path = save_strategy(strategy, tmp_path / "s.npz")
        loaded = load_strategy(path, small_instance)
        loaded.allocation.validate(small_instance.scenario)
        loaded.delivery.validate(small_instance.scenario)

    def test_wrong_kind_rejected(self, small_instance, tmp_path):
        path = save_instance(small_instance, tmp_path / "inst.npz")
        with pytest.raises(DatasetError):
            load_strategy(path, small_instance)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        from repro.io import load_jsonl, save_jsonl

        records = [{"kind": "a", "x": 1}, {"kind": "b", "nested": {"y": [1, 2]}}]
        path = save_jsonl(records, tmp_path / "r.jsonl")
        assert load_jsonl(path) == records
        # One compact object per line, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == 2

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        from repro.io import load_jsonl

        assert load_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_errors(self, tmp_path):
        from repro.io import load_jsonl, save_jsonl

        with pytest.raises(DatasetError):
            save_jsonl([["not", "a", "dict"]], tmp_path / "bad.jsonl")
        with pytest.raises(DatasetError):
            load_jsonl(tmp_path / "missing.jsonl")
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(DatasetError, match=":2"):
            load_jsonl(corrupt)
        nonobj = tmp_path / "nonobj.jsonl"
        nonobj.write_text("[1, 2]\n")
        with pytest.raises(DatasetError):
            load_jsonl(nonobj)
