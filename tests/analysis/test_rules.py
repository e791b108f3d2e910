"""Per-rule unit tests: each rule code fires on its seeded fixture source
and stays silent on the compliant counterpart."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def codes(findings) -> set[str]:
    return {f.code for f in findings}


def lint_fixture(rel: str):
    path = FIXTURES / rel
    return lint_source(path.read_text(encoding="utf-8"), path=str(path))


class TestRngDiscipline:
    def test_fixture_violations(self):
        found = lint_fixture("repro/dynamics/bad_rng.py")
        assert codes(found) == {"IDDE001", "IDDE002"}
        assert sum(f.code == "IDDE001" for f in found) == 2  # import + call

    def test_rng_module_is_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_source(src, path="src/repro/rng.py") == []
        # outside rng.py both the per-file ban (IDDE001) and the
        # interprocedural module-global check (IDDE010) fire
        assert codes(lint_source(src, path="src/repro/dynamics/churn.py")) == {
            "IDDE001",
            "IDDE010",
        }

    def test_generator_annotations_allowed(self):
        src = (
            "import numpy as np\n"
            "def solve(instance, rng: np.random.Generator) -> None:\n"
            "    if isinstance(rng, np.random.Generator):\n"
            "        pass\n"
        )
        assert lint_source(src, path="src/repro/core/x.py") == []

    def test_entry_point_with_seed_param_allowed(self):
        src = (
            "from repro.rng import ensure_rng\n"
            "def run(seed):\n"
            "    return ensure_rng(seed)\n"
        )
        assert lint_source(src, path="src/repro/core/x.py") == []

    def test_seed_provenance_via_spec_attribute_allowed(self):
        src = (
            "from repro.rng import spawn_rng\n"
            "def run_trial(spec):\n"
            "    return spawn_rng(spec.seed, 'solver')\n"
        )
        assert lint_source(src, path="src/repro/experiments/x.py") == []

    def test_nested_function_not_attributed_to_parent(self):
        src = (
            "from repro.rng import spawn_rng\n"
            "def outer(seed):\n"
            "    def inner(trial_seed):\n"
            "        return spawn_rng(trial_seed)\n"
            "    return inner(seed)\n"
        )
        assert lint_source(src, path="src/repro/core/x.py") == []


class TestUnitHonesty:
    def test_fixture_violations(self):
        found = lint_fixture("repro/core/bad_units.py")
        assert codes(found) == {"IDDE003", "IDDE004"}
        assert sum(f.code == "IDDE003" for f in found) == 2
        assert sum(f.code == "IDDE004" for f in found) == 2

    def test_units_module_is_exempt(self):
        src = "MB = 1_000_000\nX = 2 * 1_000_000\n"
        assert lint_source(src, path="src/repro/units.py") == []

    def test_integer_thousand_not_flagged(self):
        assert lint_source("n = m * 1000\n", path="src/repro/core/x.py") == []

    def test_converter_call_satisfies_suffix_rule(self):
        src = (
            "from repro.units import seconds_to_ms\n"
            "def f(wall_s):\n"
            "    wall_ms = seconds_to_ms(wall_s)\n"
            "    return wall_ms\n"
        )
        assert lint_source(src, path="src/repro/core/x.py") == []


class TestFrozenMutation:
    def test_fixture_violations(self):
        found = lint_fixture("repro/core/bad_frozen.py")
        assert codes(found) == {"IDDE005"}
        assert len(found) == 3

    def test_post_init_setattr_allowed(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class P:\n"
            "    x: float\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', float(self.x))\n"
        )
        assert lint_source(src, path="src/repro/core/x.py") == []

    def test_rebound_name_not_tracked(self):
        src = (
            "from repro.types import User\n"
            "def f(other):\n"
            "    u = User(index=0, x=0.0, y=0.0, power=1.0, rmax=1.0)\n"
            "    u = other\n"
            "    u.x = 1.0\n"
        )
        assert lint_source(src, path="src/repro/core/x.py") == []


class TestFloatEquality:
    def test_fixture_violations(self):
        found = lint_fixture("repro/core/bad_float_eq.py")
        assert codes(found) == {"IDDE006"}
        assert len(found) == 2

    def test_only_numeric_layers_in_scope(self):
        src = "def f(x):\n    return x == 0.0\n"
        assert codes(lint_source(src, path="src/repro/radio/x.py")) == {"IDDE006"}
        assert lint_source(src, path="src/repro/experiments/x.py") == []

    def test_integer_sentinels_allowed(self):
        src = "def f(server):\n    return server == -1\n"
        assert lint_source(src, path="src/repro/core/x.py") == []

    def test_ordering_comparisons_allowed(self):
        src = "def f(gain):\n    return gain > 0.0\n"
        assert lint_source(src, path="src/repro/core/x.py") == []


class TestDeterminism:
    def test_fixture_violations(self):
        found = lint_fixture("repro/baselines/bad_determinism.py")
        assert codes(found) == {"IDDE007", "IDDE008"}
        assert sum(f.code == "IDDE007" for f in found) == 2

    def test_sorted_set_iteration_allowed(self):
        src = "def f(xs):\n    return [x for x in sorted(set(xs))]\n"
        assert lint_source(src, path="src/repro/core/x.py") == []

    def test_perf_counter_allowed(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert lint_source(src, path="src/repro/core/x.py") == []

    def test_out_of_scope_layers_ignored(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert lint_source(src, path="src/repro/experiments/x.py") == []


class TestLayering:
    def test_fixture_violations(self):
        found = lint_fixture("repro/datasets/bad_layering.py")
        assert codes(found) == {"IDDE009"}
        assert len(found) == 2  # one absolute, one relative import

    def test_radio_must_not_import_obs(self):
        found = lint_fixture("repro/radio/bad_layering.py")
        assert codes(found) == {"IDDE009"}
        assert len(found) == 2
        assert all("repro.obs" in f.message for f in found)

    @pytest.mark.parametrize(
        "path, src, bad",
        [
            ("src/repro/core/x.py", "from repro.experiments import sweep\n", True),
            ("src/repro/core/x.py", "from ..experiments.sweep import run_sweep\n", True),
            ("src/repro/radio/x.py", "from .. import viz\n", True),
            ("src/repro/core/x.py", "import repro.cli\n", True),
            ("src/repro/topology/x.py", "from ..baselines import naive\n", True),
            ("src/repro/radio/x.py", "from ..obs.tracer import Tracer\n", True),
            ("src/repro/radio/x.py", "import repro.obs\n", True),
            ("src/repro/core/x.py", "from ..obs.tracer import Tracer\n", False),
            ("src/repro/core/x.py", "from ..radio.sinr import SinrEngine\n", False),
            ("src/repro/experiments/x.py", "from ..core.game import IddeUGame\n", False),
            ("src/repro/datasets/x.py", "from ..topology import graph\n", False),
        ],
    )
    def test_import_dag(self, path, src, bad):
        found = lint_source(src, path=path)
        assert (codes(found) == {"IDDE009"}) is bad

    def test_relative_import_within_layer_allowed(self):
        src = "from .game import IddeUGame\n"
        assert lint_source(src, path="src/repro/core/idde_g.py") == []


class TestRngFlow:
    def test_fixture_violations(self):
        found = lint_fixture("repro/experiments/bad_rng_flow.py")
        assert codes(found) == {"IDDE010"}
        # module global, constant re-seed, spawn-free fan-out, unthreaded rng
        assert len(found) == 4

    def test_near_miss_is_clean(self):
        assert lint_fixture("repro/experiments/good_rng_flow.py") == []


class TestUnitFlow:
    def test_fixture_violations(self):
        found = lint_fixture("repro/core/bad_unit_flow.py")
        assert codes(found) == {"IDDE011"}
        # arithmetic, comparison, arg binding, converter input, return tag
        assert len(found) == 5

    def test_near_miss_is_clean(self):
        assert lint_fixture("repro/core/good_unit_flow.py") == []


class TestParallelSafety:
    def test_fixture_violations(self):
        found = lint_fixture("repro/experiments/bad_parallel.py")
        assert codes(found) == {"IDDE012"}
        # container mutation, nested closure worker, lambda worker
        assert len(found) == 3

    def test_near_miss_is_clean(self):
        assert lint_fixture("repro/experiments/good_parallel.py") == []


class TestFrozenFlow:
    def test_fixture_violations(self):
        found = lint_fixture("repro/core/bad_frozen_flow.py")
        assert codes(found) == {"IDDE013"}
        assert len(found) == 1

    def test_near_miss_is_clean(self):
        assert lint_fixture("repro/core/good_frozen_flow.py") == []


class TestFixtureTreeOverall:
    def test_whole_fixture_tree_has_all_codes(self):
        found = lint_paths([FIXTURES])
        assert codes(found) == {f"IDDE00{i}" for i in range(1, 10)} | {
            f"IDDE01{i}" for i in range(0, 4)
        }

    def test_noqa_fixture_is_clean(self):
        assert lint_fixture("repro/core/clean_noqa.py") == []
