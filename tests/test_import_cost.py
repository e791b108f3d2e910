"""The production path imports no scipy; the MILP oracle loads it on first use.

Each check runs in a fresh interpreter, since the test process itself has
usually imported scipy through other tests.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_solve_path_imports_no_scipy():
    run_fresh(
        """
        import sys

        import repro
        import repro.cli
        import repro.serve
        from repro.core.instance import IDDEInstance

        instance = IDDEInstance.generate(n=10, m=60, k=3, seed=0)
        solution = repro.solve(instance, "idde-g")
        assert solution.r_avg > 0
        assert "scipy" not in sys.modules, sorted(
            m for m in sys.modules if m.startswith("scipy")
        )
        """
    )


def test_milp_imports_scipy_on_first_call():
    run_fresh(
        """
        import sys

        from repro import optimal_delivery_milp
        from repro.core.game import IddeUGame
        from repro.core.instance import IDDEInstance

        instance = IDDEInstance.generate(n=4, m=12, k=2, seed=0)
        alloc = IddeUGame(instance).run(rng=0).profile
        assert "scipy" not in sys.modules
        result = optimal_delivery_milp(instance, alloc)
        assert "scipy" in sys.modules
        assert result.status == 0 and result.mip_gap == 0.0
        result.profile.validate(instance.scenario)
        """
    )
