"""CLI tests (argument parsing and end-to-end subcommands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert (args.n, args.m, args.k, args.density) == (30, 200, 5, 1.0)
        assert args.solver == "all"

    def test_sweep_set_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "9"])

    def test_fig1_args(self):
        args = build_parser().parse_args(["fig1", "--days", "3"])
        assert args.days == 3

    def test_shards_flag_removed(self, capsys):
        """The global game is the only IDDE-U path: no subcommand takes
        ``--shards`` any more."""
        for argv in (["solve"], ["sweep", "1"], ["replay"], ["serve"]):
            assert not hasattr(build_parser().parse_args(argv), "shards")
            for value in ("auto", "2"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([*argv, "--shards", value])
                assert "unrecognized arguments: --shards" in capsys.readouterr().err

    def test_bench_shard_parity_flag(self):
        """Sharding and its parity check are gone; the flag stays refused."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--verify-shard-parity"])


class TestCommands:
    def test_solve_single(self, capsys):
        rc = main(["solve", "--n", "6", "--m", "15", "--k", "2", "--solver", "idde-g"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IDDE-G" in out
        assert "R_avg" in out

    def test_solve_all(self, capsys):
        rc = main(
            ["solve", "--n", "6", "--m", "12", "--k", "2", "--ip-budget", "0.2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("IDDE-IP", "IDDE-G", "SAA", "CDP", "DUP-G"):
            assert name in out

    def test_theory(self, capsys):
        rc = main(["theory", "--n", "6", "--m", "10", "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Theorem 4" in out and "PoA" in out

    def test_fig1(self, capsys):
        rc = main(["fig1", "--days", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Edge" in out and "Frankfurt" in out

    def test_dynamics(self, capsys):
        rc = main(
            [
                "dynamics",
                "--n", "8", "--m", "20", "--k", "2",
                "--epochs", "3", "--dt", "15", "--policy", "warm",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "warm" in out and "migr MB" in out

    def test_gap(self, capsys):
        rc = main(["gap", "--n", "8", "--m", "20", "--k", "2", "--trials", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean gap" in out

    def test_sweep_smallest(self, capsys, monkeypatch):
        # Patch Set #3's grid down so the sweep is fast.
        from repro.experiments import settings as settings_mod
        from repro.experiments.settings import SweepSettings
        from repro import cli as cli_mod

        tiny = (
            settings_mod.SET1,
            settings_mod.SET2,
            SweepSettings("Set #3", "k", (2,)),
            settings_mod.SET4,
        )
        monkeypatch.setattr(cli_mod, "ALL_SETS", tiny)
        rc = main(
            [
                "sweep",
                "3",
                "--reps",
                "1",
                "--ip-budget",
                "0.2",
                "--workers",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Set #3" in out
        assert "shape checks" in out
