"""CLI smoke tests: exit codes and schema-valid JSON for the subcommands.

Tiny instances throughout — these pin the command contracts (exit codes,
document schemas, error channels), not solution quality.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import SCHEMA as TRACE_SCHEMA
from repro.obs import load_trace

TINY = ["--n", "5", "--m", "12", "--k", "2", "--seed", "0"]


def _run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_document(self, capsys):
        code, out, _ = _run(
            capsys, ["solve", *TINY, "--solver", "idde-g", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "idde-solution/3"
        assert doc["instance"]["n"] == 5
        (sol,) = doc["solutions"]
        assert sol["solver"] == "IDDE-G"
        assert sol["game"]["effective_epsilon"] > 0

    def test_trace_emits_loadable_document(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _, err = _run(
            capsys,
            ["solve", *TINY, "--solver", "idde-g", "--trace", str(trace)],
        )
        assert code == 0
        assert str(trace) in err
        doc = load_trace(trace)
        assert doc.meta["command"] == "solve"
        names = {s.name for s in doc.spans}
        assert {"api.solve", "game.run", "delivery.greedy"} <= names

    def test_no_kernel_recorded(self, capsys):
        code, out, _ = _run(
            capsys, ["solve", *TINY, "--solver", "idde-g", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        (sol,) = doc["solutions"]
        for block in (doc["instance"], sol["config"], sol["extras"]):
            assert "kernel" not in block and "delivery_kernel" not in block

    @pytest.mark.parametrize("command", ["solve", "sweep", "replay", "serve"])
    @pytest.mark.parametrize("flag", ["--kernel", "--delivery-kernel"])
    def test_kernel_flags_rejected(self, capsys, command, flag):
        argv = [command, "1"] if command == "sweep" else [command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "batched"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_solver_exits_2_with_suggestion(self, capsys):
        code, _, err = _run(capsys, ["solve", *TINY, "--solver", "ide-g"])
        assert code == 2
        assert "did you mean 'idde-g'" in err


class TestTheoryAndGap:
    def test_theory(self, capsys):
        code, out, _ = _run(capsys, ["theory", *TINY])
        assert code == 0
        assert "Theorem 4" in out and "PoA" in out

    def test_gap(self, capsys):
        code, out, _ = _run(capsys, ["gap", *TINY, "--trials", "1"])
        assert code == 0
        assert "mean gap" in out


class TestTrace:
    @pytest.fixture()
    def trace_path(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        code, _, _ = _run(
            capsys, ["solve", *TINY, "--solver", "idde-g", "--trace", str(path)]
        )
        assert code == 0
        return path

    def test_summarize_text(self, capsys, trace_path):
        code, out, _ = _run(capsys, ["trace", "summarize", str(trace_path)])
        assert code == 0
        assert TRACE_SCHEMA in out
        assert "game.run" in out

    def test_summarize_json(self, capsys, trace_path):
        code, out, _ = _run(
            capsys, ["trace", "summarize", str(trace_path), "--format", "json"]
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["schema"] == TRACE_SCHEMA
        assert summary["n_spans"] > 0

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, ["trace", "summarize", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "error" in err


class TestReplay:
    ARGS = ["replay", *TINY, "--events", "60", "--epoch-events", "20"]

    def test_table_row_and_exit_code(self, capsys):
        code, out, _ = _run(capsys, [*self.ARGS, "--policy", "warm"])
        assert code == 0
        lines = out.strip().splitlines()
        assert "policy" in lines[0] and "cert" in lines[0]
        assert lines[1].lstrip().startswith("warm")
        assert "ok" in lines[1]

    def test_static_policy_has_no_certificates(self, capsys):
        code, out, _ = _run(capsys, [*self.ARGS, "--policy", "static"])
        assert code == 0
        # Static never re-solves after epoch 0, so only epoch 0 certifies.
        assert out.strip().splitlines()[1].lstrip().startswith("static")

    def test_verify_certifies_both_policies(self, capsys):
        code, out, err = _run(capsys, [*self.ARGS, "--verify"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].lstrip().startswith("warm")
        assert lines[2].lstrip().startswith("cold")
        assert all("ok" in line for line in lines[1:3])
        assert "speedup" in err

    def test_save_and_replay_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "events.jsonl"
        code, out1, err = _run(
            capsys, [*self.ARGS, "--save-events", str(trace)]
        )
        assert code == 0
        assert "wrote 60 events" in err
        assert trace.exists()
        # Replaying the saved trace reproduces the generated run exactly
        # (all columns except wall-time, which is never deterministic).
        code, out2, _ = _run(capsys, [*self.ARGS, "--input", str(trace)])
        assert code == 0
        row1 = out1.strip().splitlines()[1].split("|")
        row2 = out2.strip().splitlines()[1].split("|")
        del row1[6], row2[6]
        assert row1 == row2

    def test_input_universe_mismatch_fails(self, capsys, tmp_path):
        trace = tmp_path / "events.jsonl"
        code, _, _ = _run(capsys, [*self.ARGS, "--save-events", str(trace)])
        assert code == 0
        code, _, err = _run(
            capsys,
            ["replay", "--n", "5", "--m", "13", "--k", "2", "--seed", "0",
             "--events", "60", "--epoch-events", "20", "--input", str(trace)],
        )
        assert code == 2
        assert "error" in err

    def test_trace_document(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _, err = _run(capsys, [*self.ARGS, "--trace", str(trace)])
        assert code == 0
        doc = load_trace(trace)
        assert doc.meta["command"] == "replay"
        names = {s.name for s in doc.spans}
        assert {"timeline.epoch", "workload.batch", "api.solve"} <= names
