"""End-to-end `idde bench` CLI tests (fast: --filter + 1 repeat)."""

from __future__ import annotations

import json

import pytest

from repro.bench import all_benchmarks
from repro.cli import build_parser, main


class TestParser:
    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert (args.scale, args.repeats, args.warmup, args.seed) == ("S", 5, 1, 0)
        assert args.format == "text"
        assert args.compare is None

    def test_compare_takes_two_paths(self):
        args = build_parser().parse_args(["bench", "--compare", "old.json", "new.json"])
        assert args.compare == ["old.json", "new.json"]


class TestListAndRun:
    def test_list_shows_every_registered_benchmark(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for bench in all_benchmarks():
            assert bench.name in out

    def test_run_filtered_json(self, capsys):
        rc = main(
            ["bench", "--filter", "sinr.rates", "--repeats", "1", "--warmup", "0",
             "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "idde-bench/1"
        assert list(doc["benchmarks"]) == ["sinr.rates"]
        assert doc["config"]["repeats"] == 1

    def test_output_writes_valid_document(self, capsys, tmp_path):
        path = tmp_path / "BENCH_head.json"
        rc = main(
            ["bench", "--filter", "delivery", "--repeats", "1", "--warmup", "0",
             "--output", str(path)]
        )
        assert rc == 0
        from repro.bench import load_document

        doc = load_document(path)
        assert "delivery.greedy" in doc["benchmarks"]

    def test_bad_filter_is_a_usage_error(self, capsys):
        assert main(["bench", "--filter", "nonexistent-kernel"]) == 2
        assert "error" in capsys.readouterr().err


class TestCompareCommand:
    def _write_doc(self, path, median_s):
        from repro.bench import BenchRunConfig, build_document, save_document
        from repro.bench.timer import summarize

        config = BenchRunConfig(scale="S", repeats=3)
        results = {"sinr.rates": summarize([median_s] * 3)}
        save_document(build_document(results, config), path)

    def test_unchanged_exits_zero(self, capsys, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write_doc(old, 0.01)
        self._write_doc(new, 0.011)
        assert main(["bench", "--compare", str(old), str(new)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_artificial_3x_slowdown_exits_nonzero(self, capsys, tmp_path):
        # The acceptance criterion: a benchmark artificially slowed 3x
        # must trip the default 2x gate.
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write_doc(old, 0.01)
        self._write_doc(new, 0.03)
        assert main(["bench", "--compare", str(old), str(new)]) != 0
        assert "FAIL" in capsys.readouterr().out

    def test_threshold_flag_loosens_gate(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write_doc(old, 0.01)
        self._write_doc(new, 0.03)
        rc = main(["bench", "--compare", str(old), str(new), "--threshold", "5.0"])
        capsys.readouterr()
        assert rc == 0

    def test_compare_json_format(self, capsys, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write_doc(old, 0.01)
        self._write_doc(new, 0.01)
        assert main(["bench", "--compare", str(old), str(new), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0
        assert payload["deltas"][0]["name"] == "sinr.rates"

    def test_missing_document_is_a_usage_error(self, capsys, tmp_path):
        old = tmp_path / "old.json"
        self._write_doc(old, 0.01)
        rc = main(["bench", "--compare", str(old), str(tmp_path / "absent.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestVerifyParity:
    def test_parser_flag(self):
        """The kernel-pair flags are gone: the proof is the oracle test
        suite (tests/oracles/test_parity.py)."""
        for flag in ("--verify-parity", "--verify-delivery-parity"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", flag])


class TestCommittedBaseline:
    def test_baseline_is_schema_valid_and_covers_the_registry(self):
        from pathlib import Path

        from repro.bench import load_document

        baseline = Path(__file__).resolve().parents[2] / "benchmarks" / "out" / "baseline_S.json"
        doc = load_document(baseline)
        assert doc["config"]["scale"] == "S"
        assert {b.name for b in all_benchmarks()} == set(doc["benchmarks"])
