"""Tests of the benchmark provenance stamping and the regression differ."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from repro.experiments.records import (
    git_commit_sha,
    merge_record_section,
    stamp_record,
    write_bench_record,
)

_CHECKER_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _CHECKER_PATH)
check_bench_regression = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench_regression", check_bench_regression)
_spec.loader.exec_module(check_bench_regression)


class TestRecords:
    def test_write_bench_record_stamps_provenance(self, tmp_path):
        path = tmp_path / "BENCH_example.json"
        stamped = write_bench_record(path, {"results": {"speedup": 4.0}})
        on_disk = json.loads(path.read_text())
        assert on_disk == stamped
        provenance = on_disk["provenance"]
        assert set(provenance) == {"git_commit", "timestamp"}
        # ISO-8601 with an explicit UTC offset.
        assert "T" in provenance["timestamp"]
        assert provenance["timestamp"].endswith("+00:00")
        # tmp_path is not a git checkout, so the SHA falls back gracefully.
        assert provenance["git_commit"] == "unknown"
        # The repository itself resolves to a real SHA.
        repo_sha = git_commit_sha(Path(__file__).resolve().parent)
        assert repo_sha != "unknown" and len(repo_sha) == 40

    def test_stamp_record_does_not_mutate_the_input(self):
        record = {"results": {"speedup": 2.0}}
        stamped = stamp_record(record)
        assert "provenance" not in record
        assert stamped["results"] is record["results"]

    def test_merge_record_section_preserves_other_sections(self, tmp_path):
        path = tmp_path / "BENCH_example.json"
        merge_record_section(path, "first", {"speedup": 2.0}, benchmark="example")
        merge_record_section(path, "second", {"speedup": 3.0}, benchmark="ignored")
        merge_record_section(path, "first", {"speedup": 4.0}, benchmark="ignored")
        on_disk = json.loads(path.read_text())
        assert on_disk["benchmark"] == "example"
        assert on_disk["first"] == {"speedup": 4.0}
        assert on_disk["second"] == {"speedup": 3.0}
        assert "provenance" in on_disk

    def test_merge_record_section_replaces_a_corrupt_record(self, tmp_path):
        path = tmp_path / "BENCH_example.json"
        path.write_text("{not json")
        stamped = merge_record_section(path, "only", {"speedup": 1.5}, benchmark="example")
        on_disk = json.loads(path.read_text())
        assert on_disk == stamped
        assert set(on_disk) == {"benchmark", "only", "provenance"}
        assert on_disk["benchmark"] == "example"


class TestRegressionDiff:
    def test_collects_nested_speedups_only(self):
        record = {
            "results": {
                "speedup": 3.5,
                "required_speedup": 3.0,
                "wall_seconds": 1.0,
                "flag": True,
            },
            "fast_path": {"results": {"speedup": 12.0}},
            "provenance": {"git_commit": "abc", "timestamp": "now"},
        }
        assert check_bench_regression.collect_speedups(record) == {
            "results.speedup": 3.5,
            "fast_path.results.speedup": 12.0,
        }

    def test_compare_records_flags_large_regressions_only(self):
        baseline = {"results": {"speedup": 10.0}}
        within = {"results": {"speedup": 8.0}}  # -20%: allowed
        beyond = {"results": {"speedup": 7.0}}  # -30%: regression
        assert check_bench_regression.compare_records(baseline, within) == []
        failures = check_bench_regression.compare_records(baseline, beyond)
        assert len(failures) == 1 and "results.speedup" in failures[0]
        # Improvements and new metrics never fail.
        improved = {"results": {"speedup": 40.0, "other_speedup": 1.0}}
        assert check_bench_regression.compare_records(baseline, improved) == []

    def test_unresolvable_baseline_ref_skips_with_notice(self, tmp_path, monkeypatch, capsys):
        """A shallow clone (no ``HEAD^``) must skip the diff, not error."""
        import subprocess

        repo = tmp_path / "shallow"
        repo.mkdir()
        subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
        record = repo / "BENCH_x.json"
        record.write_text(json.dumps({"results": {"speedup": 3.0}}))
        subprocess.run(["git", "add", "BENCH_x.json"], cwd=repo, check=True)
        subprocess.run(
            ["git", "-c", "user.email=ci@example.invalid", "-c", "user.name=ci",
             "commit", "-q", "-m", "only commit"],
            cwd=repo,
            check=True,
        )
        monkeypatch.chdir(repo)
        # HEAD^ does not exist on a single-commit history: skip, exit 0.
        assert (
            check_bench_regression.main(["BENCH_x.json", "--baseline-ref", "HEAD^"]) == 0
        )
        out = capsys.readouterr().out
        assert "does not resolve" in out and "skipping" in out
        # A resolvable ref without the file also skips per record.
        assert (
            check_bench_regression.main(
                ["BENCH_missing.json", "--baseline-ref", "HEAD"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no fresh record" in out

    def test_outside_any_git_checkout_skips_with_notice(self, tmp_path, monkeypatch, capsys):
        record = tmp_path / "BENCH_x.json"
        record.write_text(json.dumps({"results": {"speedup": 3.0}}))
        monkeypatch.chdir(tmp_path)
        assert check_bench_regression.main(["BENCH_x.json"]) == 0
        assert "does not resolve" in capsys.readouterr().out

    def test_corrupt_fresh_record_skips_with_notice(self, tmp_path, capsys):
        base_dir = tmp_path / "base"
        base_dir.mkdir()
        (base_dir / "BENCH_x.json").write_text(json.dumps({"results": {"speedup": 3.0}}))
        fresh = tmp_path / "BENCH_x.json"
        fresh.write_text("{not json")
        assert (
            check_bench_regression.main([str(fresh), "--baseline-dir", str(base_dir)])
            == 0
        )
        assert "not valid JSON" in capsys.readouterr().out

    def test_main_with_baseline_dir(self, tmp_path):
        fresh_dir = tmp_path / "fresh"
        base_dir = tmp_path / "base"
        fresh_dir.mkdir()
        base_dir.mkdir()
        (base_dir / "BENCH_x.json").write_text(
            json.dumps({"results": {"speedup": 10.0}})
        )
        fresh = fresh_dir / "BENCH_x.json"

        fresh.write_text(json.dumps({"results": {"speedup": 9.0}}))
        assert (
            check_bench_regression.main([str(fresh), "--baseline-dir", str(base_dir)])
            == 0
        )
        fresh.write_text(json.dumps({"results": {"speedup": 5.0}}))
        assert (
            check_bench_regression.main([str(fresh), "--baseline-dir", str(base_dir)])
            == 1
        )
        # Missing baseline and missing fresh record both skip cleanly.
        lonely = fresh_dir / "BENCH_new.json"
        lonely.write_text(json.dumps({"results": {"speedup": 1.0}}))
        assert (
            check_bench_regression.main([str(lonely), "--baseline-dir", str(base_dir)])
            == 0
        )
        assert (
            check_bench_regression.main(
                [str(fresh_dir / "BENCH_absent.json"), "--baseline-dir", str(base_dir)]
            )
            == 0
        )
