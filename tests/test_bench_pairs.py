"""The summary and the run plan of tools/bench_pairs.py, for paired benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(op_ref, rss, attempted=10, failed=0, digest="d0"):
    return {"attempted": attempted, "failed": failed, "outputs_sha256": digest,
            "metrics": {"op_ref": {"value": op_ref}, "peak_rss_mb": {"value": rss}}}


def test_summary_counts_better_pairs_by_direction_and_ties_for_neither():
    parent = [_result(1.0, 20.0), _result(2.0, 21.0), _result(3.0, 22.0), _result(4.0, 23.0)]
    change = [_result(0.5, 20.0), _result(2.0, 20.5), _result(3.5, 23.0), _result(1.0, 24.0, 12, 1)]
    got = bench_pairs.summary(parent, change, {"op_ref": "lower", "peak_rss_mb": "higher"})
    assert got["op_ref"]["change_better_pairs"] == 2  # pair 2 is a tie
    assert got["peak_rss_mb"]["change_better_pairs"] == 2
    assert got["op_ref"]["parent_median"] == 2.5
    assert got["op_ref"]["change_median"] == 1.5
    assert got["op_ref"]["parent_iqr"] == pytest.approx(1.5)  # quartiles 1.75 and 3.25
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["attempted"] == {"parent": 40, "change": 42}


def test_main_runs_ten_alternating_pairs_of_every_declared_workload(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (parent / "src" / "pkg" / "__pycache__" / "m.cpython-311.pyc").write_bytes(b"")
    (parent / "src" / "pkg" / "m.py").write_text("")
    change.mkdir()
    bench = {"workloads": [{"name": "w1"}, {"name": "w2"}], "run_seconds": 7,
             "end_to_end": [{"name": "op_ref", "better": "lower"}]}
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        return _result(1.0 if checkout == str(parent) else 0.5, 20.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "parent_commit", lambda checkout: "abc123")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "x",
                             "--seed", "3", "--note", "n", "--host", "h"]) == 0
    assert len(calls) == 2 * 2 * bench_pairs.PAIRS == 40
    assert not list(parent.rglob("__pycache__"))  # both sides start without bytecode
    assert (parent / "src" / "pkg" / "m.py").exists()
    assert {c[1:] for c in calls} == {("w1", 3, 7), ("w2", 3, 7)}
    firsts = [calls[i][0] for i in range(0, len(calls), 4)]  # first run of each pair
    assert firsts == [str(parent), str(change)] * 5
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["pairs"] == 10
    assert doc["parent_commit"] == "abc123"
    assert doc["command"] == \
        "python3 perfbench/run.py --workload {w1,w2} --seed 3 --seconds 7 --trace 0"
    assert doc["workloads"]["w2"]["summary"]["op_ref"]["change_better_pairs"] == 10
    assert doc["workloads"]["w1"]["outputs_identical"] is True
    assert doc["workloads"]["w1"]["change"][0]["outputs_sha256"] == "d0"


def test_outputs_digest_is_read_off_the_summary_line():
    stdout = ("w1 seed 3: 2 pass(es)\n  op_ref = 0.5 ref\n  outputs sha256 9f8e\n"
              '{"correct": true}\n')
    assert bench_pairs.outputs_digest(stdout) == "9f8e"
    with pytest.raises(SystemExit):
        bench_pairs.outputs_digest('w1 seed 3: 2 pass(es)\n{"correct": true}\n')


def test_a_change_whose_outputs_differ_exits_3_after_writing(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w1"}, {"name": "w2"}], "run_seconds": 7,
         "end_to_end": [{"name": "op_ref", "better": "lower"}]}))
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append(checkout)
        # one change run of w2, in the last pair, prints other output
        other = checkout == str(change) and workload == "w2" and len(runs) > 36
        return _result(1.0, 20.0, digest="d1" if other else "d0")

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "parent_commit", lambda checkout: "abc123")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    code = bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "x",
                             "--seed", "3", "--note", "n", "--host", "h"])
    assert code == 3
    assert "w2" in capsys.readouterr().err
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["workloads"]["w1"]["outputs_identical"] is True
    assert doc["workloads"]["w2"]["outputs_identical"] is False
    assert [r["outputs_sha256"] for r in doc["workloads"]["w2"]["change"]][-1] == "d1"


def test_a_parent_without_git_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w1"}], "run_seconds": 7, "end_to_end": []}))
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: calls.append(a))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "x",
                          "--seed", "3", "--note", "n", "--host", "h"])
    assert exc.value.code == 2
    assert "git worktree add" in capsys.readouterr().err
    assert not calls
    assert not (tmp_path / "BENCH_x.json").exists()
