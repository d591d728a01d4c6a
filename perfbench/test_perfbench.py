"""Self-tests for the benchmark.  Run: python3 -m pytest -q perfbench"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _write(workdir: str, text: str) -> str:
    path = os.path.join(workdir, "input.quiver")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _digest(samples) -> str:
    return hashlib.sha256("".join(s.text for s in samples).encode()).hexdigest()


def _cli(argv) -> tuple:
    from quivrad.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


# -- generators ---------------------------------------------------------------

def test_generators_are_deterministic_across_processes():
    code = ("import sys, hashlib; sys.path.insert(0, sys.argv[1]); import gen; "
            "print(hashlib.sha256(''.join(s.text for s in gen.finite_sweep(7) + "
            "gen.infinite_inputs(7)).encode()).hexdigest())")
    fresh = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True,
                           text=True, check=True).stdout.strip()
    assert fresh == _digest(gen.finite_sweep(7) + gen.infinite_inputs(7))
    assert _digest(gen.finite_sweep(7)) != _digest(gen.finite_sweep(8))
    assert _digest(gen.infinite_inputs(7)) != _digest(gen.infinite_inputs(8))


def test_sweep_follows_its_slots():
    samples = gen.finite_sweep(3)
    assert len(samples) == len(gen.SWEEP_SLOTS) * gen.SWEEP_DRAWS == 90
    for s, (kind, nrel) in zip(samples, gen.SWEEP_SLOTS * gen.SWEEP_DRAWS):
        assert s.name.split("-")[1] == kind
        assert s.relations == nrel
        assert (s.expected_nodes is None) == (s.relations > 0)
        assert s.text.count("\nrelation ") == s.relations


@pytest.mark.parametrize("kind, roots", [("A5", 15), ("D6", 30), ("E6", 36), ("E7", 63)])
def test_positive_root_counts(kind, roots):
    assert gen.positive_roots(kind) == roots
    n, edges = gen.dynkin_edges(kind)
    assert len(edges) == n - 1


@pytest.mark.parametrize("kind", ["A4", "D5"])
def test_relation_free_sample_has_one_node_per_positive_root(workdir, kind):
    import random
    sample = gen.dynkin_sample(random.Random(1), kind, 0)
    rc, out, err = _cli(["ar", _write(workdir, sample.text), "--json"])
    assert workloads.check_ar_json(sample.expected_nodes)(rc, out, err) is None
    assert workloads.check_ar_json(sample.expected_nodes + 1)(rc, out, err) is not None


def test_euclidean_inputs_are_refused(workdir):
    for s in gen.infinite_inputs(5):
        rc, out, err = _cli(["ar", _write(workdir, s.text), "--max-total-dim", "60"])
        assert workloads.check_refusal(rc, out, err) is None, s.name


# -- checks -------------------------------------------------------------------

def test_index_and_check_checks_reject_disagreement():
    good = json.dumps({"r_A": 4, "direct_r_A": 4})
    assert workloads.check_index_json(0, good, "") is None
    assert workloads.check_index_json(0, json.dumps({"r_A": 4, "direct_r_A": 5}), "")
    assert workloads.check_index_json(0, json.dumps({"r_A": 4}), "")
    report = {"B": {"agrees_with_direct": True}, "C": {"inapplicable": "not monomial"}}
    assert workloads.check_check_json(0, json.dumps(report), "") is None
    report["B"]["agrees_with_direct"] = False
    assert workloads.check_check_json(0, json.dumps(report), "")


def test_tampered_r_a_of_a_real_index_output_is_a_failure(workdir):
    import random
    sample = gen.dynkin_sample(random.Random(2), "A4", 1)
    rc, out, err = _cli(["index", _write(workdir, sample.text), "--format", "json"])
    assert workloads.check_index_json(rc, out, err) is None
    doc = json.loads(out)
    doc["r_A"] -= 1
    assert workloads.check_index_json(rc, json.dumps(doc), err) is not None


@pytest.mark.parametrize("rc, err", [
    (0, ""),                                    # a refusal input that completes
    (5, "internal inconsistency: x"),
    (-1, "ValueError: boom"),                   # an escaped exception
    (3, "some other limit"),
])
def test_refusal_check_rejects_every_other_outcome(rc, err):
    assert workloads.check_refusal(rc, "indecomposables: 4\n", err) is not None


def test_refusal_check_accepts_the_guard_message():
    err = ("enumeration guard hit after 20 modules (total dimension 443); presentation "
           "presumed representation-infinite within the given limits\n")
    assert workloads.check_refusal(3, "", err) is None


# -- tracing ------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        ["cli.other", 0.0, 10.0, -1, 0],
        ["rep.decompose", 1.0, 4.0, 0, 0],
        ["rep.hom_space", 2.0, 3.0, 1, 0],
        ["rep.decompose", 5.0, 6.0, 0, 0],
        ["rep.hom_space", 7.0, 12.0, 0, 0],  # runs past its parent: only the covered part counts
    ]
    assert tracing.self_times(spans) == [10 - 3 - 1 - 3, 2.0, 1.0, 1.0, 5.0]
    totals = tracing.layer_totals(spans)
    assert totals["rep.decompose"] == {"calls": 2, "self_s": 3.0}
    assert totals["radical.layers"] == {"calls": 0, "self_s": 0.0}
    assert tracing.self_time_under(spans, "rep.hom_space", "rep.decompose") == 1.0


def test_tracer_keeps_outputs_and_restores_the_package():
    import quivrad.rep
    original = quivrad.rep.hom_space
    fixture = os.path.join(ROOT, "tests", "data", "a3_rel.quiver")
    argv = ["index", fixture, "--format", "json"]
    plain = _cli(argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.operation(0, _cli, argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert quivrad.rep.hom_space is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.other", "quiver.parse", "quiver.validate", "artrans.ar_quiver",
            "radical.init", "rep.hom_space"} <= names
    assert all(span[4] == 0 for span in tracer.spans)
    assert tracer.last_ar is not None and tracer.last_ar.node_count() > 0
    # layer self times account for the operation's wall time
    op = tracer.spans[0]
    assert abs(sum(tracing.self_times(tracer.spans)) - (op[2] - op[1])) < 1e-9


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("rep.gone", "quivrad.rep", "no_such_function"),
        ("rep.gone", "quivrad.rep", "NoSuchClass.method"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["quivrad.rep.no_such_function", "quivrad.rep.NoSuchClass.method"]


# -- timed passes and the reference -------------------------------------------

def test_reference_determinant_is_exact():
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in reference.MATRIX]
    det = Fraction(1)
    for k in range(len(m)):
        p = next(i for i in range(k, len(m)) if m[i][k])
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    assert reference.determinant(reference.MATRIX) == det != 0
    assert reference.determinant([[0, 1], [1, 0]]) == -1
    assert reference.determinant([[1, 2], [2, 4]]) == 0


@pytest.fixture
def refusals(workdir, monkeypatch):
    """A small refuse-infinite spec: one orientation per Euclidean type."""
    monkeypatch.setattr(gen, "EUCLIDEAN_DRAWS", 1)
    spec = {"workload": "refuse-infinite", "seed": 2, "workdir": workdir}
    ops = workloads.build(spec["workload"], spec["seed"], workdir)
    workloads.write_inputs(ops)
    return spec, ops


def test_timed_passes_finish_one_pass_and_time_reference_and_setup(refusals):
    spec, ops = refusals
    result = child.run(dict(spec, traced=False, seconds=0))
    assert [r["input"] for r in result["records"]] == [op.input for op in ops]
    assert all(r["pass"] == 0 and r["error"] is None for r in result["records"])
    assert len(result["reference_s"]) == len(ops)
    assert all(s > 0 for s in result["reference_s"])
    assert len(result["setup_s"]) == child.SETUP_RUNS and result["setup_failed"] == 0
    assert result["peak_rss_kb"] > 0


def test_single_passes_plain_and_traced_agree(refusals):
    spec, ops = refusals
    plain = child.run(dict(spec, traced=False, seconds=None))
    traced = child.run(dict(spec, traced=True, seconds=None))
    assert "reference_s" not in plain and "spans" not in plain
    assert run.digests(plain["records"]) == run.digests(traced["records"])
    assert len(traced["records"]) == len(ops) and traced["spans"]
    assert traced["counts"]["artrans.nodes"] > 0


# -- statistics and the benchmark file ---------------------------------------

def test_tail_leaves_ten_samples_above():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(100)))
    assert (pct, value) == (90.0, 89)
    assert sum(v > value for v in range(100)) == 10


def test_op_seconds_is_the_mean_of_per_input_medians():
    rec = [{"pass": p, "input": i, "seconds": s}
           for p, i, s in [(0, "x", 1.0), (0, "x", 1.0), (1, "x", 4.0), (2, "x", 3.0),
                           (0, "y", 1.0), (1, "y", 9.0), (2, "y", 2.0)]]
    assert run.op_seconds(rec) == (3.0 + 2.0) / 2


def test_benchmark_file_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
