"""A workload's operations, run in a process of its own.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds ``workload``, ``seed``, ``workdir``, ``traced`` and ``seconds``
(None for a single pass).
One client calls ``quivrad.cli.main(argv)`` in this process for every
command of every operation, the next call starting when the previous one
returns.  Outputs are checked after each call, outside the timed region.

Given ``seconds``, the process repeats passes over the operations until they
have gone by, and times the reference computation (``reference.py``) before
every operation; it always completes one pass, and stops only between
operations.  Between operations it also times SETUP_RUNS fresh ``quivrad
validate`` processes on the first input, spread evenly over the run.
Without ``seconds`` it makes exactly one pass, traced or untraced, and
nothing else.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
SETUP_CODE = "import sys; from quivrad.cli import main; sys.exit(main())"


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except Exception as exc:  # an escaped exception is a failed operation
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


def _counts(tracer, err: str, absent: set) -> dict:
    """Sizes of the finished operation, from its AR quiver or its guard message.

    A refused operation built no filtration, so its filtration counts are 0.
    A count whose attribute is missing at this commit goes into ``absent``.
    """
    ar = tracer.last_ar
    if ar is None:
        hit = workloads.GUARD_MESSAGE.search(err)
        if not hit:
            return {}
        return {"artrans.nodes": int(hit.group(1)), "artrans.total_dim": int(hit.group(2)),
                "radical.hom_pairs": 0, "radical.depth": 0}
    counts = {}
    readers = {
        "artrans.nodes": lambda: ar.node_count(),
        "artrans.total_dim": lambda: sum(r.total_dim() for r in ar.reps),
        "radical.hom_pairs": lambda: len(ar.filtration.hom),
        "radical.depth": lambda: ar.filtration.layers_computed(),
    }
    for name, read in readers.items():
        try:
            counts[name] = read()
        except AttributeError:
            absent.add(name)
    return counts


def _record(op, cmd, pass_no: int, call) -> dict:
    rc, seconds, out, err = call
    return {
        "pass": pass_no, "input": op.input, "command": cmd.name, "seconds": seconds,
        "exit": rc, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "error": cmd.check(rc, out, err),
    }


def _time_setup(path: str) -> tuple:
    """Wall time of one fresh ``quivrad validate PATH`` process, and whether it failed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, "validate", path], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - start
    return seconds, done.returncode != 0 or "admissible: True" not in done.stdout


def _timed_passes(main, ops, seconds: float) -> dict:
    records, reference_s, setup = [], [], []
    start = time.monotonic()
    stop = start + seconds
    pass_no = 0
    while pass_no == 0 or time.monotonic() < stop:
        for op in ops:
            now = time.monotonic()
            if pass_no > 0 and now >= stop:
                break
            if len(setup) < SETUP_RUNS and now >= start + len(setup) * seconds / SETUP_RUNS:
                setup.append(_time_setup(ops[0].path))
            reference_s.append(reference.sample())
            for cmd in op.commands:
                records.append(_record(op, cmd, pass_no, _call(main, cmd.argv)))
        pass_no += 1
    while len(setup) < SETUP_RUNS:
        setup.append(_time_setup(ops[0].path))
    return {"records": records, "reference_s": reference_s,
            "setup_s": [s for s, _ in setup], "setup_failed": sum(f for _, f in setup)}


def _plain_pass(main, ops) -> dict:
    return {"records": [_record(op, cmd, 0, _call(main, cmd.argv))
                        for op in ops for cmd in op.commands]}


def _traced_pass(main, ops) -> dict:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    records = []
    counts: dict = {}
    absent_counts: set = set()
    try:
        for op in ops:
            for cmd in op.commands:
                call = tracer.operation(len(records), _call, main, cmd.argv)
                for name, value in _counts(tracer, call[3], absent_counts).items():
                    counts[name] = counts.get(name, 0) + value
                records.append(_record(op, cmd, 0, call))
    finally:
        tracer.uninstall()
    return {"records": records, "spans": tracer.spans, "iso_true": tracer.iso_true,
            "absent": tracer.absent + sorted(absent_counts), "counts": counts}


def run(spec: dict) -> dict:
    from quivrad.cli import main
    ops = workloads.build(spec["workload"], spec["seed"], spec["workdir"])
    if spec["seconds"] is not None:
        result = _timed_passes(main, ops, spec["seconds"])
    elif spec["traced"]:
        result = _traced_pass(main, ops)
    else:
        result = _plain_pass(main, ops)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
