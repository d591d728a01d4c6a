"""Benchmark for the quivrad CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn and print one table.  Each workload runs in a child process of its own
(``child.py``), a closed loop with one client calling ``quivrad.cli.main``.
A run repeats passes over the workload's inputs in that process until
``--seconds`` have gone by; it always completes one pass.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median wall time of the fresh ``quivrad validate FILE``
  processes on the workload's first input (interpreter start, import, parse,
  admissibility) that the child starts at evenly spaced times in the run;
* ``op_ref``: time per operation in reference units, ``op_s`` divided by the
  median time of the reference computation (``reference.py``), which the
  child times before every operation.  ``op_s`` is the mean over the
  workload's inputs of each input's median time over the passes (an operation
  is all CLI calls made on one input); it is printed in the summary;
* ``peak_rss_mb``: peak resident memory of the workload's process.

``--trace 1`` runs one pass twice at once, untraced and traced, one process
per core, and reports per-layer call counts and self times from the traced
pass.  The last line of stdout is the JSON result; the lines before it are a
readable summary.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170  # every run must end within 180 s
REQUIRED = (os.path.join("src", "quivrad", "cli.py"), workloads.KRONECKER)
COUNTS = ("artrans.nodes", "artrans.total_dim", "radical.hom_pairs", "radical.depth")

END_TO_END = {"setup_s": "s", "op_ref": "ref", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["rep.hom_space.in_iso_s"] = "s"
    units["rep.iso_hit_ratio"] = "ratio"
    for name in COUNTS:
        units[name] = "count"
    units["trace.overhead_s"] = "s"
    return units


# -- child processes --------------------------------------------------------------

def _start_child(spec: dict, tag: str):
    spec_path = os.path.join(spec["workdir"], f"{tag}.spec.json")
    result_path = os.path.join(spec["workdir"], f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path,
                             result_path], cwd=ROOT, stdout=subprocess.DEVNULL)
    return proc, result_path


def _finish_children(started, deadline: float) -> list:
    results = []
    try:
        for proc, result_path in started:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            if rc != 0:
                raise RuntimeError(f"workload process exited with {rc}")
            with open(result_path, encoding="utf-8") as fh:
                results.append(json.load(fh))
    finally:
        for proc, _ in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return results


# -- statistics ---------------------------------------------------------------------

def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples above it, or None if too few."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def op_seconds(records: list) -> float:
    """Mean over inputs of each input's median operation time."""
    per_op = defaultdict(float)
    for r in records:
        per_op[(r["pass"], r["input"])] += r["seconds"]
    per_input = defaultdict(list)
    for (_, name), seconds in per_op.items():
        per_input[name].append(seconds)
    return statistics.fmean(statistics.median(v) for v in per_input.values())


def digests(records: list) -> dict:
    return {f"{r['input']}/{r['command']}": r["sha256"] for r in records}


def _failures(records: list) -> list:
    """(input/command, reason) for each call that failed its check or whose
    output differs from an earlier call on the same input."""
    seen, out = {}, []
    for r in records:
        key = f"{r['input']}/{r['command']}"
        if r["error"]:
            out.append((key, r["error"]))
        elif seen.setdefault(key, r["sha256"]) != r["sha256"]:
            out.append((key, "output differs between calls"))
    return out


# -- one workload -----------------------------------------------------------------

def measure(workload: str, seed: int, seconds: int, workdir: str, deadline: float):
    """End-to-end metrics with tracing off."""
    spec = {"workload": workload, "seed": seed, "workdir": workdir, "traced": False,
            "seconds": seconds}
    result, = _finish_children([_start_child(spec, "run")], deadline)
    records = result["records"]
    passes = 1 + max(r["pass"] for r in records)
    failures = _failures(records) + [("setup", "validate failed")] * result["setup_failed"]
    op_s = op_seconds(records)
    reference_s = statistics.median(result["reference_s"])
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "op_ref": op_s / reference_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    lines = [f"{workload} seed {seed}: {passes} pass(es), "
             f"{len(records)} CLI calls + {len(result['setup_s'])} setup processes"]
    lines += [f"  {name} = {value:.6g} {END_TO_END[name]}" for name, value in metrics.items()]
    lines.append(f"  op_s = {op_s:.6g} s, reference median {reference_s:.6g} s "
                 f"over {len(result['reference_s'])} samples")
    by_command = defaultdict(list)
    for r in records:
        by_command[r["command"]].append(r["seconds"])
    for command, values in by_command.items():
        extra = tail(values)
        extra = f", p{extra[0]:.0f} {extra[1]:.6g} s" if extra else ""
        lines.append(f"  {command}_s median {statistics.median(values):.6g} s{extra} "
                     f"(n={len(values)})")
    if workload == "sweep-finite":
        n_ops = len({(r["pass"], r["input"]) for r in records})
        busy = sum(r["seconds"] for r in records)
        lines.append(f"  algebras_per_s = {n_ops / busy:.6g} 1/s")
    attempted = len(records) + len(result["setup_s"])
    lines.append(f"  fail_ratio = {len(failures)}/{attempted}")
    combined = hashlib.sha256(json.dumps(digests(records), sort_keys=True).encode()).hexdigest()
    lines.append(f"  outputs sha256 {combined}")
    return metrics, attempted, failures, lines


def trace(workload: str, seed: int, workdir: str, deadline: float):
    """Per-layer metrics from one traced pass, beside one untraced pass."""
    spec = {"workload": workload, "seed": seed, "workdir": workdir, "seconds": None}
    plain, traced = _finish_children(
        [_start_child(dict(spec, traced=False), "plain"),
         _start_child(dict(spec, traced=True), "traced")], deadline)
    failures = _failures(plain["records"])
    traced_failures = _failures(traced["records"])
    flagged = {key for key, _ in traced_failures}
    plain_digests, traced_digests = digests(plain["records"]), digests(traced["records"])
    failures += traced_failures + [
        (key, "traced output differs from untraced output") for key in plain_digests
        if key not in flagged and traced_digests.get(key) != plain_digests[key]]
    spans = traced["spans"]
    totals = tracing.layer_totals(spans)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = totals[layer]["self_s"]
        metrics[f"{layer}.calls"] = totals[layer]["calls"]
    metrics["rep.hom_space.in_iso_s"] = tracing.self_time_under(
        spans, "rep.hom_space", "rep.are_isomorphic")
    iso_calls = totals["rep.are_isomorphic"]["calls"]
    metrics["rep.iso_hit_ratio"] = traced["iso_true"] / iso_calls if iso_calls else 0.0
    for name in COUNTS:
        metrics[name] = traced["counts"].get(name, 0)
    wall = {name: sum(r["seconds"] for r in res["records"])
            for name, res in (("plain", plain), ("traced", traced))}
    metrics["trace.overhead_s"] = wall["traced"] - wall["plain"]
    lines = [f"{workload} seed {seed}: traced pass of {len(traced['records'])} CLI calls, "
             f"{wall['traced']:.3f} s traced, {wall['plain']:.3f} s untraced, one process each"]
    span_total = sum(totals[layer]["self_s"] for layer in tracing.LAYERS)
    for layer in sorted(tracing.LAYERS, key=lambda x: -totals[x]["self_s"]):
        t = totals[layer]
        lines.append(f"  {layer:<22} self {t['self_s']:10.4f} s {100 * t['self_s'] / span_total:5.1f}%"
                     f"  calls {t['calls']}")
    lines.append(f"  rep.hom_space under rep.are_isomorphic: {metrics['rep.hom_space.in_iso_s']:.4f} s")
    lines += [f"  {name} = {metrics[name]}" for name in COUNTS + ("rep.iso_hit_ratio",)]
    if traced["absent"]:
        lines.append("  absent at this commit (reported as 0): " + ", ".join(traced["absent"]))
    return metrics, 2 * len(plain["records"]), failures, lines


def run_workload(workload: str, seed: int, seconds: int, traced: bool, deadline: float):
    workdir = os.path.join(ROOT, ".perfbench_work", f"{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.build(workload, seed, workdir)
        workloads.write_inputs(ops)
        if traced:
            return trace(workload, seed, workdir, deadline)
        return measure(workload, seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a quivrad checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    units = per_layer_units() if args.trace else END_TO_END
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failures, metrics = 0, [], {}
    for workload in names:
        deadline = time.monotonic() + DEADLINE_S
        got, n, failed, lines = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), deadline)
        print("\n".join(lines), flush=True)
        attempted += n
        failures += failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in got.items()})
    for key, reason in failures[:20]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
