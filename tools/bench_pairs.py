"""Paired before/after runs of the benchmark on two checkouts.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in a parent checkout and in a change checkout, one run at a time, for
every workload of the change's ``BENCHMARK.json`` and its ``run_seconds``
as T, ten pairs each: the fewest from which a claimed gain can be read.
The parent runs first in odd pairs and the change first in even pairs, so
a drift in host speed falls on both sides alike.  Writes
``BENCH_<label>.json`` at the root of the checkout that holds this script:

* per workload, the result line of every run, in pair order;
* per workload and end-to-end metric of ``BENCHMARK.json``: the parent's
  median and interquartile range, the change's median and interquartile
  range, and in how many pairs the change reads better (ties count for
  neither side);
* per workload, the CLI calls attempted and failed, summed over the runs;
* per workload, ``outputs_identical``: whether every run on both sides
  printed the same ``outputs sha256`` summary line, the digest of the CLI
  output of each input and command.  Each run's digest is kept with its
  result line as ``outputs_sha256``;
* the command, seed, pair order, parent commit and a free-text host note.

The parent checkout must be a git checkout (``git clone`` or
``git worktree add``): its commit is read with ``git rev-parse HEAD``
before the first run, and the script exits 2 when that fails, as in a
``git archive`` export.  Before the first run it also deletes every
``__pycache__`` directory in both checkouts, so that both sides start
without bytecode: with ``PYTHONDONTWRITEBYTECODE`` set, a checkout left
with bytecode by an earlier run imports without compiling, and its
``setup_s`` and ``peak_rss_mb`` read lower than a fresh checkout's.
The script exits 3, after writing the file, when the outputs of some
workload are not identical: the change must print byte-identical output.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \\
        --seed 29 --note "what changed" --host "machine"

Each run takes about ``run_seconds`` plus the set-up of its workload, so
ten pairs of both workloads at 50 seconds take about 40 minutes.  Uses
only the standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def outputs_digest(stdout: str) -> str:
    """The digest on the ``outputs sha256`` summary line of a run's stdout."""
    for line in stdout.splitlines():
        words = line.split()
        if words[:2] == ["outputs", "sha256"] and len(words) == 3:
            return words[2]
    raise SystemExit("bench_pairs: a run printed no 'outputs sha256' line")


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result line of one untraced benchmark run in ``checkout``,
    with the digest of its outputs as ``outputs_sha256``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(argv[1:])} in {checkout} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return {**json.loads(lines[-1]), "outputs_sha256": outputs_digest(proc.stdout)}


def parent_commit(checkout: str) -> str:
    """The commit checked out at the top of the git checkout ``checkout``;
    exits 2 when ``checkout`` is not the top of one."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != Path(checkout).resolve():
        print(f"bench_pairs: {checkout} is not the top of a git checkout, so its commit "
              "is unknown; make the parent with git clone or git worktree add",
              file=sys.stderr)
        raise SystemExit(2)
    return lines[1]


def clear_bytecode(checkout: str) -> None:
    """Delete every ``__pycache__`` directory under ``checkout``."""
    for cache in list(Path(checkout).rglob("__pycache__")):
        shutil.rmtree(cache)


def iqr(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(parent: list, change: list, metrics: dict) -> dict:
    """Medians, spreads and better-pair counts of each end-to-end metric."""
    out = {}
    for name, better in metrics.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1 if better == "lower" else -1
        out[name] = {
            "parent_median": round(statistics.median(p), 4),
            "parent_iqr": round(iqr(p), 4),
            "change_median": round(statistics.median(c), 4),
            "change_iqr": round(iqr(c), 4),
            "change_better_pairs": sum(1 for x, y in zip(p, c) if sign * (y - x) < 0),
        }
    for key in ("failed", "attempted"):
        out[key] = {"parent": sum(r[key] for r in parent), "change": sum(r[key] for r in change)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--note", required=True, help="what the change does")
    parser.add_argument("--host", required=True, help="the machine, and any other timing")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    commit = parent_commit(args.parent)
    for checkout in (args.parent, args.change):
        clear_bytecode(checkout)
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_once(getattr(args, side), workload, args.seed, seconds)
                runs[workload][side].append(result)
                op_ref = result["metrics"]["op_ref"]["value"]
                print(f"pair {k + 1} {workload} {side}: op_ref {op_ref:.4f}", flush=True)
    identical = {w: len({x["outputs_sha256"] for x in r["parent"] + r["change"]}) == 1
                 for w, r in runs.items()}
    doc = {
        "change": args.note,
        "parent_commit": commit,
        "command": f"python3 perfbench/run.py --workload {{{','.join(workloads)}}} "
                   f"--seed {args.seed} --seconds {seconds} --trace 0",
        "seed": args.seed,
        "pairs": PAIRS,
        "order": "parent and change alternate which runs first: parent first in odd pairs, "
                 "change first in even pairs; one run at a time",
        "host": args.host,
        "workloads": {w: {"summary": summary(r["parent"], r["change"], metrics),
                          "outputs_identical": identical[w], **r}
                      for w, r in runs.items()},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    differ = [w for w, same in identical.items() if not same]
    if differ:
        print(f"bench_pairs: outputs differ between the runs of {', '.join(differ)}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
