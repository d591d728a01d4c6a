"""The benchmark's workloads: which CLI calls they make and how outputs are checked.

An operation is one input run through one or more CLI calls, each a call of
``quivrad.cli.main(argv)``.  A check takes ``(exit code, stdout, stderr)`` and
returns None when the output is right, or a one-line reason when it is not.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Callable, List, Optional

import gen

KRONECKER = os.path.join("tests", "data", "kronecker.quiver")
REFUSE_GUARD = 400  # --max-total-dim for refusals; the default guard is 10000
GUARD_MESSAGE = re.compile(r"enumeration guard hit after (\d+) modules \(total dimension (\d+)\)")

Check = Callable[[int, str, str], Optional[str]]


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    check: Check


@dataclass(frozen=True)
class Operation:
    input: str
    path: str
    text: Optional[str]  # file content to write, or None for a repository fixture
    commands: tuple


# -- checks -------------------------------------------------------------------

def _json(out: str):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_ar_json(expected_nodes: Optional[int]) -> Check:
    def check(rc: int, out: str, err: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        doc, problem = _json(out)
        if problem:
            return problem
        nodes = len(doc.get("nodes", ()))
        if not nodes:
            return "no nodes"
        if expected_nodes is not None and nodes != expected_nodes:
            return f"{nodes} nodes, expected {expected_nodes} (one per positive root)"
        return None
    return check


def check_index_json(rc: int, out: str, err: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    doc, problem = _json(out)
    if problem:
        return problem
    if "direct_r_A" not in doc:
        return "no direct_r_A: verification did not run"
    if doc["direct_r_A"] != doc.get("r_A"):
        return f"r_A {doc.get('r_A')} differs from direct_r_A {doc['direct_r_A']}"
    return None


def check_check_json(rc: int, out: str, err: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    doc, problem = _json(out)
    if problem:
        return problem
    for rule, report in sorted(doc.items()):
        if isinstance(report, dict) and "agrees_with_direct" in report \
                and report["agrees_with_direct"] is not True:
            return f"rule {rule} does not agree with the direct index"
    return None


def check_refusal(rc: int, out: str, err: str) -> Optional[str]:
    if rc != 3:
        return f"exit {rc}, expected 3 (limits exceeded): {err.strip()[:200]}"
    if not GUARD_MESSAGE.search(err):
        return f"exit 3 without the guard message: {err.strip()[:200]}"
    return None


# -- workloads ----------------------------------------------------------------

# Why each workload is there is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = ("sweep-finite", "refuse-infinite")


def build(workload: str, seed: int, workdir: str) -> List[Operation]:
    """The operations of one pass of ``workload``; inputs depend only on ``seed``."""
    if workload == "sweep-finite":
        ops = []
        for s in gen.finite_sweep(seed):
            path = os.path.join(workdir, f"{s.name}.quiver")
            ops.append(Operation(s.name, path, s.text, (
                Command("ar", ("ar", path, "--json"), check_ar_json(s.expected_nodes)),
                Command("index", ("index", path, "--format", "json"), check_index_json),
                Command("check", ("check", path, "--theorem", "all", "--format", "json"),
                        check_check_json),
            )))
        return ops
    if workload == "refuse-infinite":
        guard = ("--max-total-dim", str(REFUSE_GUARD))
        ops = [Operation("kronecker", KRONECKER, None,
                         (Command("refuse", ("ar", KRONECKER) + guard, check_refusal),))]
        for i, s in enumerate(gen.infinite_inputs(seed)):
            name = f"{i:02d}-{s.name.replace('~', 't')}"
            path = os.path.join(workdir, f"{name}.quiver")
            ops.append(Operation(name, path, s.text,
                                 (Command("refuse", ("ar", path) + guard, check_refusal),)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(ops: List[Operation]) -> None:
    for op in ops:
        if op.text is not None:
            with open(op.path, "w", encoding="utf-8") as fh:
                fh.write(op.text)
