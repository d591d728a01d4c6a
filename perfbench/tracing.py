"""Outside-in tracing of quivrad's layers.

Spans are recorded by wrapping public functions and methods of the package:
a function is replaced in every ``quivrad`` module namespace that binds it,
so the span sees calls through ``from .rep import hom_space`` as well as
``rep.hom_space``.  Calls are synchronous, so spans nest on one stack.

A span is ``(name, start, end, parent, op)``: the layer name, perf_counter
times, the index of the enclosing span (-1 at the top) and the operation id.
Spans stay in memory until the run ends.  A wrapped name that a later
version of the package no longer has is reported as absent, not as an error.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

# (span name, module, attribute path) for every wrapped callable.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("quiver.parse", "quivrad.quiver", "parse_presentation"),
    ("quiver.validate", "quivrad.quiver", "validate_admissible"),
    ("artrans.ar_quiver", "quivrad.artrans", "ar_quiver"),
    ("artrans.tau", "quivrad.artrans", "ar_translate"),
    ("artrans.tau", "quivrad.artrans", "ar_translate_inverse"),
    ("artrans.middle", "quivrad.artrans", "almost_split_middle"),
    ("artrans.arrows", "quivrad.artrans", "ARQuiver.arrows"),
    ("rep.decompose", "quivrad.rep", "decompose"),
    ("rep.are_isomorphic", "quivrad.rep", "are_isomorphic"),
    ("rep.hom_space", "quivrad.rep", "hom_space"),
    ("radical.init", "quivrad.radical", "RadicalFiltration.__init__"),
    ("radical.layers", "quivrad.radical", "RadicalFiltration.ensure_depth"),
    ("radical.layers", "quivrad.radical", "RadicalFiltration.ensure_complete"),
    ("radical.layers", "quivrad.radical", "RadicalFiltration.nilpotency_index"),
    ("radical.canonical_r", "quivrad.radical", "canonical_r"),
    ("theorems.check_all", "quivrad.theorems", "check_all"),
)
OP_SPAN = "cli.other"  # the span around one CLI call; its self time is unclaimed time
LAYERS = tuple(dict.fromkeys(name for name, _, _ in WRAPPED)) + (OP_SPAN,)


class Tracer:
    """Records spans for the wrapped callables while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.iso_true = 0
        self.last_ar = None  # the AR quiver the current operation built, if any
        self.absent: List[str] = []
        self._undo: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def operation(self, op: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op`` under a top-level span."""
        self.op = op
        self.last_ar = None
        idx = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "rep.are_isomorphic" and result:
                tracer.iso_true += 1
            elif name == "artrans.ar_quiver":
                tracer.last_ar = result
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in WRAPPED:
            mod = sys.modules.get(module)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(name, original)
            if owner_name:  # a method: patch the class
                self._patch(owner, leaf, wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if mname.split(".")[0] == "quivrad" and getattr(m, leaf, None) is original:
                    self._patch(m, leaf, wrapped)

    def _patch(self, owner, leaf: str, value) -> None:
        self._undo.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, value = self._undo.pop()
            setattr(owner, leaf, value)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, list] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append((end - start) - covered)
    return out


def layer_totals(spans: Sequence[Sequence]) -> Dict[str, dict]:
    """Per layer: call count and total self time in seconds."""
    totals = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
    return totals


def self_time_under(spans: Sequence[Sequence], name: str, parent_name: str) -> float:
    """Total self time of ``name`` spans whose parent span is ``parent_name``."""
    own = self_times(spans)
    return sum(t for span, t in zip(spans, own)
               if span[0] == name and span[3] >= 0 and spans[span[3]][0] == parent_name)
