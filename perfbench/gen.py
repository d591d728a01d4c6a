"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical presentation texts, in the quiver DSL the CLI reads.

* ``finite_sweep`` draws random orientations of the Dynkin trees A3-A8,
  D4-D7, E6 and E7 with 0-3 zero relations of length 2-3.  A quotient of a
  Dynkin path algebra is representation-finite, so every sample has finitely
  many indecomposables; a sample without relations has exactly one per
  positive root.
* ``infinite_inputs`` draws acyclic orientations of the Euclidean graphs
  A~1-A~4, D~4 and D~5 without relations.  Their path algebras are
  representation-infinite, so the knitting walk must hit its guard.

The type and relation count of each sweep slot are fixed and only
orientations and relation paths are drawn, so every seed gives the same mix
of sizes.  Each slot and each Euclidean type is drawn several times: the
cost of one draw swings with its orientation and relation paths, and the
mean over several draws swings less from seed to seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

# (Dynkin type, number of zero relations) per sweep slot.  Relation-free A8,
# D7, E6 and E7 are left out: through the three commands they take 2, 4, 3
# and 23 s, twice the rest of the sweep together.  These four get at least two
# relations, because one relation far out on a long arm leaves nearly the
# whole algebra, so their cost would swing with the seed.
SWEEP_SLOTS = (
    ("A3", 0), ("A4", 0), ("A5", 0), ("A6", 0), ("A7", 0), ("A8", 2),
    ("D4", 0), ("D5", 0), ("D6", 0), ("D7", 2), ("E6", 2), ("E7", 2),
    ("A3", 1), ("A4", 1), ("A5", 2), ("A6", 1), ("A7", 1), ("A8", 3),
    ("D4", 1), ("D5", 1), ("D6", 1), ("D7", 3), ("E6", 3), ("E7", 3),
    ("A5", 1), ("A6", 2), ("A7", 2), ("D5", 2), ("D6", 2), ("D6", 3),
)
EUCLIDEAN_TYPES = ("A~1", "A~2", "A~3", "A~4", "D~4", "D~5")
SWEEP_DRAWS = 3  # samples per sweep slot
EUCLIDEAN_DRAWS = 3  # orientations per Euclidean type


@dataclass(frozen=True)
class Sample:
    name: str
    text: str
    relations: int
    expected_nodes: Optional[int]  # positive-root count when relation-free


def dynkin_edges(kind: str) -> Tuple[int, List[Tuple[int, int]]]:
    """Vertex count and undirected edges (0-based) of a Dynkin tree."""
    family, n = kind[0], int(kind[1:])
    if family == "A":
        return n, [(i, i + 1) for i in range(n - 1)]
    if family == "D":  # A_{n-1} with vertex n-1 hung on vertex n-3
        return n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if family == "E":  # A_{n-1} with vertex n-1 hung on vertex 2
        return n, [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    raise ValueError(f"unknown Dynkin type {kind!r}")


def positive_roots(kind: str) -> int:
    family, n = kind[0], int(kind[1:])
    if family == "A":
        return n * (n + 1) // 2
    if family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63}[n]


def euclidean_edges(kind: str) -> Tuple[int, List[Tuple[int, int]]]:
    """Vertex count and undirected edges of a Euclidean graph."""
    if kind.startswith("A~"):
        m = int(kind[2:]) + 1
        return m, [(i, (i + 1) % m) for i in range(m)]
    if kind.startswith("D~"):
        m = int(kind[2:]) + 1  # D~n has n+1 vertices: a path with two forks
        edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, m - 3)]
        edges += [(m - 3, m - 2), (m - 3, m - 1)]
        return m, edges
    raise ValueError(f"unknown Euclidean type {kind!r}")


def _orient(rng: random.Random, edges) -> List[Tuple[int, int]]:
    return [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]


def _is_acyclic(n: int, arrows) -> bool:
    indeg = [0] * n
    for _, t in arrows:
        indeg[t] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for s, t in arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    return seen == n


def _paths(arrows) -> List[Tuple[int, ...]]:
    """Arrow-index paths of length 2, then of length 3, in a fixed order."""
    out_of = {}
    for k, (s, _) in enumerate(arrows):
        out_of.setdefault(s, []).append(k)
    twos = [(a, b) for a in range(len(arrows)) for b in out_of.get(arrows[a][1], ())]
    threes = [p + (c,) for p in twos for c in out_of.get(arrows[p[-1]][1], ())]
    return twos + threes


def _contains(longer, shorter) -> bool:
    m = len(shorter)
    return any(longer[i:i + m] == shorter for i in range(len(longer) - m + 1))


def _text(n: int, arrows, relations) -> str:
    lines = ["vertex " + " ".join(str(v + 1) for v in range(n))]
    lines += [f"arrow x{k + 1} {s + 1} {t + 1}" for k, (s, t) in enumerate(arrows)]
    lines += ["relation " + "*".join(f"x{k + 1}" for k in p) for p in relations]
    return "\n".join(lines) + "\n"


def dynkin_sample(rng: random.Random, kind: str, nrel: int) -> Sample:
    """A random orientation of ``kind`` with exactly ``nrel`` zero relations.

    Orientations too short of paths for ``nrel`` relations are drawn again,
    so a slot never turns into a larger relation-free algebra.
    """
    n, edges = dynkin_edges(kind)
    while True:
        arrows = _orient(rng, edges)
        candidates = _paths(arrows)
        rng.shuffle(candidates)
        chosen: list = []
        for p in candidates:
            if len(chosen) == nrel:
                break
            if not any(_contains(p, q) or _contains(q, p) for q in chosen):
                chosen.append(p)
        if len(chosen) == nrel:
            break
    expected = None if chosen else positive_roots(kind)
    return Sample(kind, _text(n, arrows, chosen), nrel, expected)


def finite_sweep(seed: int) -> List[Sample]:
    """SWEEP_DRAWS rounds of one sample per entry of SWEEP_SLOTS."""
    rng = random.Random(f"sweep-finite/{seed}")
    samples = []
    for i, (kind, nrel) in enumerate(SWEEP_SLOTS * SWEEP_DRAWS):
        s = dynkin_sample(rng, kind, nrel)
        samples.append(Sample(f"{i:02d}-{kind}-r{nrel}", s.text, nrel, s.expected_nodes))
    return samples


def euclidean_sample(rng: random.Random, kind: str) -> Sample:
    n, edges = euclidean_edges(kind)
    while True:
        arrows = _orient(rng, edges)
        if _is_acyclic(n, arrows):
            return Sample(kind, _text(n, arrows, ()), 0, None)


def infinite_inputs(seed: int) -> List[Sample]:
    """EUCLIDEAN_DRAWS rounds of one acyclic orientation of each type in
    EUCLIDEAN_TYPES."""
    rng = random.Random(f"refuse-infinite/{seed}")
    return [euclidean_sample(rng, kind) for kind in EUCLIDEAN_TYPES * EUCLIDEAN_DRAWS]
