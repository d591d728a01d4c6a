"""Deterministic generators of small representation-finite monomial presentations.

``random_finite_monomial``: random orientations of type-A chains and type-D
forks, which are representation-finite already as hereditary algebras;
adding zero-relations passes to a quotient, which only shrinks the module
category.  So every sample is representation-finite by construction and the
guard limits are a formality.

``random_nakayama``: cyclic Nakayama algebras, the n-cycle x_i: i -> i+1
with at least one zero-relation of length >= 2.  A path of length
n + L - 1 contains every path of length L, a relation of that length
included, so the algebra is finite-dimensional.  Every indecomposable is uniserial, a quotient
P_a / rad^k P_a (Assem-Simson-Skowroński, Ch. V), which gives an oracle
independent of the knitting.
"""
import random

from quivrad import parse_presentation, ar_quiver
from quivrad.artrans import EnumerationLimits


def _random_source(rng: random.Random) -> str:
    n = rng.randint(2, 6)
    vertices = [str(i + 1) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    if n >= 4 and rng.random() < 0.4:
        # type D: re-hang the last vertex as a second branch at the fork
        edges[-1] = (n - 3, n - 1)
    lines = ["vertex " + " ".join(vertices)]
    arrows = []
    for k, (i, j) in enumerate(edges, start=1):
        if rng.random() < 0.5:
            i, j = j, i
        arrows.append((f"x{k}", vertices[i], vertices[j]))
        lines.append(f"arrow x{k} {vertices[i]} {vertices[j]}")
    by_source = {}
    for name, s, t in arrows:
        by_source.setdefault(s, []).append((name, t))
    paths = []
    for name, s, t in arrows:
        for name2, t2 in by_source.get(t, ()):
            paths.append([name, name2])
            for name3, _ in by_source.get(t2, ()):
                paths.append([name, name2, name3])
    rng.shuffle(paths)
    chosen = []
    for p in paths[: rng.randint(0, 2)]:
        # skip relations that duplicate or contain an already chosen one
        if any("*".join(q) in "*".join(p) for q in chosen):
            continue
        chosen.append(p)
        lines.append("relation " + "*".join(p))
    return "\n".join(lines) + "\n"


def random_finite_monomial(count: int = 20, seed: int = 20240815):
    """`count` deterministic samples: (source text, presentation, AR quiver)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        text = _random_source(rng)
        pres = parse_presentation(text)
        ar = ar_quiver(pres, EnumerationLimits(max_modules=400, max_total_dim=3000))
        found.append((text, pres, ar))
    return found


def _nakayama_source(rng: random.Random) -> str:
    n = rng.randint(2, 6)
    lines = ["vertex " + " ".join(str(i + 1) for i in range(n))]
    lines += [f"arrow x{i + 1} {i + 1} {(i + 1) % n + 1}" for i in range(n)]
    chosen = []
    for _ in range(rng.randint(1, 3)):
        start, length = rng.randrange(n), rng.randint(2, n + 1)
        word = "*".join(f"x{(start + t) % n + 1}" for t in range(length))
        # skip relations that duplicate, contain or lie in a chosen one
        if any(word in q or q in word for q in chosen):
            continue
        chosen.append(word)
        lines.append("relation " + word)
    return "\n".join(lines) + "\n"


def random_nakayama(count: int = 30, seed: int = 7):
    """`count` deterministic cyclic Nakayama samples: (source text,
    presentation, AR quiver)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        text = _nakayama_source(rng)
        pres = parse_presentation(text)
        ar = ar_quiver(pres, EnumerationLimits(max_modules=400, max_total_dim=3000))
        found.append((text, pres, ar))
    return found
