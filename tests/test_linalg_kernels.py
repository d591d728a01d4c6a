"""Sparse integer kernels of ``quivrad.linalg`` against dense references.

The references below are the dense ``Fraction``-based routines the sparse
elimination replaced; they are kept here as oracles.
"""
import random
from fractions import Fraction
from math import gcd

import pytest

from quivrad.linalg import (
    Echelon,
    RatMatrix,
    Subspace,
    _kernel_int,
)
from quivrad.rep import hom_space
from conftest import pipeline


# -- dense references ---------------------------------------------------------

def _int_row(row) -> list:
    """Scale a rational row to a primitive integer row (keeps direction)."""
    d = 1
    for x in row:
        d = d * Fraction(x).denominator // gcd(d, Fraction(x).denominator)
    out = [int(x * d) for x in row]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _normalize_int_row(row) -> None:
    g = 0
    for v in row:
        g = gcd(g, v)
    if g == 0:
        return
    lead = next(v for v in row if v)
    if lead < 0:
        g = -g
    if g != 1:
        for i, v in enumerate(row):
            row[i] = v // g


def dense_echelon(rows, ncols, reduced=True):
    """Dense integer Gauss-Jordan with primitive rows and positive pivots."""
    work = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        _normalize_int_row(work[r])
        piv = work[r][c]
        targets = range(len(work)) if reduced else range(r + 1, len(work))
        for i in targets:
            if i == r:
                continue
            v = work[i][c]
            if v:
                g = gcd(piv, v)
                a, b = piv // g, v // g
                work[i] = [a * x - b * y for x, y in zip(work[i], work[r])]
                _normalize_int_row(work[i])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    work = [w for w in work if any(w)]
    return work, pivots


def dense_kernel_space(rows, ncols) -> tuple:
    """Canonical basis of {x : rows·x = 0} from the dense reference."""
    rref, pivots = dense_echelon(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = Fraction(-rref[i][free], rref[i][p])
        basis.append(_int_row(vec))
    return tuple(tuple(r) for r in dense_echelon(basis, ncols)[0])


def fraction_coords(space: Subspace, vec):
    v = [Fraction(x) for x in vec]
    cs = []
    for row, p in zip(space.basis, space.pivots):
        c = Fraction(v[p], row[p])
        cs.append(c)
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return None if any(v) else tuple(cs)


def fraction_quotient_coords(space: Subspace, vec):
    v = [Fraction(x) for x in vec]
    for row, p in zip(space.basis, space.pivots):
        if v[p]:
            c = Fraction(v[p], row[p])
            v = [x - c * y for x, y in zip(v, row)]
    return tuple(v[c] for c in space.nonpivots())


def engine(rows) -> Echelon:
    """An ``Echelon`` with the dense integer rows added in order."""
    echelon = Echelon()
    for r in rows:
        echelon.add({c: x for c, x in enumerate(r) if x})
    return echelon


def engine_echelon(rows, ncols) -> tuple:
    """The engine's ``reduced()`` rows as dense rows, and their pivots."""
    red = engine(rows).reduced()
    return [[row.get(c, 0) for c in range(ncols)] for row in red.values()], list(red)


# -- random systems -----------------------------------------------------------

def _random_int_rows(rng, nrows, ncols, density=0.6, bound=9):
    return [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def _rank_deficient(rng, nrows, ncols, rank):
    left = _random_int_rows(rng, nrows, rank, density=1.0, bound=4)
    right = _random_int_rows(rng, rank, ncols, density=0.7, bound=4)
    return [[sum(l[k] * right[k][j] for k in range(rank)) for j in range(ncols)]
            for l in left]


def _hom_like(rng, nrows, ncols):
    """Wide and sparse: each row is +c at one column and -c' at one or two more."""
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for c in rng.sample(range(ncols), rng.choice((2, 3))):
            row[c] = rng.choice((1, -1, 2, -3))
        rows.append(row)
    return rows


def _systems():
    rng = random.Random(2308)
    out = []
    for _ in range(25):
        out.append(_random_int_rows(rng, rng.randint(1, 8), rng.randint(1, 9)))
    for _ in range(15):
        n, m = rng.randint(2, 9), rng.randint(2, 9)
        rows = _rank_deficient(rng, n, m, rng.randint(1, min(n, m)))
        rows.insert(rng.randrange(len(rows) + 1), [0] * m)  # a zero row
        out.append(rows)
    for _ in range(10):
        out.append(_hom_like(rng, rng.randint(20, 60), rng.randint(40, 90)))
    out.append([[0, 0, 0], [0, 0, 0]])
    out.append([[5, -10, 15]])
    return out


def _rational_rows(rng, nrows, ncols):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.6 else 0
             for _ in range(ncols)] for _ in range(nrows)]


SYSTEMS = _systems()


@pytest.mark.parametrize("k", range(len(SYSTEMS)))
def test_sparse_echelon_matches_dense_reference(k):
    rows = SYSTEMS[k]
    ncols = len(rows[0])
    assert engine_echelon(rows, ncols) == dense_echelon(rows, ncols, reduced=True)
    echelon = Echelon()
    added = [echelon.add({c: x for c, x in enumerate(r) if x}) for r in rows]
    _, ref_piv = dense_echelon(rows, ncols, reduced=False)
    # before back-substitution: the same pivots, one for each row that was new
    assert sorted(echelon.rows) == ref_piv and sum(added) == len(ref_piv)
    assert RatMatrix(rows).rank() == len(ref_piv)


@pytest.mark.parametrize("k", range(len(SYSTEMS)))
def test_engine_reduced_rows_do_not_depend_on_the_order_rows_are_added(k):
    """The reduced echelon form is canonical: shuffling the rows changes
    neither the ``reduced()`` rows, nor their order, nor the dense reference."""
    rows = SYSTEMS[k]
    ncols = len(rows[0])
    rng = random.Random(k)
    outputs = []
    for _ in range(4):
        order = list(rows)
        rng.shuffle(order)
        outputs.append(list(engine(order).reduced().items()))
    assert all(out == outputs[0] for out in outputs)
    dense = [[row.get(c, 0) for c in range(ncols)] for _, row in outputs[0]]
    assert (dense, [p for p, _ in outputs[0]]) == dense_echelon(rows, ncols)


def test_sparse_echelon_matches_dense_reference_on_rational_rows():
    rng = random.Random(45)
    for _ in range(30):
        rows = _rational_rows(rng, rng.randint(1, 7), rng.randint(1, 8))
        ints = [_int_row(r) for r in rows]
        ncols = len(rows[0])
        ref, ref_piv = dense_echelon(ints, ncols, reduced=True)
        assert engine_echelon(ints, ncols) == (ref, ref_piv)
        sub = Subspace.from_vectors(ncols, rows)
        assert [list(r) for r in sub.basis] == ref and list(sub.pivots) == ref_piv
        assert RatMatrix(rows).rank() == len(ref_piv)


@pytest.mark.parametrize("k", range(len(SYSTEMS)))
def test_kernel_vectors_are_exact_and_complete(k):
    rows = SYSTEMS[k]
    ncols = len(rows[0])
    ker = RatMatrix(rows).kernel()
    rank = len(dense_echelon(rows, ncols)[1])
    assert ker.dim == ncols - rank
    assert ker.basis == dense_kernel_space(rows, ncols)
    for x in ker.basis:
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)
    for vec in _kernel_int(engine(rows).reduced(), ncols):
        dense = [vec.get(c, 0) for c in range(ncols)]
        assert all(sum(a * b for a, b in zip(row, dense)) == 0 for row in rows)


def test_coords_and_quotient_coords_match_fraction_reference():
    rng = random.Random(12)
    for _ in range(40):
        ambient = rng.randint(1, 9)
        gens = _rational_rows(rng, rng.randint(0, 5), ambient)
        space = Subspace.from_vectors(ambient, gens)
        coeffs = [rng.randint(-3, 3) for _ in gens]
        inside = [sum(Fraction(c) * g[i] for c, g in zip(coeffs, gens)) for i in range(ambient)]
        outside = [Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(ambient)]
        for vec in (inside, outside, [0] * ambient):
            assert space.coords(vec) == fraction_coords(space, vec)
            assert space.quotient_coords(vec) == fraction_quotient_coords(space, vec)
            assert all(map(_normal, space.quotient_coords(vec)))
        assert space.coords(inside) is not None
        assert all(map(_normal, space.coords(inside)))


def _normal(x) -> bool:
    """An int, or a Fraction that is not an integer."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _assert_trusted(m: RatMatrix):
    for row in m.data:
        assert len(row) == m.cols
        assert all(map(_normal, row))


def test_trusted_constructor_results_keep_the_entry_invariant():
    half = RatMatrix([["1/2", 0], [0, "3/2"]])
    two = RatMatrix([[2, 0], [0, "2/3"]])
    results = [
        half @ two,                     # integral Fractions collapse to int
        half + half,
        half - RatMatrix([["-1/2", 0], [0, "1/2"]]),
        half.scaled(2),
        two.scaled(Fraction(3, 2)),
        (half @ two).transpose(),
        RatMatrix.zeros(2, 3),
        RatMatrix.identity(3),
        RatMatrix.zeros(0, 2) @ RatMatrix.zeros(2, 3),
        RatMatrix.zeros(2, 0) @ RatMatrix.zeros(0, 3),
    ]
    for m in results:
        _assert_trusted(m)
    assert (half @ two).data == ((1, 0), (0, 1))
    assert (half + half).data == ((1, 0), (0, 3))
    assert RatMatrix.zeros(2, 0) @ RatMatrix.zeros(0, 3) == RatMatrix.zeros(2, 3)
    rng = random.Random(5)
    for _ in range(20):
        a = RatMatrix(_rational_rows(rng, 3, 4))
        b = RatMatrix(_rational_rows(rng, 4, 2))
        for m in (a @ b, a + a, a - a, a.scaled(Fraction(2, 3)), a.transpose(), -a):
            _assert_trusted(m)
        square = a @ a.transpose()
        if square.is_invertible():
            _assert_trusted(square.inverse())
            _assert_trusted(square @ square.inverse())


def test_hom_space_matches_dense_kernel():
    pres, ar, _ = pipeline("s2_cyclic")
    reps = ar.reps
    for M in reps:
        for N in reps:
            hs = hom_space(M, N)
            # the intertwining system, dense, through the public kernel
            quiver = pres.quiver
            offsets, pos = {}, 0
            for v in quiver.vertices:
                offsets[v] = pos
                pos += M.dims[v] * N.dims[v]
            rows = []
            for a in quiver.arrows:
                s, t = a.source, a.target
                for i in range(N.dims[t]):
                    for j in range(M.dims[s]):
                        row = [0] * pos
                        for k in range(M.dims[t]):
                            row[offsets[t] + i * M.dims[t] + k] += M.matrices[a.name].data[k][j]
                        for k in range(N.dims[s]):
                            row[offsets[s] + k * M.dims[s] + j] -= N.matrices[a.name].data[i][k]
                        rows.append(_int_row(row))
            assert hs.space.basis == dense_kernel_space(rows, pos)

