import random
import sys
from fractions import Fraction

import pytest

from quivrad import artrans, linalg
from quivrad import rep as R
from quivrad.artrans import EnumerationLimits
from quivrad.cli import main
from quivrad.errors import ShapeError
from quivrad.linalg import (
    RatMatrix,
    Subspace,
    _echelon_sparse,
    _int_row,
    _kernel_int,
)

from conftest import fixture_path, samples


def bareiss_solve(rows, rhs):
    """Independent fraction-free Gaussian elimination oracle for square systems."""
    n = len(rows)
    a = [[x for x in r] + [b] for r, b in zip(rows, rhs)]
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next(i for i in range(k + 1, n) if a[i][k] != 0)
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    sol = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(a[i][n])
        for j in range(i + 1, n):
            s -= a[i][j] * sol[j]
        sol[i] = s / a[i][i]
    return sol


def test_kernel_of_identity_is_zero():
    assert RatMatrix.identity(4).kernel().is_zero()


def test_rank_of_witness_arrow_matrix():
    assert RatMatrix([[1, 0]]).rank() == 1


def test_solve_matches_fraction_free_oracle():
    rng = random.Random(7)
    for _ in range(5):
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            m = RatMatrix(rows)
            if m.rank() == 5:
                break
        rhs = [rng.randint(-9, 9) for _ in range(5)]
        got = m.inverse().apply(rhs)
        expected = bareiss_solve(rows, rhs)
        assert list(got) == [Fraction(x) for x in expected]


def test_solve_detects_inconsistency():
    # Ax = b is consistent exactly when b lies in the column space of A
    m = RatMatrix([[1, 1], [2, 2]])
    assert not m.image().contains_vector([1, 3])
    assert m.image().contains_vector([1, 2])


def test_matmul_and_shapes():
    a = RatMatrix([[1, 2], [3, 4]])
    b = RatMatrix([["1/2", 0], [1, 1]])
    assert (a @ b).data == ((Fraction(5, 2), 2), (Fraction(11, 2), 4))
    with pytest.raises(ShapeError):
        a @ RatMatrix([[1, 2]])


def test_zero_dimensional_matrices():
    z = RatMatrix.zeros(0, 3)
    assert z.transpose().shape == (3, 0)
    assert (z @ RatMatrix.zeros(3, 2)).shape == (0, 2)
    assert z.kernel().dim == 3  # no constraints


def test_inverse():
    m = RatMatrix([[2, 1], [1, 1]])
    inv = m.inverse()
    assert (m @ inv) == RatMatrix.identity(2)


def test_image_and_rref_canonical():
    m = RatMatrix([[2, 4], [1, 2], [0, 0]])
    img = m.image()
    assert img.dim == 1
    # two routes to the same subspace compare componentwise equal
    again = Subspace.from_vectors(3, [[4, 2, 0], [2, 1, 0]])
    assert img == again


def test_quotient_coords():
    s = Subspace.from_vectors(3, [[1, 1, 0]])
    assert len(s.quotient_coords([0, 0, 1])) == 2
    assert s.quotient_coords([2, 2, 0]) == (0, 0)


def test_coords_membership():
    s = Subspace.from_vectors(3, [[1, 0, 1], [0, 2, 0]])
    coords = s.coords([1, 2, 1])
    assert coords is not None
    rebuilt = [0, 0, 0]
    for c, row in zip(coords, s.basis):
        rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
    assert rebuilt == [1, 2, 1]
    assert s.coords([0, 0, 1]) is None


# -- the normal-entry constructor: its callers keep the invariant -----------------

def _normal(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _entries(m):
    return [x for row in m.data for x in row]


def _rebased(M, rng):
    """M in a new basis at each vertex, changed by an upper triangular
    integer matrix with diagonal entries 1 to 3, so that its arrows hold
    Fractions."""
    change = {}
    for v, d in M.dims.items():
        rows = [[rng.randint(1, 3) if i == j else rng.randint(-2, 2) if i < j else 0
                 for j in range(d)] for i in range(d)]
        change[v] = RatMatrix(rows, cols=d)
    mats = {a.name: change[a.target] @ M.matrices[a.name] @ change[a.source].inverse()
            for a in M.pres.quiver.arrows}
    return R.Representation(M.pres, M.dims, mats, check=False)


def test_quotient_matrix_entries_are_normal_on_fraction_pivots():
    rng = random.Random(3)
    fractions = 0
    for _ in range(30):
        vecs = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(rng.randint(1, 4))]
        space = Subspace.from_vectors(6, vecs)
        entries = _entries(space.quotient_matrix())
        assert all(map(_normal, entries))
        fractions += sum(type(x) is Fraction for x in entries)
    assert fractions


def test_normal_entry_constructor_callers_keep_the_invariant(monkeypatch):
    # knit from seeds given in a changed basis, so that the pieces and the
    # cokernels of the walk hold Fractions; Tr D keeps the path-class
    # projectives it presents with
    pres, ar = samples("ex_4_5")[0]
    rng = random.Random(5)
    real_projective = artrans.projective
    rebased = {a: _rebased(real_projective(pres, a), rng) for a in pres.quiver.vertices}

    def seed(p, a):
        if sys._getframe(1).f_code.co_name == "run":
            return rebased[a]
        return real_projective(p, a)

    monkeypatch.setattr(artrans, "projective", seed)
    real_of_normal = RatMatrix._of_normal.__func__
    seen = []

    def checked(cls, rows, cols):
        rows = [tuple(r) for r in rows]
        assert all(_normal(x) for r in rows for x in r)
        seen.extend(x for r in rows for x in r if type(x) is Fraction)
        return real_of_normal(cls, rows, cols)

    monkeypatch.setattr(RatMatrix, "_of_normal", classmethod(checked))
    steps = []
    real_quotient = artrans.quotient_representation

    def recorded(summands, spaces):
        quo, proj = real_quotient(summands, spaces)
        steps.append(proj)
        return quo, proj

    monkeypatch.setattr(artrans, "quotient_representation", recorded)
    knit = artrans._Knitter(pres, EnumerationLimits()).run()
    assert sorted(n.rep.dim_vector() for n in knit.nodes) == \
        sorted(n.rep.dim_vector() for n in ar.nodes)
    assert knit.routes["cokernel"] and seen
    projections = [_entries(m) for proj in steps for m in proj.values()]
    pieces = [_entries(m) for ps in knit.pieces.values() for _, g in ps for m in g.maps.values()]
    for entries in projections + pieces:
        assert all(map(_normal, entries))
    assert any(type(x) is Fraction for entries in projections for x in entries)
    assert any(type(x) is Fraction for entries in pieces for x in entries)


def test_quotient_columns_stores_a_cancelling_sum_as_an_int():
    # span of (2, 1): row 0 of the quotient at the non-pivot 1 is
    # lifted[1] − 1/2·lifted[0] = 1/2 + 1/2
    space = Subspace.from_vectors(2, [[2, 1]])
    got = space.quotient_columns([[-1, 0], [Fraction(1, 2), 3]], 2)
    assert got.data == ((1, 3),)
    assert type(got.data[0][0]) is int


def _random_entry(rng):
    """Mostly zero, else a small int or a Fraction, sometimes an integral one."""
    r = rng.random()
    if r < 0.55:
        return 0
    if r < 0.8:
        return rng.choice([-3, -2, -1, 1, 2, 5])
    return Fraction(rng.choice([-4, -1, 1, 3, 6]), rng.choice([1, 2, 3]))


def _random_rows(rng, ambient):
    """0-4 rows in k^ambient, some all zero, each given dense or as the dict
    of its nonzero entries; the rows as given and as dense tuples."""
    given, dense = [], []
    for _ in range(rng.randint(0, 4)):
        row = [0] * ambient if rng.random() < 0.25 else \
            [_random_entry(rng) for _ in range(ambient)]
        dense.append(tuple(row))
        given.append({c: x for c, x in enumerate(row) if x} if rng.random() < 0.5 else row)
    return given, dense


def _same_space(got, expected):
    assert got.ambient == expected.ambient
    assert got.basis == expected.basis
    assert got.pivots == expected.pivots
    assert got.nonpivots() == expected.nonpivots()
    assert got.quotient_matrix() == expected.quotient_matrix()
    assert got == expected


def test_trivial_span_shortcuts_equal_the_elimination():
    """``from_vectors`` and ``kernel_of`` name the zero space, k¹ and k^d
    without elimination; each answer must be the canonical form that the
    general path, ``Echelon`` on every row, computes."""
    rng = random.Random(2027)
    seen = {"no nonzero vector": 0, "nonzero in k^1": 0, "no nonzero row": 0,
            "full rank": 0, "eliminated": 0}
    for _ in range(600):
        ambient = rng.randint(0, 4)
        given, dense = _random_rows(rng, ambient)
        span = Subspace(ambient, _echelon_sparse(map(_int_row, dense)))
        _same_space(Subspace.from_vectors(ambient, given), span)
        red = _echelon_sparse(map(_int_row, dense))
        kernel = Subspace(ambient, _echelon_sparse(_kernel_int(red, ambient)))
        _same_space(Subspace.kernel_of(ambient, given), kernel)
        if not any(map(any, dense)):
            seen["no nonzero vector"] += 1
            seen["no nonzero row"] += 1
        elif ambient == 1:
            seen["nonzero in k^1"] += 1
        if ambient and len(red) == ambient:
            seen["full rank"] += 1
        elif red:
            seen["eliminated"] += 1
    assert min(seen.values()) >= 40, seen  # every branch is crossed many times
    for ambient in range(5):  # the edge cases, explicitly
        for vectors in ([], [(0,) * ambient], [{}, (0,) * ambient]):
            assert Subspace.from_vectors(ambient, vectors) is Subspace.zero(ambient)
            assert Subspace.kernel_of(ambient, vectors) is Subspace.full(ambient)
    assert Subspace.from_vectors(1, [(0,), {0: Fraction(-2, 3)}]) is Subspace.full(1)
    with pytest.raises(ShapeError):
        Subspace.from_vectors(3, [(0, 0)])
    with pytest.raises(ShapeError):
        Subspace.from_vectors(1, [(0, 0)])


def test_zero_and_full_are_shared_and_canonical():
    for d in range(6):
        assert Subspace.zero(d) is Subspace.zero(d)
        assert Subspace.full(d) is Subspace.full(d)
        _same_space(Subspace.zero(d), Subspace(d, {}))
        _same_space(Subspace.full(d), Subspace(d, {c: {c: 1} for c in range(d)}))
        assert Subspace.zero(d).dim == 0 and Subspace.full(d).dim == d


def test_index_of_ex_2_5_names_its_trivial_spans(monkeypatch, capsys):
    """``quivrad index`` on ex_2_5 builds fewer than 4,000 ``Echelon``s:
    8,938 when every span ran through elimination, about 2,900 with the
    trivial spans named at once."""
    built = []
    init = linalg.Echelon.__init__

    def counted(self):
        built.append(1)
        init(self)

    monkeypatch.setattr(linalg.Echelon, "__init__", counted)
    assert main(["index", fixture_path("ex_2_5")]) == 0
    assert "r_A" in capsys.readouterr().out
    assert 0 < len(built) < 4000, len(built)
