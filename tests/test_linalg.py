import random
from fractions import Fraction

import pytest

from quivrad.errors import ShapeError
from quivrad.linalg import (
    RatMatrix,
    Subspace,
    algebra_radical,
    hstack,
    vstack,
)


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
        got = m.solve(rhs)
        expected = bareiss_solve(rows, rhs)
        assert list(got) == [Fraction(x) for x in expected]


def test_solve_detects_inconsistency():
    m = RatMatrix([[1, 1], [2, 2]])
    assert m.solve([1, 3]) is None
    assert m.solve([1, 2]) is not None


def test_matmul_and_shapes():
    a = RatMatrix([[1, 2], [3, 4]])
    b = RatMatrix([["1/2", 0], [1, 1]])
    assert (a @ b).data == ((Fraction(5, 2), 2), (Fraction(11, 2), 4))
    with pytest.raises(ShapeError):
        a @ RatMatrix([[1, 2]])
    assert hstack([a, b]).shape == (2, 4)
    assert vstack([a, b]).shape == (4, 2)


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


def test_subspace_sum_with_zero_and_self_intersection():
    s = Subspace.from_vectors(4, [[1, 0, 2, 0], [0, 1, 0, 0]])
    assert s + Subspace.zero(4) == s
    assert s.intersect(s) == s
    assert s.contains(s)


def test_dimension_formula_on_random_subspaces():
    rng = random.Random(11)
    for _ in range(6):
        a = Subspace.from_vectors(6, [[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)])
        b = Subspace.from_vectors(6, [[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)])
        assert a.dim + b.dim == (a + b).dim + a.intersect(b).dim


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


def test_algebra_radical_of_field_is_zero():
    assert algebra_radical([[[1]]]).is_zero()


def test_algebra_radical_of_dual_numbers():
    # basis 1, t with t^2 = 0: radical is the t-line
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    rad = algebra_radical(table)
    assert rad.dim == 1
    assert rad.contains_vector([0, 1])


def _matrix_algebra_table(n):
    # basis e_{ij} ordered row-major; e_{ij} e_{kl} = delta_jk e_{il}
    dim = n * n
    idx = lambda i, j: i * n + j
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out = [0] * dim
                    if j == k:
                        out[idx(i, l)] = 1
                    table[idx(i, j)][idx(k, l)] = out
    return table


def test_full_matrix_algebra_is_semisimple():
    table = _matrix_algebra_table(2)
    assert algebra_radical(table).is_zero()
    # independent oracle: the two-sided ideal generated by any basis element
    # is everything, and the whole algebra is not nilpotent (it has a unit),
    # so the largest nilpotent ideal is zero
    n = 4
    basis = range(n)

    def mult(x, y):
        out = [0] * n
        for i, ci in enumerate(x):
            if ci:
                for j, cj in enumerate(y):
                    if cj:
                        for k, ck in enumerate(table[i][j]):
                            out[k] += ci * cj * ck
        return out

    for g in basis:
        gen = [1 if i == g else 0 for i in range(n)]
        vectors = [gen]
        changed = True
        while changed:
            changed = False
            span = Subspace.from_vectors(n, vectors)
            for b in basis:
                e = [1 if i == b else 0 for i in range(n)]
                for v in list(vectors):
                    for prod in (mult(e, v), mult(v, e)):
                        if not span.contains_vector(prod):
                            vectors.append(prod)
                            span = Subspace.from_vectors(n, vectors)
                            changed = True
        assert Subspace.from_vectors(n, vectors).dim == n


def test_algebra_radical_rejects_non_associative():
    # a*a = b, a*b = a, b*anything = 0: then (a*a)*a = 0 but a*(a*a) = a
    table = [
        [[0, 1], [1, 0]],
        [[0, 0], [0, 0]],
    ]
    with pytest.raises(ValueError):
        algebra_radical(table)


def _table_mult(table, x, y):
    n = len(table)
    out = [0] * n
    for i, ci in enumerate(x):
        if ci:
            for j, cj in enumerate(y):
                if cj:
                    for k, ck in enumerate(table[i][j]):
                        out[k] += ci * cj * ck
    return out


@pytest.mark.parametrize("table", [
    # dual numbers 1, t with t^2 = 0
    [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    # path algebra of a single arrow: e1, e2, a with a = a e1 = e2 a
    [
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ],
])
def test_radical_is_nilpotent_ideal(table):
    n = len(table)
    rad = algebra_radical(table)
    basis = [list(row) for row in rad.basis]
    units = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for r in basis:
        for e in units:
            assert rad.contains_vector(_table_mult(table, r, e))
            assert rad.contains_vector(_table_mult(table, e, r))
    # nilpotency: powers of the radical span shrink to zero within dim steps
    current = basis
    for _ in range(n + 1):
        if not current:
            break
        current = [v for v in
                   (_table_mult(table, x, y) for x in current for y in basis)
                   if any(v)]
        current = [list(r) for r in Subspace.from_vectors(n, current).basis]
    assert not current
