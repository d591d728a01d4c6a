import random
from fractions import Fraction

import pytest

from quivrad.errors import ShapeError
from quivrad.linalg import (
    RatMatrix,
    Subspace,
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
