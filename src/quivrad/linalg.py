"""Exact linear algebra over the rationals.

Everything downstream (Hom spaces, radical layers, translates) reduces to
rank/kernel/membership questions here, so arithmetic never rounds: entries
are Python ints or ``fractions.Fraction``.  Matrices are stored dense, and
every stored entry is an ``int`` or a ``Fraction`` that is not an integer
(a *normal* entry).  Three constructors keep that invariant:

* ``RatMatrix(...)`` and ``RatMatrix.from_columns`` normalise outside input;
* ``RatMatrix._of`` takes ints and Fractions, the results of arithmetic on
  normal entries (products, sums), and scans every row, normalising the
  entries that are not ``int``: a sum such as ``1/2 + 1/2`` is an integral
  ``Fraction`` and is stored as ``1``;
* ``RatMatrix._of_normal`` stores its rows as given, so it may take only
  rows whose entries are known normal: Python ints, stored entries moved
  without arithmetic (slices, transposes and stacks of stored rows), their
  negations, and ``_ratio`` output.  Its callers are the structural
  operations here (``transpose``, negation, ``inverse``, ``zeros``,
  ``identity``, ``Subspace.quotient_matrix``) and, in ``rep`` and
  ``artrans``, the direct sum, the unflattened Hom basis, the map E -> Z of
  the Ext route, and the piece slices of a knitting step.
  ``Subspace.quotient_columns`` adds multiples of rows, so it keeps the
  scan.

Elimination lives here alone, in ``Echelon``: sparse integer rows, each a
dict of its nonzero entries, primitive and positive at its pivot, the lowest
column.  ``add`` reduces a row against the pivot rows found so far, dividing
by the content after every update, and keeps what is left; ``reduce``
answers membership; ``reduced()`` back-substitutes once, last pivot first.
Its result is the canonical reduced echelon form, so subspace equality is a
plain data comparison.  ``Subspace`` is built from those rows,
``RatMatrix.rank`` counts them, and ``quiver``'s path-class model keeps one
``Echelon`` per pair of vertices.  Rational rows are scaled to integers
first.  Kernels (``Subspace.kernel_of``, for ``RatMatrix.kernel`` and the
Hom spaces of ``rep``), subspace coordinates and quotient coordinates are
computed in integers over one common denominator, and a ``Fraction`` is
built only for a value that is not an integer.

Most spans met on the way are trivial and are named without elimination:
``Subspace.from_vectors`` drops zero vectors, so the span of none is the
zero space and, in k¹, any nonzero vector spans k¹; ``Subspace.kernel_of``
is all of k^d when no row is nonzero and zero when the rows have rank d.
``Subspace.zero(d)`` and ``Subspace.full(d)`` are shared instances, one per
d, as are ``RatMatrix.zeros`` and ``RatMatrix.identity``: the values are
immutable, so sharing them shares the cached ``_reduction`` too.  Each
shortcut returns the canonical form the elimination would, so no answer
depends on which path built it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ShapeError


def _norm(x):
    """Coerce an entry to int (when integral) or Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, (int, str)):
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f
    raise TypeError(f"not a rational entry: {x!r}")


def _ratio(num: int, den: int):
    """num/den as an int when it divides exactly, else as a Fraction."""
    q, r = divmod(num, den)
    return q if not r else Fraction(num, den)


def _int_vector(vec) -> tuple:
    """(w, d): d > 0 is the lcm of the denominators and w = d·vec in integers."""
    if all(type(x) is int for x in vec):
        return list(vec), 1
    v = [_norm(x) for x in vec]
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _int_row(row) -> dict:
    """A positive multiple of a rational row, given dense or as a dict of its
    nonzero entries, as a dict of its nonzero integer entries."""
    if not isinstance(row, dict):
        row = {c: x for c, x in enumerate(row) if x}
    if all(type(x) is int for x in row.values()):
        return row
    row = {c: y for c, x in row.items() if (y := _norm(x))}
    d = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (d // x.denominator) for c, x in row.items()}


def _make_primitive(row: dict, pivot: int | None = None) -> None:
    """In place: divide by the content; make the entry at pivot positive if given."""
    g = gcd(*row.values())
    if pivot is not None and row[pivot] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def _eliminate(row: dict, prow: dict, c: int) -> None:
    """In place: row := a·row − b·prow with a > 0, clearing column c."""
    piv, v = prow[c], row[c]  # piv > 0: pivot rows are kept with positive pivots
    g = gcd(piv, v)
    a, b = piv // g, v // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, x in prow.items():
        y = row.get(k, 0) - b * x
        if y:
            row[k] = y
        else:
            del row[k]


class Echelon:
    """Incremental sparse integer echelon form; a row's pivot is its lowest
    column.

    ``rows`` maps each pivot column to its row: a dict of nonzero integer
    entries, primitive, zero left of the pivot and positive at it.
    ``reduced()`` clears every other pivot column by back-substitution, which
    makes the rows the canonical basis of their span.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}  # pivot column -> row

    def reduce(self, row: dict) -> dict:
        """Remainder of an integer row, given by its nonzero entries, modulo
        the span: primitive with a positive pivot, and empty exactly when the
        row lies in the span."""
        rows = self.rows
        row = dict(row)
        # Rows vanish left of their pivot, so clearing pivot columns in
        # increasing order never brings back a column already cleared.
        heap = [c for c in row if c in rows]
        heapify(heap)
        while heap and row:
            c = heappop(heap)
            if c not in row:
                continue
            for k in rows[c]:
                if k not in row and k in rows:
                    heappush(heap, k)
            _eliminate(row, rows[c], c)
            if row:
                _make_primitive(row)
        if row:
            _make_primitive(row, min(row))
        return row

    def add(self, row: dict) -> bool:
        """Add a row to the span; False when it was in the span already."""
        row = self.reduce(row)
        if row:
            self.rows[min(row)] = row
        return bool(row)

    def solved(self, pivot: int) -> dict:
        """Column ``pivot`` modulo the span, over the other columns of its row:
        c -> -row[c]/row[pivot], each an int or a Fraction that is not an
        integer.  After ``reduced()`` those columns lead no row."""
        row = self.rows[pivot]
        return {c: _ratio(-x, row[pivot]) for c, x in row.items() if c != pivot}

    def reduced(self) -> dict:
        """The rows in reduced echelon form, ordered by pivot."""
        if len(self.rows) > 1:  # a single row is reduced already
            rows = self.rows = dict(sorted(self.rows.items()))
            # Last pivot first: a row used here is already zero at every
            # other pivot column, so each step clears exactly one.
            for p in reversed(rows):
                row = rows[p]
                for c in [k for k in row if k != p and k in rows]:
                    _eliminate(row, rows[c], c)
                _make_primitive(row, p)
        return self.rows


def _echelon_sparse(rows: Iterable) -> dict:
    """The canonical basis of the span of integer rows, each a dict of its
    nonzero entries: ``Echelon.reduced()`` after adding every row."""
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    return echelon.reduced()


def _kernel_int(red: dict, ncols: int) -> list:
    """Primitive integer basis of the kernel of reduced rows, as dicts,
    ordered by free column.

    Each basis vector has a positive entry at its free column.
    """
    by_free: dict = {}  # free column -> [(pivot column, entry, pivot entry)]
    for p, row in red.items():
        piv = row[p]
        for c, x in row.items():
            if c != p:
                by_free.setdefault(c, []).append((p, x, piv))
    basis = []
    for free in range(ncols):
        if free in red:
            continue
        entries = by_free.get(free, ())
        d = lcm(*(piv for _, _, piv in entries))
        vec = {free: d}
        for p, x, piv in entries:
            vec[p] = -x * (d // piv)
        _make_primitive(vec)
        basis.append(vec)
    return basis


def _trusted_row(r) -> tuple:
    t = tuple(r)
    for x in t:
        if type(x) is not int:
            return tuple(x if type(x) is int else _norm(x) for x in t)
    return t


class RatMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Sequence], cols: int | None = None):
        d = tuple(tuple(_norm(x) for x in row) for row in data)
        if d:
            cols = len(d[0]) if cols is None else cols
            if any(len(r) != cols for r in d):
                raise ShapeError("ragged rows")
        elif cols is None:
            cols = 0
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "rows", len(d))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def _of(cls, rows: Iterable[Sequence], cols: int) -> "RatMatrix":
        """Trusted constructor for results of arithmetic on stored entries.

        Every entry must be an int or a Fraction and every row must have
        ``cols`` entries; only the entries that are not int are normalised,
        so a stored entry is an int or a Fraction that is not an integer.
        """
        return cls._of_normal(map(_trusted_row, rows), cols)

    @classmethod
    def _of_normal(cls, rows: Iterable[Sequence], cols: int) -> "RatMatrix":
        """Trusted constructor for rows whose entries are already normal
        (see the module docstring): every row has ``cols`` entries, each an
        int or a Fraction that is not an integer.  Nothing is scanned."""
        m = object.__new__(cls)
        d = tuple(map(tuple, rows))
        object.__setattr__(m, "data", d)
        object.__setattr__(m, "rows", len(d))
        object.__setattr__(m, "cols", cols)
        return m

    @staticmethod
    @lru_cache(maxsize=1024)
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix._of_normal(((0,) * cols,) * rows, cols)

    @staticmethod
    @lru_cache(maxsize=256)
    def identity(n: int) -> "RatMatrix":
        return RatMatrix._of_normal([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int) -> "RatMatrix":
        """The matrix with these columns, each of length ``rows``."""
        if not (columns and rows):
            return cls.zeros(rows, len(columns))
        return cls(zip(*columns), cols=len(columns))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "RatMatrix":
        if self.rows == 0:
            return RatMatrix._of_normal([() for _ in range(self.cols)], 0)
        return RatMatrix._of_normal(zip(*self.data), self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ShapeError(f"add {self.shape} vs {other.shape}")
        return RatMatrix._of(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)],
            self.cols,
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of_normal([[-x for x in r] for r in self.data], self.cols)

    def scaled(self, c) -> "RatMatrix":
        c = _norm(c)
        return RatMatrix._of([[c * x for x in r] for r in self.data], self.cols)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"matmul {self.shape} @ {other.shape}")
        if self.rows == 0 or other.cols == 0 or other.rows == 0:
            return RatMatrix.zeros(self.rows, other.cols)
        ot = list(zip(*other.data))
        zero = (0,) * other.cols
        out = [[sum(map(mul, row, col)) for col in ot] if any(row) else zero
               for row in self.data]
        return RatMatrix._of(out, other.cols)

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ShapeError("apply: length mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.data]

    def rank(self) -> int:
        echelon = Echelon()
        for r in self.data:
            echelon.add(_int_row(r))
        return len(echelon.rows)

    def kernel(self) -> "Subspace":
        """Right kernel {x : Ax = 0} as a subspace of k^cols."""
        return Subspace.kernel_of(self.cols, self.data)

    def image(self) -> "Subspace":
        """Column space as a subspace of k^rows."""
        cols = list(zip(*self.data)) if self.data else []
        return Subspace.from_vectors(self.rows, cols)

    def inverse(self) -> "RatMatrix":
        if not self.is_square():
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        red = _echelon_sparse(_int_row(list(row) + [0] * i + [1])
                              for i, row in enumerate(self.data))
        if list(red) != list(range(n)):
            raise ShapeError("matrix is singular")
        inv = []
        for i, row in red.items():
            p = row[i]
            inv.append([_ratio(row.get(n + j, 0), p) for j in range(n)])
        return RatMatrix._of_normal(inv, n)

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.rows

    def __repr__(self):
        return f"RatMatrix({[list(r) for r in self.data]!r})"


class Subspace:
    """Subspace of k^ambient in canonical form.

    The basis is the unique reduced echelon form with primitive integer rows
    and positive pivots, so two computations of the same space produce equal
    objects componentwise.
    """

    __slots__ = ("ambient", "basis", "pivots", "_red", "_reducer")

    def __init__(self, ambient: int, red: dict):
        """The span of the rows ``red`` of ``Echelon.reduced()``."""
        basis = []
        for row in red.values():
            dense = [0] * ambient
            for c, x in row.items():
                dense[c] = x
            basis.append(tuple(dense))
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "pivots", tuple(red))
        object.__setattr__(self, "_red", red)
        object.__setattr__(self, "_reducer", None)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable) -> "Subspace":
        """The span of rational vectors in k^ambient, each given dense or as a
        dict of its nonzero entries.  Zero vectors are dropped; the span of
        none is ``zero(ambient)``, and a nonzero vector spans k¹."""
        rows = []
        for v in vectors:
            if not isinstance(v, dict) and len(v) != ambient:
                raise ShapeError("vector length != ambient")
            row = _int_row(v)
            if row:
                rows.append(row)
        if not rows:
            return cls.zero(ambient)
        if ambient == 1:
            return cls.full(1)
        return cls(ambient, _echelon_sparse(rows))

    @classmethod
    def kernel_of(cls, ambient: int, rows: Iterable) -> "Subspace":
        """{x in k^ambient : r·x = 0 for every rational row r}, each row
        given dense or as a dict of its nonzero entries; all of k^ambient
        when no row is nonzero, and zero when the rows have rank ambient."""
        red = _echelon_sparse(map(_int_row, rows))
        if not red:
            return cls.full(ambient)
        if len(red) == ambient:
            return cls.zero(ambient)
        return cls(ambient, _echelon_sparse(_kernel_int(red, ambient)))

    @staticmethod
    @lru_cache(maxsize=256)
    def zero(ambient: int) -> "Subspace":
        """The zero subspace of k^ambient, one shared instance per ambient."""
        return Subspace(ambient, {})

    @staticmethod
    @lru_cache(maxsize=256)
    def full(ambient: int) -> "Subspace":
        """All of k^ambient, one shared instance per ambient."""
        return Subspace(ambient, {c: {c: 1} for c in range(ambient)})

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def _reduction(self) -> tuple:
        """(rows, non-pivot columns), cached; the basis rows as (pivot, pivot
        entry, nonzero entries off the pivots), read off the sparse rows."""
        if self._reducer is None:
            red = self._red
            rows = tuple((p, row[p], tuple((c, x) for c, x in row.items() if c != p))
                         for p, row in red.items())
            nonpivots = tuple(c for c in range(self.ambient) if c not in red)
            object.__setattr__(self, "_reducer", (rows, nonpivots))
        return self._reducer

    def _residue(self, vec: Sequence, what: str) -> tuple:
        """Reduce vec by the basis, in integers: (w, d, res, den).

        w = d·vec with d > 0 the lcm of vec's denominators.  The reduced
        basis puts coefficient vec[p_i]/b_i[p_i] on row b_i, and ``res`` maps
        each non-pivot column to den times the residue vec − Σ (that
        coefficient)·b_i there; den > 0.  The residue is zero at the pivots.
        """
        if len(vec) != self.ambient:
            raise ShapeError(f"{what}: length mismatch")
        w, d = _int_vector(vec)
        rows, nonpivots = self._reduction()
        terms = [(w[p], piv, off) for p, piv, off in rows if w[p]]
        den = 1
        for x, piv, _ in terms:
            den = den * piv // gcd(den, piv)
        res = {c: w[c] * den for c in nonpivots}
        for x, piv, off in terms:
            k = x * (den // piv)
            for c, y in off:
                res[c] -= k * y
        return w, d, res, d * den

    def coords(self, vec: Sequence):
        """Coefficients of vec over the canonical basis, or None if outside."""
        w, d, res, _ = self._residue(vec, "coords")
        if any(res.values()):
            return None
        return tuple(_ratio(w[p], d * row[p]) if w[p] else 0
                     for row, p in zip(self.basis, self.pivots))

    def contains_vector(self, vec: Sequence) -> bool:
        return self.coords(vec) is not None

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ShapeError("ambient mismatch")
        return Subspace(self.ambient, _echelon_sparse(map(_int_row, self.basis + other.basis)))

    def nonpivots(self) -> tuple:
        return self._reduction()[1]

    def quotient_coords(self, vec: Sequence) -> tuple:
        """Coordinates of vec in k^ambient modulo this subspace.

        The quotient basis is the image of the unit vectors at non-pivot
        positions, so these coordinates are the residue after elimination.
        """
        _, _, res, den = self._residue(vec, "quotient_coords")
        return tuple(_ratio(x, den) for x in res.values())

    def quotient_matrix(self) -> "RatMatrix":
        """The projection k^ambient -> k^ambient / self in the coordinates of
        ``quotient_coords``, read off the reduced basis.

        Row t is 1 at the t-th non-pivot column c and −b[c]/b[p] at the
        pivot p of each basis row b, 0 elsewhere: the residue of the unit
        vector at p is −b/b[p] off the pivots.
        """
        rows, nonpivots = self._reduction()
        index = {c: t for t, c in enumerate(nonpivots)}
        out = [[0] * self.ambient for _ in nonpivots]
        for t, c in enumerate(nonpivots):
            out[t][c] = 1
        for p, piv, off in rows:
            for c, x in off:
                out[index[c]][p] = _ratio(-x, piv)
        return RatMatrix._of_normal(out, self.ambient)

    def quotient_columns(self, lifted: Sequence[Sequence], width: int) -> "RatMatrix":
        """The quotient coordinates of the columns of a matrix with ``width``
        columns, given by its rows ``lifted`` in k^ambient: the projection
        ``quotient_matrix`` times that matrix, read off the reduced basis so
        that only its nonzero entries are used.

        Row t starts as the row at the t-th non-pivot column c; each basis
        row b with pivot p adds −b[c]/b[p] times the row at p.
        """
        if len(lifted) != self.ambient:
            raise ShapeError("quotient_columns: shape mismatch")
        rows, nonpivots = self._reduction()
        index = {c: t for t, c in enumerate(nonpivots)}
        out = [lifted[c] for c in nonpivots]
        for p, piv, off in rows:
            src = lifted[p]
            if any(src):
                for c, x in off:
                    k, t = _ratio(-x, piv), index[c]
                    out[t] = [y + k * z for y, z in zip(out[t], src)]
        return RatMatrix._of(out, width)

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"
