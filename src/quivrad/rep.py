"""Modules as quiver representations.

Hom spaces, radical/top/socle, projective covers and minimal presentations,
indecomposability and isomorphism over the rationals.  Matrix convention:
the matrix of an arrow maps the source component to the target component,
so the composite along a traversal-ordered path (a1, a2, ...) is
``M_a2 @ M_a1`` and so on.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Optional, Sequence

from .errors import ShapeError, SplitFieldNeededError
from .linalg import (
    RatMatrix,
    Subspace,
    _int_vector,
    _kernel_int,
    algebra_radical,
    minimal_polynomial,
)
from .quiver import AlgebraPresentation, Path


class Representation:
    """Finite-dimensional module: one space per vertex, one matrix per arrow."""

    __slots__ = ("pres", "dims", "matrices")

    def __init__(self, pres: AlgebraPresentation, dims: Dict[str, int],
                 matrices: Dict[str, RatMatrix], check: bool = True):
        self.pres = pres
        self.dims = {v: int(dims.get(v, 0)) for v in pres.quiver.vertices}
        mats = {}
        for a in pres.quiver.arrows:
            m = matrices.get(a.name)
            shape = (self.dims[a.target], self.dims[a.source])
            if m is None:
                m = RatMatrix.zeros(*shape)
            if m.shape != shape:
                raise ShapeError(f"arrow {a.name}: matrix {m.shape}, expected {shape}")
            mats[a.name] = m
        self.matrices = mats
        if check:
            defect = self.relation_defect()
            if defect is not None:
                raise ValueError(f"relation {defect} is not satisfied")

    # -- structure ----------------------------------------------------------

    def dim_vector(self) -> tuple:
        return tuple(self.dims[v] for v in self.pres.quiver.vertices)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def path_matrix(self, path: Path) -> RatMatrix:
        acc = RatMatrix.identity(self.dims[path.start])
        for name in path.arrows:
            acc = self.matrices[name] @ acc
        return acc

    def relation_defect(self) -> Optional[object]:
        for rel in self.pres.relations:
            total = None
            for c, p in rel.terms:
                term = self.path_matrix(p).scaled(c)
                total = term if total is None else total + term
            if total is not None and not total.is_zero():
                return rel
        return None

    def same_data(self, other: "Representation") -> bool:
        return (self.pres is other.pres and self.dims == other.dims
                and self.matrices == other.matrices)

    def dual(self) -> "Representation":
        """Dual module over the opposite presentation (matrices transpose)."""
        op = self.pres.opposite()
        mats = {a.name: self.matrices[a.name].transpose() for a in self.pres.quiver.arrows}
        return Representation(op, dict(self.dims), mats, check=False)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dims": {v: self.dims[v] for v in self.pres.quiver.vertices},
            "matrices": {
                name: [[str(Fraction(x)) for x in row] for row in m.data]
                for name, m in sorted(self.matrices.items())
            },
        }

    @classmethod
    def from_json_dict(cls, pres: AlgebraPresentation, data: dict) -> "Representation":
        dims = {str(k): int(v) for k, v in data["dims"].items()}
        mats = {}
        for a in pres.quiver.arrows:
            rows = data["matrices"].get(a.name, [])
            mats[a.name] = RatMatrix(rows, cols=dims.get(a.source, 0))
        return cls(pres, dims, mats)

    def __repr__(self):
        return f"Representation(dim={list(self.dim_vector())})"


def zero_representation(pres: AlgebraPresentation) -> Representation:
    return Representation(pres, {}, {}, check=False)


def simple(pres: AlgebraPresentation, a: str) -> Representation:
    key = ("S", str(a))
    if key not in pres._cache:
        pres._cache[key] = Representation(pres, {str(a): 1}, {}, check=False)
    return pres._cache[key]


def projective(pres: AlgebraPresentation, a: str) -> Representation:
    """P_a on the path-class basis out of a; arrows act by path extension."""
    a = str(a)
    key = ("P", a)
    if key in pres._cache:
        return pres._cache[key]
    model = pres.model()
    basis = {v: model.basis(a, v) for v in pres.quiver.vertices}
    dims = {v: len(b) for v, b in basis.items()}
    mats = {}
    for arr in pres.quiver.arrows:
        cols = []
        for p in basis[arr.source]:
            cols.append(model.reduce_path(p.extend(arr.name)))
        if cols:
            mats[arr.name] = RatMatrix(zip(*cols), cols=len(cols)) if dims[arr.target] else \
                RatMatrix.zeros(0, len(cols))
        else:
            mats[arr.name] = RatMatrix.zeros(dims[arr.target], 0)
    pres._cache[key] = Representation(pres, dims, mats, check=False)
    return pres._cache[key]


def injective(pres: AlgebraPresentation, a: str) -> Representation:
    """I_a dual to the path classes into a."""
    a = str(a)
    key = ("I", a)
    if key in pres._cache:
        return pres._cache[key]
    model = pres.model()
    basis = {v: model.basis(v, a) for v in pres.quiver.vertices}
    dims = {v: len(b) for v, b in basis.items()}
    mats = {}
    for arr in pres.quiver.arrows:
        # dual of: class(q: target -> a)7-> class(q after arr), a map into span(source -> a)
        rows = []
        for q in basis[arr.target]:
            pre = Path(pres.quiver, arr.source, (arr.name,) + q.arrows)
            rows.append(model.reduce_path(pre))
        # rows: each length dims[source]; dual map has shape (target_dim x source_dim) transposed
        m = RatMatrix(rows, cols=dims[arr.source]) if rows else RatMatrix.zeros(0, dims[arr.source])
        mats[arr.name] = m
    pres._cache[key] = Representation(pres, dims, mats, check=False)
    return pres._cache[key]


class ModuleMorphism:
    """Per-vertex matrices intertwining two representations exactly.

    ``check=False`` stores ``maps`` as given: the caller supplies one matrix
    of the right shape for every vertex, intertwining by construction.
    """

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: Representation, target: Representation,
                 maps: Dict[str, RatMatrix], check: bool = True):
        self.source = source
        self.target = target
        if not check:
            self.maps = maps
            return
        ms = {}
        for v in source.pres.quiver.vertices:
            m = maps.get(v)
            shape = (target.dims[v], source.dims[v])
            if m is None:
                m = RatMatrix.zeros(*shape)
            if m.shape != shape:
                raise ShapeError(f"vertex {v}: map {m.shape}, expected {shape}")
            ms[v] = m
        self.maps = ms
        if not self._intertwines():
            raise ValueError("maps do not intertwine the arrow actions")

    def _intertwines(self) -> bool:
        for a in self.source.pres.quiver.arrows:
            lhs = self.maps[a.target] @ self.source.matrices[a.name]
            rhs = self.target.matrices[a.name] @ self.maps[a.source]
            if lhs != rhs:
                return False
        return True

    @classmethod
    def identity(cls, rep: Representation) -> "ModuleMorphism":
        return cls(rep, rep, {v: RatMatrix.identity(rep.dims[v]) for v in rep.dims},
                   check=False)

    @classmethod
    def zero(cls, source: Representation, target: Representation) -> "ModuleMorphism":
        return cls(source, target,
                   {v: RatMatrix.zeros(target.dims[v], source.dims[v]) for v in source.dims},
                   check=False)

    def __matmul__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """Composition self after other."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise ShapeError("composition endpoint mismatch")
        maps = {v: self.maps[v] @ other.maps[v] for v in self.maps}
        return ModuleMorphism(other.source, self.target, maps, check=False)

    def __add__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target,
                              {v: self.maps[v] + other.maps[v] for v in self.maps},
                              check=False)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target,
                              {v: m.scaled(c) for v, m in self.maps.items()}, check=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps.values())

    def flatten(self) -> tuple:
        out = []
        for v in self.source.pres.quiver.vertices:
            for row in self.maps[v].data:
                out.extend(row)
        return tuple(out)

    def is_invertible(self) -> bool:
        if self.source.dim_vector() != self.target.dim_vector():
            return False
        return all(m.is_invertible() for m in self.maps.values())

    def inverse(self) -> "ModuleMorphism":
        return ModuleMorphism(self.target, self.source,
                              {v: m.inverse() for v, m in self.maps.items()}, check=False)

    def rank(self) -> int:
        return sum(m.rank() for m in self.maps.values())

    def is_mono(self) -> bool:
        return self.rank() == self.source.total_dim()

    def is_epi(self) -> bool:
        return self.rank() == self.target.total_dim()

    def __repr__(self):
        return f"ModuleMorphism({self.source!r} -> {self.target!r})"


def morphism_ambient(M: Representation, N: Representation) -> int:
    return sum(M.dims[v] * N.dims[v] for v in M.pres.quiver.vertices)


def _unflatten(M: Representation, N: Representation, vec: Sequence) -> Dict[str, RatMatrix]:
    maps = {}
    pos = 0
    for v in M.pres.quiver.vertices:
        r, c = N.dims[v], M.dims[v]
        rows = [vec[pos + i * c: pos + (i + 1) * c] for i in range(r)]
        maps[v] = RatMatrix._of(rows, c)
        pos += r * c
    return maps


class HomSpace:
    """All module morphisms M -> N, with a canonical echelonized basis."""

    __slots__ = ("source", "target", "space", "basis")

    def __init__(self, source: Representation, target: Representation, space: Subspace):
        self.source = source
        self.target = target
        self.space = space
        self.basis = tuple(
            ModuleMorphism(source, target, _unflatten(source, target, row), check=False)
            for row in space.basis
        )

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def ambient(self) -> int:
        return self.space.ambient

    def coords(self, f: ModuleMorphism):
        return self.space.coords(f.flatten())

    def element(self, coords: Sequence) -> ModuleMorphism:
        out = None
        for c, b in zip(coords, self.basis):
            if c:
                term = b.scaled(c)
                out = term if out is None else out + term
        return out if out is not None else ModuleMorphism.zero(self.source, self.target)

    def __repr__(self):
        return f"HomSpace(dim={self.dim})"


def hom_space(M: Representation, N: Representation) -> HomSpace:
    """Solve the intertwining system f_t(a) M_a = N_a f_s(a) exactly."""
    if M.pres is not N.pres:
        raise ShapeError("modules over different presentations")
    quiver = M.pres.quiver
    ambient = morphism_ambient(M, N)
    if ambient == 0 or not any(M.dims[v] and N.dims[v] for v in quiver.vertices):
        return HomSpace(M, N, Subspace.zero(ambient))
    offsets = {}
    pos = 0
    for v in quiver.vertices:
        offsets[v] = pos
        pos += M.dims[v] * N.dims[v]
    rows = []  # sparse: column -> coefficient
    for a in quiver.arrows:
        s, t = a.source, a.target
        Ma, Na = M.matrices[a.name], N.matrices[a.name]
        if N.dims[t] * M.dims[s] == 0:
            continue
        for i in range(N.dims[t]):
            for j in range(M.dims[s]):
                row = {}
                # + f_t[i, k] * Ma[k, j]
                base = offsets[t] + i * M.dims[t]
                for k in range(M.dims[t]):
                    c = Ma.data[k][j]
                    if c:
                        row[base + k] = c
                # - Na[i, k] * f_s[k, j]
                for k in range(N.dims[s]):
                    c = Na.data[i][k]
                    if c:
                        col = offsets[s] + k * M.dims[s] + j
                        x = row.get(col, 0) - c
                        if x:
                            row[col] = x
                        else:
                            del row[col]
                if not row:
                    continue
                if any(type(x) is not int for x in row.values()):
                    row = dict(zip(row, _int_vector(row.values())[0]))
                rows.append(row)
    kernel = Subspace._from_int_vectors(ambient, _kernel_int(rows, ambient))
    return HomSpace(M, N, kernel)


def mult_table(end: HomSpace) -> list:
    """Structure constants of End(M): table[i][j] = coords of b_i ∘ b_j."""
    n = end.dim
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            comp = end.basis[i] @ end.basis[j]
            coords = end.coords(comp)
            if coords is None:
                raise RuntimeError("endomorphism composition escaped Hom space")
            row.append(list(coords))
        table.append(row)
    return table


def end_radical(end: HomSpace) -> Subspace:
    """Radical of End(M) in End-basis coordinates."""
    if end.dim == 0:
        return Subspace.zero(0)
    return algebra_radical(mult_table(end))


# -- structural submodules --------------------------------------------------

def subrepresentation(M: Representation, subspaces: Dict[str, Subspace]):
    """(subrep, inclusion) for arrow-invariant per-vertex subspaces."""
    quiver = M.pres.quiver
    dims = {v: subspaces[v].dim for v in quiver.vertices}
    incl = {}
    for v in quiver.vertices:
        cols = [list(row) for row in subspaces[v].basis]
        incl[v] = RatMatrix(zip(*cols), cols=dims[v]) if cols else RatMatrix.zeros(M.dims[v], 0)
    mats = {}
    for a in quiver.arrows:
        cols = []
        for row in subspaces[a.source].basis:
            image = M.matrices[a.name].apply(list(row))
            coords = subspaces[a.target].coords(image)
            if coords is None:
                raise ValueError(f"subspaces not invariant under arrow {a.name}")
            cols.append(coords)
        mats[a.name] = RatMatrix(zip(*cols), cols=dims[a.source]) if cols else \
            RatMatrix.zeros(dims[a.target], 0)
    sub = Representation(M.pres, dims, mats, check=False)
    inclusion = ModuleMorphism(sub, M, incl, check=False)
    return sub, inclusion


def quotient_representation(M: Representation, subspaces: Dict[str, Subspace]):
    """(quotient, projection) by arrow-invariant per-vertex subspaces."""
    quiver = M.pres.quiver
    dims = {}
    proj = {}
    sections = {}
    for v in quiver.vertices:
        sub = subspaces[v]
        nonp = sub.nonpivots()
        dims[v] = len(nonp)
        rows = []
        for k in range(M.dims[v]):
            unit = [0] * M.dims[v]
            unit[k] = 1
            rows.append(sub.quotient_coords(unit))
        proj[v] = RatMatrix(zip(*rows), cols=M.dims[v]) if rows else RatMatrix.zeros(dims[v], 0)
        sec_cols = []
        for c in nonp:
            unit = [0] * M.dims[v]
            unit[c] = 1
            sec_cols.append(unit)
        sections[v] = RatMatrix(zip(*sec_cols), cols=dims[v]) if sec_cols else \
            RatMatrix.zeros(M.dims[v], 0)
    mats = {}
    for a in quiver.arrows:
        mats[a.name] = proj[a.target] @ M.matrices[a.name] @ sections[a.source]
    quo = Representation(M.pres, dims, mats, check=False)
    projection = ModuleMorphism(M, quo, proj, check=False)
    return quo, projection


def _radical_subspaces(M: Representation) -> Dict[str, Subspace]:
    quiver = M.pres.quiver
    out = {}
    for v in quiver.vertices:
        vecs = []
        for a in quiver.in_arrows(v):
            mat = M.matrices[a.name]
            vecs.extend(zip(*mat.data) if mat.data else [])
        out[v] = Subspace.from_vectors(M.dims[v], vecs)
    return out


def _socle_subspaces(M: Representation) -> Dict[str, Subspace]:
    quiver = M.pres.quiver
    out = {}
    for v in quiver.vertices:
        rows = []
        for a in quiver.out_arrows(v):
            rows.extend(M.matrices[a.name].data)
        out[v] = RatMatrix._of(rows, M.dims[v]).kernel()
    return out


def radical_submodule(M: Representation):
    """rad M = span of the images of all arrow maps, with its inclusion."""
    return subrepresentation(M, _radical_subspaces(M))


def top(M: Representation):
    """(M / rad M, projection)."""
    return quotient_representation(M, _radical_subspaces(M))


def socle(M: Representation):
    """Joint kernel of all outgoing arrow maps, with its inclusion."""
    return subrepresentation(M, _socle_subspaces(M))


def composition_multiplicity(M: Representation, a: str) -> int:
    """[M : S_a], which equals the dimension of M at a."""
    return M.dims[str(a)]


# -- projective covers ------------------------------------------------------

def morphism_from_projective(pres: AlgebraPresentation, a: str, M: Representation,
                             vec: Sequence) -> ModuleMorphism:
    """The morphism P_a -> M sending the trivial-path generator to vec in M_a."""
    a = str(a)
    model = pres.model()
    P = projective(pres, a)
    images = {(): list(vec)}

    def img(arrows: tuple) -> list:
        got = images.get(arrows)
        if got is None:
            got = M.matrices[arrows[-1]].apply(img(arrows[:-1]))
            images[arrows] = got
        return got

    maps = {}
    for v in pres.quiver.vertices:
        cols = [img(p.arrows) for p in model.basis(a, v)]
        maps[v] = RatMatrix(zip(*cols), cols=len(cols)) if cols and M.dims[v] else \
            RatMatrix.zeros(M.dims[v], len(cols))
    return ModuleMorphism(P, M, maps, check=False)


def morphism_to_injective(pres: AlgebraPresentation, a: str, M: Representation,
                          functional: Sequence) -> ModuleMorphism:
    """The morphism M -> I_a induced by a linear functional on M_a."""
    a = str(a)
    model = pres.model()
    I = injective(pres, a)
    rows_cache = {(): list(functional)}

    def row(arrows: tuple) -> list:
        got = rows_cache.get(arrows)
        if got is None:
            # functional x -> row(tail)(path-action after first arrow applied)
            tail = row(arrows[1:])
            mat = M.matrices[arrows[0]]
            got = [sum(l * x for l, x in zip(tail, col)) for col in zip(*mat.data)] \
                if mat.data else [0] * mat.cols
            rows_cache[arrows] = got
        return got

    maps = {}
    for v in pres.quiver.vertices:
        rows = [row(q.arrows) for q in model.basis(v, a)]
        maps[v] = RatMatrix(rows, cols=M.dims[v]) if rows else RatMatrix.zeros(0, M.dims[v])
    return ModuleMorphism(M, I, maps, check=False)


def direct_sum(reps: Sequence[Representation]) -> Representation:
    if not reps:
        raise ValueError("direct sum of no summands")
    pres = reps[0].pres
    dims = {v: sum(r.dims[v] for r in reps) for v in pres.quiver.vertices}
    mats = {}
    for a in pres.quiver.arrows:
        rows = dims[a.target]
        cols = dims[a.source]
        data = [[0] * cols for _ in range(rows)]
        ro = co = 0
        for r in reps:
            m = r.matrices[a.name]
            for i, row in enumerate(m.data):
                for j, x in enumerate(row):
                    data[ro + i][co + j] = x
            ro += r.dims[a.target]
            co += r.dims[a.source]
        mats[a.name] = RatMatrix._of(data, cols)
    return Representation(pres, dims, mats, check=False)


@dataclass
class ProjectivePresentation:
    """Minimal presentation P1 --f1--> P0 --epi--> M -> 0."""
    p0: Representation
    epi: ModuleMorphism
    p0_summands: tuple          # vertex of each indecomposable summand of P0
    p1: Representation
    f1: ModuleMorphism
    p1_summands: tuple


def projective_cover(M: Representation):
    """(P, epi) with P = ⊕_a P_a^{dim top(M)_a} and epi lifting a top basis."""
    if M.is_zero():
        raise ValueError("zero module has no projective cover")
    cover = _cover_data(M)
    return cover[0], cover[1]


def sum_of_projectives_morphism(pres: AlgebraPresentation, summands: Sequence[str],
                                target: Representation,
                                gen_images: Sequence[Sequence]) -> ModuleMorphism:
    """Morphism ⊕_i P_{a_i} -> target from the images of the generators."""
    pieces = [morphism_from_projective(pres, a, target, img)
              for a, img in zip(summands, gen_images)]
    P = direct_sum([p.source for p in pieces])
    maps = {}
    for v in pres.quiver.vertices:
        blocks = [p.maps[v] for p in pieces]
        data = []
        for i in range(target.dims[v]):
            row = []
            for b in blocks:
                row.extend(b.data[i] if b.data else [])
            data.append(row)
        maps[v] = RatMatrix(data, cols=P.dims[v]) if data else RatMatrix.zeros(0, P.dims[v])
    return ModuleMorphism(P, target, maps, check=False)


def _cover_data(M: Representation):
    quiver = M.pres.quiver
    topM, pi = top(M)
    summands = []
    images = []
    for a in quiver.vertices:
        for k in range(topM.dims[a]):
            # lift the k-th quotient basis vector at a back to M_a
            target = [0] * topM.dims[a]
            target[k] = 1
            lift = pi.maps[a].solve(target)
            if lift is None:
                raise RuntimeError("top projection is not surjective")
            summands.append(a)
            images.append(lift)
    if not summands:
        raise RuntimeError("nonzero module with zero top")
    epi = sum_of_projectives_morphism(M.pres, summands, M, images)
    return epi.source, epi, tuple(summands)


def kernel_submodule(f: ModuleMorphism):
    """(ker f, inclusion) as a subrepresentation of the source."""
    spaces = {v: f.maps[v].kernel() for v in f.source.pres.quiver.vertices}
    return subrepresentation(f.source, spaces)


def restrict_to_submodule(f: ModuleMorphism, incl: ModuleMorphism) -> ModuleMorphism:
    """Corestriction f_K with incl ∘ f_K = f ∘ incl, for f preserving im(incl)."""
    K = incl.source
    maps = {}
    for v in K.pres.quiver.vertices:
        rhs = f.maps[v] @ incl.maps[v]
        cols = []
        for j in range(K.dims[v]):
            col = [rhs.data[i][j] for i in range(rhs.rows)]
            sol = incl.maps[v].solve(col)
            if sol is None:
                raise ValueError("morphism does not preserve the submodule")
            cols.append(sol)
        maps[v] = RatMatrix(zip(*cols), cols=K.dims[v]) if cols and incl.maps[v].cols else \
            RatMatrix.zeros(K.dims[v], K.dims[v])
    return ModuleMorphism(K, K, maps, check=False)


def minimal_presentation(M: Representation) -> ProjectivePresentation:
    p0, epi, summands0 = _cover_data(M)
    ker, incl = kernel_submodule(epi)
    if ker.is_zero():
        p1 = zero_representation(M.pres)
        f1 = ModuleMorphism.zero(p1, p0)
        return ProjectivePresentation(p0, epi, summands0, p1, f1, ())
    p1, cover1, summands1 = _cover_data(ker)
    f1 = incl @ cover1
    return ProjectivePresentation(p0, epi, summands0, p1, f1, tuple(summands1))


# -- indecomposability, isomorphism, decomposition --------------------------

def _total_matrix(f: ModuleMorphism) -> RatMatrix:
    """Block-diagonal action of an endomorphism on the total space."""
    n = f.source.total_dim()
    data = [[0] * n for _ in range(n)]
    pos = 0
    for v in f.source.pres.quiver.vertices:
        m = f.maps[v]
        for i in range(m.rows):
            for j in range(m.cols):
                data[pos + i][pos + j] = m.data[i][j]
        pos += m.rows
    return RatMatrix._of(data, n)


def _poly_divmod(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and any(r):
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
        while r and not r[-1]:
            r.pop()
    return q, r


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_xgcd(a, b):
    """(g, u, v) monic with u*a + v*b = g."""
    r0, r1 = [Fraction(x) for x in a], [Fraction(x) for x in b]
    u0, u1 = [Fraction(1)], [Fraction(0)]
    v0, v1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, [x - y for x, y in _pad(u0, _poly_mul(q, u1))]
        v0, v1 = v1, [x - y for x, y in _pad(v0, _poly_mul(q, v1))]
    lead = r0[-1]
    return ([x / lead for x in r0], [x / lead for x in u0], [x / lead for x in v0])


def _pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def _int_primitive(poly):
    """Integer, content-free version of a rational coefficient list."""
    from math import gcd, lcm
    den = 1
    for c in poly:
        den = lcm(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in poly]
    while ints and ints[-1] == 0:
        ints.pop()
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def _divisors(n, cap):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
            if len(out) > cap:
                return None
        d += 1
    return sorted(out)


def _kronecker_factor(poly, budget=20000):
    """A nontrivial integer factor of an integer polynomial, or None.

    Classical interpolation search: a degree-d factor is pinned by its values
    at d+1 points, and those values divide the polynomial's values; the
    search is exact and bounded, and gives up (None) past the budget.
    """
    n = len(poly) - 1
    if n < 2:
        return None

    def evaluate(p, x):
        v = 0
        for c in reversed(p):
            v = v * x + c
        return v

    points = [0, 1, -1, 2, -2, 3, -3, 4, -4]
    tried = 0
    for d in range(1, n // 2 + 1):
        xs = points[: d + 1]
        values = []
        for x in xs:
            v = evaluate(poly, x)
            if v == 0:
                return [-x, 1]  # linear factor t - x
            divs = _divisors(v, 64)
            if divs is None:
                return None
            values.append([s * t for t in divs for s in (1, -1)])
        choice = [0] * (d + 1)
        while True:
            tried += 1
            if tried > budget:
                return None
            ys = [values[i][choice[i]] for i in range(d + 1)]
            cand = _lagrange(xs, ys)
            if cand is not None and len(cand) == d + 1 and d >= 1:
                q, r = _poly_divmod(poly, cand)
                if not any(r) and all(Fraction(c).denominator == 1 for c in q):
                    return cand
            k = 0
            while k <= d and choice[k] == len(values[k]) - 1:
                choice[k] = 0
                k += 1
            if k > d:
                break
            choice[k] += 1
    return None


def _lagrange(xs, ys):
    """Integer polynomial through the points, or None."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(ys[i])]
        den = 1
        for j in range(n):
            if j == i:
                continue
            num = _poly_mul(num, [Fraction(-xs[j]), Fraction(1)])
            den *= xs[i] - xs[j]
        for k in range(len(num)):
            coeffs[k] += num[k] / den
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs or len(coeffs) - 1 != n - 1:
        return None
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


def _irreducible_factors(poly, budget=20000):
    """Irreducible integer factors (no multiplicities tracked), or None."""
    stack = [_int_primitive(poly)]
    out = []
    while stack:
        p = stack.pop()
        if len(p) <= 2:
            out.append(p)
            continue
        f = _kronecker_factor(p, budget)
        if f is None:
            # either irreducible or the search gave up; divisibility settles it
            out.append(p)
            continue
        q, r = _poly_divmod(p, f)
        if any(r):
            out.append(p)
            continue
        stack.append(_int_primitive(f))
        stack.append(_int_primitive([c for c in q]))
    return out


def _coprime_split(poly):
    """(m1, m2) monic coprime with m1*m2 ~ poly, both nontrivial; or None."""
    mp = [Fraction(c) for c in poly]
    deriv = [i * c for i, c in enumerate(mp)][1:]
    g, _, _ = _poly_xgcd(mp, deriv) if any(deriv) else ([Fraction(1)], None, None)
    squarefree, _ = _poly_divmod(mp, g)
    factors = _irreducible_factors(squarefree)
    distinct = []
    for f in factors:
        monic = [Fraction(c, f[-1]) for c in f]
        if len(monic) >= 2 and monic not in distinct:
            distinct.append(monic)
    if len(distinct) < 2:
        return None
    # collect the full power of the first irreducible factor
    m1 = distinct[0]
    while True:
        nxt = _poly_mul(m1, distinct[0])
        _, r = _poly_divmod(mp, nxt)
        if any(r):
            break
        m1 = nxt
    m2, rem = _poly_divmod(mp, m1)
    if any(rem):
        return None
    return m1, m2


def _poly_eval_morphism(f: ModuleMorphism, coeffs) -> ModuleMorphism:
    ident = ModuleMorphism.identity(f.source)
    acc = ModuleMorphism.zero(f.source, f.source)
    for c in reversed(list(coeffs)):
        acc = acc @ f
        if c:
            acc = acc + ident.scaled(c)
    return acc


def _idempotent_candidates(end: HomSpace):
    basis = end.basis
    for b in basis:
        yield b
    n = len(basis)
    for i in range(n):
        for j in range(i + 1, n):
            yield basis[i] + basis[j]
            yield basis[i] - basis[j]
    # deterministic pseudo-random small combinations
    state = 123456789
    for _ in range(40):
        coeffs = []
        for _ in range(n):
            state = (1103515245 * state + 12345) % (1 << 31)
            coeffs.append((state % 7) - 3)
        if any(coeffs):
            yield end.element(coeffs)


def _find_split_idempotent(end: HomSpace) -> Optional[ModuleMorphism]:
    """Nontrivial idempotent from a coprime split of some candidate's
    minimal polynomial (the CRT projector), or None when no candidate splits
    rationally."""
    ident = ModuleMorphism.identity(end.source)
    for cand in _idempotent_candidates(end):
        if cand.is_zero():
            continue
        if ((cand @ cand) - cand).is_zero():
            # an idempotent other than 0 and 1 has minimal polynomial t² − t,
            # and the CRT projector of that split is the idempotent itself
            if not (cand - ident).is_zero():
                return cand
            continue
        mp = list(minimal_polynomial(_total_matrix(cand)))
        split = _coprime_split(mp)
        if split is None:
            continue
        m1, m2 = split
        g, u, v = _poly_xgcd(m1, m2)
        if len(g) != 1:
            continue
        e = _poly_eval_morphism(cand, _poly_mul(v, m2))  # = 1 mod m1, 0 mod m2
        if e.is_zero() or (e - ident).is_zero():
            continue
        if not ((e @ e) - e).is_zero():
            continue
        return e
    return None


def is_indecomposable(M: Representation) -> bool:
    """True iff End(M) is local: dim End - dim rad End = 1.

    Raises SplitFieldNeededError when End/rad has dimension > 1 but no
    splitting idempotent is detectable over the rationals.
    """
    if M.is_zero():
        raise ValueError("zero module")
    end = hom_space(M, M)
    rad = end_radical(end)
    if end.dim - rad.dim == 1:
        return True
    if _find_split_idempotent(end) is not None:
        return False
    raise SplitFieldNeededError(
        f"End/rad has dimension {end.dim - rad.dim} with no rational idempotent")


def decompose(M: Representation, with_inclusions: bool = False) -> list:
    """Indecomposable direct summands (Krull-Schmidt list, deterministic order).

    With ``with_inclusions`` each entry is a pair (summand, inclusion into
    M), and M is the internal direct sum of the inclusions' images.
    """
    if M.is_zero():
        return []
    end = hom_space(M, M)
    rad = end_radical(end)
    if end.dim - rad.dim == 1:
        return [(M, ModuleMorphism.identity(M))] if with_inclusions else [M]
    e = _find_split_idempotent(end)
    if e is None:
        raise SplitFieldNeededError(
            f"End/rad has dimension {end.dim - rad.dim} with no rational idempotent")
    quiver = M.pres.quiver
    im_spaces = {v: e.maps[v].image() for v in quiver.vertices}
    ker_spaces = {v: e.maps[v].kernel() for v in quiver.vertices}
    parts = (subrepresentation(M, im_spaces), subrepresentation(M, ker_spaces))
    if not with_inclusions:
        return [s for part, _ in parts for s in decompose(part)]
    return [(s, incl @ inner) for part, incl in parts
            for s, inner in decompose(part, True)]


def find_isomorphism(M: Representation, N: Representation) -> Optional[ModuleMorphism]:
    """An isomorphism M -> N, or None when the modules are not isomorphic.

    Fast paths: dimension vectors, then single basis morphisms (complete for
    indecomposables).  Fallback: the generic-combination determinant over a
    grid large enough that a nonzero determinant polynomial cannot vanish
    everywhere on it, so exhausting the grid certifies non-isomorphism.
    """
    if M.pres is not N.pres:
        return None
    if M.dim_vector() != N.dim_vector():
        return None
    if M.is_zero():
        return ModuleMorphism.zero(M, N)
    hom = hom_space(M, N)
    if hom.dim == 0:
        return None
    for b in hom.basis:
        if b.is_invertible():
            return b
    if hom.dim == 1:
        return None
    degree = M.total_dim()
    for coeffs in product(range(degree + 1), repeat=hom.dim):
        if not any(coeffs):
            continue
        cand = hom.element(coeffs)
        if cand.is_invertible():
            return cand
    return None


def are_isomorphic(M: Representation, N: Representation) -> bool:
    """Exact isomorphism test; see ``find_isomorphism``."""
    return find_isomorphism(M, N) is not None
