"""Modules as quiver representations.

Hom spaces, radical and socle, projective covers, indecomposability and
isomorphism over the rationals.  A projective cover is read off the
canonical echelon form of the radical: at each vertex its generators go to
the unit vectors at the non-pivot positions, which lift a basis of the top.
A map out of P_a is fixed by where its generator goes (Yoneda): its columns
come from ``_generator_images``, the one builder of maps out of projectives
for the cover, Tr D and the projective meshes.
Matrix convention: the matrix of an arrow maps the source component to the
target component, so the composite along a traversal-ordered path
(a1, a2, ...) is ``M_a2 @ M_a1`` and so on.
"""
from __future__ import annotations

from operator import mul
from typing import Dict, Optional, Sequence

from .errors import InconsistencyError, ShapeError, SplitFieldNeededError
from .linalg import RatMatrix, Subspace
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

    def dual(self) -> "Representation":
        """Dual module over the opposite presentation (matrices transpose)."""
        op = self.pres.opposite()
        mats = {a.name: self.matrices[a.name].transpose() for a in self.pres.quiver.arrows}
        return Representation(op, dict(self.dims), mats, check=False)

    def __repr__(self):
        return f"Representation(dim={list(self.dim_vector())})"


def zero_representation(pres: AlgebraPresentation) -> Representation:
    return Representation(pres, {}, {}, check=False)


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
        images = [model.reduce_path(p.extend(arr.name)) for p in basis[arr.source]]
        mats[arr.name] = RatMatrix.from_columns(images, dims[arr.target])
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
        maps[v] = RatMatrix._of_normal(rows, c)
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

    def element(self, coords: Sequence) -> ModuleMorphism:
        if len(coords) != self.dim:
            raise ShapeError(f"{len(coords)} coordinates for a Hom space of dimension {self.dim}")
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
    if ambient == 0:
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
                rows.append(row)
    return HomSpace(M, N, Subspace.kernel_of(ambient, rows))


def end_radical(end: HomSpace) -> Subspace:
    """Radical of End(M) in End-basis coordinates: the kernel of the trace
    form (x, y) -> tr_M(x∘y).

    That kernel is an ideal, and for x in it tr_M(x^k) = tr_M(x∘x^(k-1)) = 0
    for every k ≥ 1 (End(M) holds the identity), so over Q every x in it is
    nilpotent; conversely x∘y is nilpotent, of trace 0, for x in the radical.
    """
    M = end.source
    swap = []  # tr(x∘y) pairs x_v[k][l] with y_v[l][k]
    pos = 0
    for v in M.pres.quiver.vertices:
        d = M.dims[v]
        swap.extend(pos + l * d + k for k in range(d) for l in range(d))
        pos += d * d
    rows = end.space.basis
    swapped = [[y[p] for p in swap] for y in rows]
    gram = [[sum(map(mul, x, y)) for y in swapped] for x in rows]
    return RatMatrix._of(gram, len(rows)).kernel()


# -- structural submodules --------------------------------------------------

def subrepresentation(M: Representation, subspaces: Dict[str, Subspace]):
    """(subrep, inclusion) for arrow-invariant per-vertex subspaces."""
    quiver = M.pres.quiver
    dims = {v: subspaces[v].dim for v in quiver.vertices}
    incl = {}
    for v in quiver.vertices:
        incl[v] = RatMatrix.from_columns(subspaces[v].basis, M.dims[v])
    mats = {}
    for a in quiver.arrows:
        cols = []
        for row in subspaces[a.source].basis:
            image = M.matrices[a.name].apply(list(row))
            coords = subspaces[a.target].coords(image)
            if coords is None:
                raise ValueError(f"subspaces not invariant under arrow {a.name}")
            cols.append(coords)
        mats[a.name] = RatMatrix.from_columns(cols, dims[a.target])
    sub = Representation(M.pres, dims, mats, check=False)
    inclusion = ModuleMorphism(sub, M, incl, check=False)
    return sub, inclusion


def quotient_representation(summands: Sequence[Representation],
                            subspaces: Dict[str, Subspace]):
    """(quotient, projection) of E = ⊕ summands by arrow-invariant per-vertex
    subspaces; the projection is one matrix per vertex, from E_v.

    The basis of the quotient at v is the image of the unit vectors at the
    non-pivot positions of ``subspaces[v]``, so an arrow acts on it by the
    quotient coordinates of E's arrow matrix at those columns
    (``Subspace.quotient_columns``); the projection is
    ``Subspace.quotient_matrix``.  E's arrows are block-diagonal, so those
    columns are read block by block off the summands: a row of block k is
    zero off the source columns of block k.  E is never built.  An arrow
    whose quotient is zero at either end acts by the cached zero matrix, and
    the projection at a vertex with zero image is the cached identity.
    """
    quiver = summands[0].pres.quiver
    nonp = {v: subspaces[v].nonpivots() for v in quiver.vertices}
    dims = {v: len(cols) for v, cols in nonp.items()}
    # v -> per summand: (first and last+1 position in nonp[v], its columns
    # there as columns of the summand)
    blocks = {}
    for v, cols in nonp.items():
        out, i, offset = [], 0, 0
        for Y in summands:
            j, end = i, offset + Y.dims[v]
            while j < len(cols) and cols[j] < end:
                j += 1
            out.append((i, j, [c - offset for c in cols[i:j]]))
            i, offset = j, end
        blocks[v] = out
    mats = {}
    for a in quiver.arrows:
        width = dims[a.source]
        if not (width and dims[a.target]):
            mats[a.name] = RatMatrix.zeros(dims[a.target], width)
            continue
        lifted = []
        for Y, (i, j, cols) in zip(summands, blocks[a.source]):
            head, tail = [0] * i, [0] * (width - j)
            lifted += [head + [row[c] for c in cols] + tail for row in Y.matrices[a.name].data]
        mats[a.name] = subspaces[a.target].quotient_columns(lifted, width)
    quo = Representation(summands[0].pres, dims, mats, check=False)
    return quo, {v: RatMatrix.identity(dims[v]) if subspaces[v].is_zero()
                 else subspaces[v].quotient_matrix() for v in quiver.vertices}


def radical_spaces(M: Representation) -> Dict[str, Subspace]:
    """v -> (rad M)_v, the span of the images of the arrows into v."""
    quiver = M.pres.quiver
    out = {}
    for v in quiver.vertices:
        vecs = []
        for a in quiver.in_arrows(v):
            mat = M.matrices[a.name]
            vecs.extend(zip(*mat.data) if mat.data else [])
        out[v] = Subspace.from_vectors(M.dims[v], vecs)
    return out


def socle_spaces(M: Representation) -> Dict[str, Subspace]:
    """v -> (soc M)_v, the joint kernel of the arrows out of v."""
    quiver = M.pres.quiver
    out = {}
    for v in quiver.vertices:
        rows = []
        for a in quiver.out_arrows(v):
            rows.extend(M.matrices[a.name].data)
        out[v] = Subspace.kernel_of(M.dims[v], rows)
    return out


def radical_submodule(M: Representation):
    """rad M = span of the images of all arrow maps, with its inclusion."""
    return subrepresentation(M, radical_spaces(M))


# -- projective covers ------------------------------------------------------

def _generator_images(M: Representation, a: str, vec: Sequence) -> Dict[str, list]:
    """v -> the images of vec in M_a along the paths of basis(a, v): the
    columns at v of the map P_a -> M that sends the generator to vec (Yoneda,
    ASS III.2).  Each prefix is walked once, one arrow matrix at a time."""
    images = {(): list(vec)}

    def img(arrows: tuple) -> list:
        got = images.get(arrows)
        if got is None:
            got = M.matrices[arrows[-1]].apply(img(arrows[:-1]))
            images[arrows] = got
        return got

    model = M.pres.model()
    return {v: [img(p.arrows) for p in model.basis(a, v)] for v in M.pres.quiver.vertices}


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
        mats[a.name] = RatMatrix._of_normal(data, cols)
    return Representation(pres, dims, mats, check=False)


def top_generators(M: Representation) -> list:
    """(a, c) for each unit vector of M_a at a non-pivot position c of the
    canonical echelon form of rad M_a; those unit vectors lift a basis of
    the top at a."""
    return [(a, c) for a, rad in radical_spaces(M).items() for c in rad.nonpivots()]


def projective_cover(M: Representation):
    """(P, epi, summands): one summand P_a per top generator at a (see
    ``top_generators``), and epi sends its generator to that unit vector;
    its columns are the generators' images (``_generator_images``)."""
    if M.is_zero():
        raise ValueError("zero module has no projective cover")
    gens = top_generators(M)
    if not gens:
        raise InconsistencyError("nonzero module with zero top")
    cols = {v: [] for v in M.pres.quiver.vertices}
    for a, c in gens:
        for v, images in _generator_images(M, a, [int(k == c) for k in range(M.dims[a])]).items():
            cols[v] += images
    summands = tuple(a for a, _ in gens)
    P = direct_sum([projective(M.pres, a) for a in summands])
    maps = {v: RatMatrix.from_columns(images, M.dims[v]) for v, images in cols.items()}
    return P, ModuleMorphism(P, M, maps, check=False), summands


def kernel_submodule(f: ModuleMorphism):
    """(ker f, inclusion) as a subrepresentation of the source."""
    spaces = {v: f.maps[v].kernel() for v in f.source.pres.quiver.vertices}
    return subrepresentation(f.source, spaces)


# -- indecomposability, isomorphism, decomposition --------------------------

def _fitting_power(M: Representation) -> Optional[ModuleMorphism]:
    """None when End(M) is local; otherwise an endomorphism f with
    M = im f ⊕ ker f and both parts nonzero (Fitting's lemma).

    f is a power of the first End-basis element that is neither nilpotent
    nor invertible, squared until its rank stops falling: at most
    ⌈log₂ dim M⌉ squarings.  Raises SplitFieldNeededError when End/rad has
    dimension > 1 but no basis element qualifies.
    """
    end = hom_space(M, M)
    rad = end_radical(end)
    if end.dim - rad.dim == 1:
        return None
    n = M.total_dim()
    for f in end.basis:
        r = f.rank()
        if r == n:
            continue
        while True:
            sq = f @ f
            r_sq = sq.rank()
            if r_sq == r:
                break
            f, r = sq, r_sq
        if r:
            return f
    raise SplitFieldNeededError(
        f"End/rad has dimension {end.dim - rad.dim} with no rational idempotent")


def is_indecomposable(M: Representation) -> bool:
    """True iff End(M) is local: dim End - dim rad End = 1.

    Raises SplitFieldNeededError when End/rad has dimension > 1 but no
    End-basis element splits M (see ``_fitting_power``).
    """
    if M.is_zero():
        raise ValueError("zero module")
    return _fitting_power(M) is None


def decompose(M: Representation) -> list:
    """(summand, inclusion into M) for each indecomposable direct summand
    (Krull-Schmidt list, deterministic order); M is the internal direct sum
    of the inclusions' images.
    """
    if M.is_zero():
        return []
    f = _fitting_power(M)
    if f is None:
        return [(M, ModuleMorphism.identity(M))]
    quiver = M.pres.quiver
    im_spaces = {v: f.maps[v].image() for v in quiver.vertices}
    ker_spaces = {v: f.maps[v].kernel() for v in quiver.vertices}
    parts = (subrepresentation(M, im_spaces), subrepresentation(M, ker_spaces))
    return [(s, incl @ inner) for part, incl in parts for s, inner in decompose(part)]


def find_isomorphism(M: Representation, N: Representation) -> Optional[ModuleMorphism]:
    """An isomorphism M -> N, or None when the modules are not isomorphic.

    The isomorphism is an invertible basis element of Hom(M, N).  That test
    is complete when M or N is indecomposable: the non-isomorphisms then
    form a proper subspace of Hom(M, N), which cannot hold a basis.  When it
    misses on a Hom space of dimension ≥ 2, one side must be certified
    indecomposable; two decomposable modules raise ValueError.
    """
    if M.pres is not N.pres or M.dim_vector() != N.dim_vector():
        return None
    if M.is_zero():
        return ModuleMorphism.zero(M, N)
    hom = hom_space(M, N)
    for b in hom.basis:
        if b.is_invertible():
            return b
    if hom.dim <= 1 or is_indecomposable(M) or is_indecomposable(N):
        return None
    raise ValueError("isomorphism test needs an indecomposable side")


def are_isomorphic(M: Representation, N: Representation) -> bool:
    """Exact isomorphism test; see ``find_isomorphism``."""
    return find_isomorphism(M, N) is not None
