"""Dense reference radical filtration, kept as a test oracle.

Layer one over a complete list of indecomposables is every Hom space between
distinct nodes plus the radical of each endomorphism algebra (trace-form
kernel); layer n+1 is spanned by composites of a layer-one morphism after a
layer-n morphism, summed over all intermediate nodes.  It builds the rows
of every source node it is asked for and knows nothing of almost split
sequences, so it checks the sparse filtration in ``quivrad.radical``
independently.  ``morphism_length`` asks only for the row of the morphism's
source, and keeps one oracle per filtration.

Ahead of the oracle, ``hom`` and ``hom_pairs``: the Hom spaces between
the nodes of a filtration, each built once per filtration, for the tests
that read a Hom basis.  The package builds a Hom space only where it needs
its basis.

Below the oracle, the Hom-space route through the simples: the composites
P_a -> S_a -> I_a and the witness searches of ``lemma_refe`` as rank tests
on composites of whole Hom spaces.  The package reads both off one vertex
space (Yoneda), so this route checks that reading.

Then the quotient by unit vectors: the projection as the quotient
coordinates of every unit vector, and each arrow of the quotient through a
dense section matrix.  The package reads the projection off the reduced
echelon rows and the arrows off the columns, so this route checks both.

Last, modules, maps and lengths the package has no use for: the socle as a
submodule (the package reads only its spaces), S_a and I_a built on
path classes (the package finds them among the knitted nodes), the map out
of P_a as a morphism (the package reads only its columns), mono and epi
tests, and the radical length of any morphism between two nodes, the
general form of ``canonical_r``, read in the dense chains.
"""
import weakref

from quivrad.errors import InconsistencyError
from quivrad.linalg import RatMatrix, Subspace
from quivrad.quiver import Path
from quivrad.rep import (ModuleMorphism, Representation, end_radical, hom_space, morphism_ambient,
                         projective, socle_spaces, subrepresentation)


_HOMS = weakref.WeakKeyDictionary()  # filt -> {(i, j): Hom(node_i, node_j), or None if zero}


def hom(filt, i, j):
    """Hom(node_i, node_j) of a filtration, or None when it is zero;
    computed once per filtration and pair."""
    known = _HOMS.setdefault(filt, {})
    if (i, j) not in known:
        hs = hom_space(filt.reps[i], filt.reps[j])
        known[i, j] = hs if hs.dim else None
    return known[i, j]


def hom_pairs(filt):
    """Every (i, j) with Hom(node_i, node_j) nonzero, in order."""
    n = len(filt.reps)
    return [(i, j) for i in range(n) for j in range(n) if hom(filt, i, j)]


class DenseFiltration:
    """R^n(i, j) for nodes i, j as a chain of subspaces of Hom(i, j) in its
    basis coordinates, one source row at a time: R(i, j) is Hom(i, j), or
    rad End(i) when i = j, and R^{n+1}(i, j) is spanned by the composites
    R(k, j) ∘ R^n(i, k) over every node k.  A row is built only when asked
    for, with the Hom spaces out of the nodes it reaches."""

    def __init__(self, reps):
        self.reps = list(reps)
        self.hom = {}  # (i, j) -> nonzero Hom(i, j), filled source by source
        self.chains = {}  # (i, j) -> [R(i, j), R²(i, j), ...], the nonzero layers
        self._rad1_out = {}  # k -> [(j, R(k, j))], the nonzero ones
        self._depth = {}  # row i -> layers computed; the last one was zero once done
        self._done = set()
        self._tensors = {}

    def _out(self, k):
        """Layer one of row k, computing the Hom spaces out of node k."""
        if k not in self._rad1_out:
            self._rad1_out[k] = []
            for j, target in enumerate(self.reps):
                hs = hom_space(self.reps[k], target)
                if hs.dim:
                    self.hom[(k, j)] = hs
                    first = end_radical(hs) if k == j else Subspace.full(hs.dim)
                    if first.dim:
                        self._rad1_out[k].append((j, first))
        return self._rad1_out[k]

    def _tensor(self, i, k, j):
        """coords in Hom(i, j) of (basis v of Hom(k, j)) ∘ (basis u of Hom(i, k))."""
        key = (i, k, j)
        if key not in self._tensors:
            hik, hkj, hij = self.hom[(i, k)], self.hom[(k, j)], self.hom[(i, j)]
            tensor = []
            for f in hik.basis:
                row = []
                for g in hkj.basis:
                    coords = hij.space.coords((g @ f).flatten())
                    if coords is None:
                        raise InconsistencyError("composite escaped its Hom space")
                    row.append(coords)
                tensor.append(row)
            self._tensors[key] = tensor
        return self._tensors[key]

    def _advance(self, i):
        """Layer depth+1 of row i from its layer depth and layer one."""
        n = self._depth[i]
        acc = {}
        for k, _ in self._out(i):
            chain = self.chains[(i, k)]
            if len(chain) < n:
                continue
            for j, s1 in self._out(k):
                if (i, j) not in self.hom:
                    continue
                tensor = self._tensor(i, k, j)
                vecs = acc.setdefault(j, [])
                for fu in chain[n - 1].basis:
                    for gv in s1.basis:
                        out = [0] * self.hom[(i, j)].dim
                        for u, cu in enumerate(fu):
                            for v, cv in enumerate(gv):
                                if cu and cv:
                                    for t, x in enumerate(tensor[u][v]):
                                        out[t] += cu * cv * x
                        vecs.append(out)
        grew = False
        for j, vecs in acc.items():
            sub = Subspace.from_vectors(self.hom[(i, j)].dim, vecs)
            if sub.dim:
                self.chains[(i, j)].append(sub)
                grew = True
        self._depth[i] = n + 1
        if not grew:
            self._done.add(i)

    def ensure_row(self, i, n):
        """Layers 1..n of row i, or all of them when fewer are nonzero."""
        if i not in self._depth:
            for j, first in self._out(i):
                self.chains[(i, j)] = [first]
            self._depth[i] = 1
            if not self._rad1_out[i]:
                self._done.add(i)
        while i not in self._done and self._depth[i] < n:
            self._advance(i)

    def ensure_depth(self, n):
        for i in range(len(self.reps)):
            self.ensure_row(i, n)

    @property
    def complete(self):
        """Whether every row is built to its first zero layer."""
        return len(self._done) == len(self.reps)

    def layers_computed(self):
        return max((len(c) for c in self.chains.values()), default=0)

    def dim_irr(self, i, j):
        """dim R(i, j) - dim R²(i, j)."""
        self.ensure_row(i, 2)
        chain = self.chains.get((i, j), [])
        return (chain[0].dim if chain else 0) - (chain[1].dim if len(chain) > 1 else 0)


# -- the Hom-space route through the simples ------------------------------------

def canonical_maps(filt, a):
    """(p, q): the maps P_a -> S_a and S_a -> I_a, each spanning its Hom space."""
    ip, is_, ii = filt.projective_index(a), filt.aliases[f"S_{a}"], filt.injective_index(a)
    hp, hq = hom(filt, ip, is_), hom(filt, is_, ii)
    if hp is None or hp.dim != 1 or hq is None or hq.dim != 1:
        raise InconsistencyError(
            f"Hom(P_{a}, S_{a}) and Hom(S_{a}, I_{a}) must be one-dimensional")
    return hp.basis[0], hq.basis[0]


def through_simple(filt, a, j):
    """A spanning list of the morphisms P_a -> node_j factoring through S_a."""
    p, _ = canonical_maps(filt, a)
    hs = hom(filt, filt.aliases[f"S_{a}"], j)
    return [h @ p for h in hs.basis] if hs else []


def through_simple_dual(filt, b, i):
    """A spanning list of the morphisms node_i -> I_b factoring through S_b."""
    _, q = canonical_maps(filt, b)
    hs = hom(filt, i, filt.aliases[f"S_{b}"])
    return [q @ h for h in hs.basis] if hs else []


def flat_span(morphisms, ambient):
    return Subspace.from_vectors(ambient, [m.flatten() for m in morphisms])


def composites_meet(comps, target):
    """Whether some morphism in the span L of ``comps`` is nonzero and in the
    flattened subspace T = ``target``: dim(L + T) < dim L + dim T.  This
    reaches combinations past the basis and its pairwise sums."""
    span = flat_span(comps, target.ambient)
    return (span + target).dim < span.dim + target.dim


def non_isomorphisms(filt, i, j):
    """A basis of Hom(node_i, node_j), or of rad End(node_i) when i = j."""
    hs = hom(filt, i, j)
    if hs is None:
        return []
    return hs.basis if i != j else [hs.element(r) for r in end_radical(hs).basis]


def witness_exists(filt, f, mid, end, vertex, side, searches=None):
    """Whether a non-isomorphism phi: node mid -> node end has phi∘f (side
    'post') or f∘phi (side 'pre') nonzero and factoring through S_vertex.
    ``searches``, when given, collects (source, composites, spanning list of
    the morphisms through S_vertex) with the source of both lists."""
    phis = non_isomorphisms(filt, mid, end)
    if side == "post":
        source, target = f.source, filt.reps[end]
        comps, through = [phi @ f for phi in phis], through_simple(filt, vertex, end)
    else:
        source, target = filt.reps[mid], f.target
        comps, through = [f @ phi for phi in phis], through_simple_dual(filt, vertex, mid)
    if searches is not None:
        searches.append((source, comps, through))
    return composites_meet(comps, flat_span(through, morphism_ambient(source, target)))


def lemma_refe(filt, searches=None):
    """``check_lemma_refe`` by Hom-space composites through S_a and S_b."""
    results = []
    vertices = filt.pres.quiver.vertices
    for a in vertices:
        ip, ia = filt.projective_index(a), filt.injective_index(a)
        for b in vertices:
            pb, ib = filt.projective_index(b), filt.injective_index(b)
            hs = hom(filt, ip, ib)
            if hs is None:
                continue
            through_a = flat_span(through_simple(filt, a, ib), hs.space.ambient)
            through_b = flat_span(through_simple_dual(filt, b, ip), hs.space.ambient)
            for f in hs.basis:
                if through_a.contains_vector(f.flatten()):
                    results.append({"a": a, "b": b, "case": "vacuous"})
                elif witness_exists(filt, f, ib, ia, a, "post", searches):
                    results.append({"a": a, "b": b, "case": "post-composition"})
                else:
                    raise InconsistencyError(f"no witness I_{b} -> I_{a}")
                if through_b.contains_vector(f.flatten()):
                    results.append({"a": a, "b": b, "case": "dual-vacuous"})
                elif witness_exists(filt, f, pb, ip, b, "pre", searches):
                    results.append({"a": a, "b": b, "case": "pre-composition"})
                else:
                    raise InconsistencyError(f"no witness P_{b} -> P_{a}")
    return results


# -- the quotient by unit vectors -------------------------------------------------

def quotient_by_unit_vectors(M, subspaces):
    """``rep.quotient_representation`` through ``quotient_coords`` of every
    unit vector and a section matrix of unit vectors at the non-pivot columns."""
    quiver = M.pres.quiver
    dims, proj, sections = {}, {}, {}
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
    mats = {a.name: proj[a.target] @ M.matrices[a.name] @ sections[a.source]
            for a in quiver.arrows}
    quo = Representation(M.pres, dims, mats, check=False)
    return quo, ModuleMorphism(M, quo, proj, check=False)


# -- modules and radical lengths ----------------------------------------------------

def socle(M):
    """soc M, the joint kernel of the arrows out of each vertex, with its inclusion."""
    return subrepresentation(M, socle_spaces(M))


def simple(pres, a):
    """S_a: one dimension at a, every arrow zero."""
    return Representation(pres, {str(a): 1}, {}, check=False)


def injective(pres, a):
    """I_a dual to the path classes into a."""
    a = str(a)
    model = pres.model()
    basis = {v: model.basis(v, a) for v in pres.quiver.vertices}
    dims = {v: len(b) for v, b in basis.items()}
    mats = {}
    for arr in pres.quiver.arrows:
        # row q: the class of arr then q, a functional on the paths source -> a
        rows = [model.reduce_path(Path(pres.quiver, arr.source, (arr.name,) + q.arrows))
                for q in basis[arr.target]]
        mats[arr.name] = RatMatrix(rows, cols=dims[arr.source]) if rows else \
            RatMatrix.zeros(0, dims[arr.source])
    return Representation(pres, dims, mats, check=False)


def morphism_from_projective(pres, a, M, vec):
    """The morphism P_a -> M sending the trivial-path generator to vec in M_a:
    each path of basis(a, v) applied to vec as one product of its arrow
    matrices (``Representation.path_matrix``)."""
    a = str(a)
    maps = {}
    for v in pres.quiver.vertices:
        cols = [M.path_matrix(p).apply(vec) for p in pres.model().basis(a, v)]
        maps[v] = RatMatrix(zip(*cols), cols=len(cols)) if cols and M.dims[v] else \
            RatMatrix.zeros(M.dims[v], len(cols))
    return ModuleMorphism(projective(pres, a), M, maps, check=False)


def is_mono(f):
    return f.rank() == f.source.total_dim()


def is_epi(f):
    return f.rank() == f.target.total_dim()


def node_index(filt, rep):
    """The index of the filtration node that is ``rep``, or holds the same data."""
    for i, r in enumerate(filt.reps):
        if r is rep:
            return i
    for i, r in enumerate(filt.reps):
        if r.pres is rep.pres and r.dims == rep.dims and r.matrices == rep.matrices:
            return i
    raise ValueError("representation is not a filtration node")


_DENSE = {}  # id(filt) -> (filt, the dense oracle over its nodes)


def morphism_length(f, filt):
    """Largest n with f in R^n, read in the dense oracle's chain of its pair
    over the filtration's nodes; 0 for morphisms outside the radical."""
    if f.is_zero():
        raise ValueError("the zero morphism has no radical length")
    i, j = node_index(filt, f.source), node_index(filt, f.target)
    if not f._intertwines():
        raise ValueError("morphism does not intertwine (not in the Hom space)")
    if id(filt) not in _DENSE:
        _DENSE[id(filt)] = (filt, DenseFiltration(filt.reps))
    dense = _DENSE[id(filt)][1]
    dense.ensure_row(i, 1)
    coords = dense.hom[(i, j)].space.coords(f.flatten())
    n = 0
    while True:
        dense.ensure_row(i, n + 1)
        chain = dense.chains.get((i, j), ())
        if n == len(chain) or not chain[n].contains_vector(coords):
            return n
        n += 1
