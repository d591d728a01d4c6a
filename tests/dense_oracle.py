"""Dense reference radical filtration, kept as a test oracle.

Layer one over a complete list of indecomposables is every Hom space between
distinct nodes plus the radical of each endomorphism algebra (trace-form
kernel); layer n+1 is spanned by composites of a layer-n morphism after a
layer-one morphism, summed over all intermediate nodes.  It computes every
pair and knows nothing of almost split sequences, so it checks the sparse
filtration in ``quivrad.radical`` independently.  Too slow for ``ex_2_5``.

Below it, the Hom-space route through the simples: the composites
P_a -> S_a -> I_a and the witness searches of ``lemma_refe`` as rank tests
on composites of whole Hom spaces.  The package reads both off one vertex
space (Yoneda), so this route checks that reading.

Then the quotient by unit vectors: the projection as the quotient
coordinates of every unit vector, and each arrow of the quotient through a
dense section matrix.  The package reads the projection off the reduced
echelon rows and the arrows off the columns, so this route checks both.

Last, modules and lengths the package has no use for: S_a and I_a built on
path classes (the package finds them among the knitted nodes), mono and epi
tests, and the radical length of any morphism between two nodes, the
general form of ``canonical_r``.
"""
from quivrad.errors import InconsistencyError
from quivrad.linalg import RatMatrix, Subspace
from quivrad.quiver import Path
from quivrad.rep import ModuleMorphism, Representation, end_radical, hom_space, morphism_ambient


class DenseFiltration:
    def __init__(self, reps):
        self.reps = list(reps)
        n = len(self.reps)
        self.hom = {}
        for i in range(n):
            for j in range(n):
                hs = hom_space(self.reps[i], self.reps[j])
                if hs.dim:
                    self.hom[(i, j)] = hs
        self.chains = {}
        self._rad1_out = {}
        for (i, j), hs in self.hom.items():
            first = end_radical(hs) if i == j else Subspace.full(hs.dim)
            if first.dim:
                self.chains[(i, j)] = [first]
                self._rad1_out.setdefault(i, []).append((j, first))
        self.depth = 1
        self.complete = not self.chains
        self._tensors = {}

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

    def _advance(self):
        """Layer depth+1 of every pair from layer depth and layer one."""
        n = self.depth
        cur_by_src = {}
        for (k, j), chain in self.chains.items():
            if len(chain) >= n:
                cur_by_src.setdefault(k, []).append((j, chain[n - 1]))
        grew = False
        for i, outs in self._rad1_out.items():
            acc = {}
            for k, s1 in outs:
                for j, sn in cur_by_src.get(k, ()):
                    if (i, j) not in self.hom:
                        continue
                    tensor = self._tensor(i, k, j)
                    vecs = acc.setdefault(j, [])
                    for fu in s1.basis:
                        for gv in sn.basis:
                            out = [0] * self.hom[(i, j)].dim
                            for u, cu in enumerate(fu):
                                for v, cv in enumerate(gv):
                                    if cu and cv:
                                        for t, x in enumerate(tensor[u][v]):
                                            out[t] += cu * cv * x
                            vecs.append(out)
            for j, vecs in acc.items():
                sub = Subspace.from_vectors(self.hom[(i, j)].dim, vecs)
                if sub.dim:
                    self.chains[(i, j)].append(sub)
                    grew = True
        self.depth += 1
        self.complete = not grew

    def ensure_depth(self, n):
        while not self.complete and self.depth < n:
            self._advance()

    def layers_computed(self):
        return max((len(c) for c in self.chains.values()), default=0)

    def dim_irr(self, i, j):
        """dim R(i, j) - dim R²(i, j)."""
        self.ensure_depth(2)
        chain = self.chains.get((i, j), [])
        return (chain[0].dim if chain else 0) - (chain[1].dim if len(chain) > 1 else 0)


# -- the Hom-space route through the simples ------------------------------------

def canonical_maps(filt, a):
    """(p, q): the maps P_a -> S_a and S_a -> I_a, each spanning its Hom space."""
    ip, is_, ii = filt.projective_index(a), filt.aliases[f"S_{a}"], filt.injective_index(a)
    hp, hq = filt.hom.get((ip, is_)), filt.hom.get((is_, ii))
    if hp is None or hp.dim != 1 or hq is None or hq.dim != 1:
        raise InconsistencyError(
            f"Hom(P_{a}, S_{a}) and Hom(S_{a}, I_{a}) must be one-dimensional")
    return hp.basis[0], hq.basis[0]


def through_simple(filt, a, j):
    """A spanning list of the morphisms P_a -> node_j factoring through S_a."""
    p, _ = canonical_maps(filt, a)
    hs = filt.hom.get((filt.aliases[f"S_{a}"], j))
    return [h @ p for h in hs.basis] if hs else []


def through_simple_dual(filt, b, i):
    """A spanning list of the morphisms node_i -> I_b factoring through S_b."""
    _, q = canonical_maps(filt, b)
    hs = filt.hom.get((i, filt.aliases[f"S_{b}"]))
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
    hs = filt.hom.get((i, j))
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
            hs = filt.hom.get((ip, ib))
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


def morphism_length(f, filt):
    """Largest n with f in R^n; 0 for morphisms outside the radical."""
    if f.is_zero():
        raise ValueError("the zero morphism has no radical length")
    i, j = node_index(filt, f.source), node_index(filt, f.target)
    if not f._intertwines():
        raise ValueError("morphism does not intertwine (not in the Hom space)")
    # nonzero, as the generators generate node i
    values = filt.at_generators(i, f)
    n = 0
    while filt.subspace(i, j, n + 1).contains_vector(values):
        n += 1
    return n
