"""Radical filtration of the module category and the nilpotency index.

Layer one over a complete list of indecomposables is every Hom space between
distinct nodes plus the radical of each endomorphism algebra; layer n+1 is
spanned by composites of a layer-n morphism after a layer-one morphism,
summed over all intermediate nodes.  All subspaces live in coordinates over
the canonical Hom bases, so membership and equality are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from .errors import InconsistencyError, MethodInapplicableError
from .linalg import Subspace
from .quiver import (
    AlgebraPresentation,
    classify,
    sinks_and_sources,
    zero_relation_vertices,
)
from .rep import (
    HomSpace,
    ModuleMorphism,
    Representation,
    are_isomorphic,
    end_radical,
    hom_space,
    injective,
    projective,
    simple,
)


def _alias_table(pres: AlgebraPresentation, reps: Sequence[Representation]) -> Dict[str, int]:
    """``P_a``/``I_a``/``S_a`` -> index of the first node isomorphic to it.

    Keys run over the vertices in order, P before I before S; a module with
    no isomorphic node gets no key.
    """
    buckets: Dict[tuple, list] = {}
    for i, r in enumerate(reps):
        buckets.setdefault(r.dim_vector(), []).append(i)
    table: Dict[str, int] = {}
    for a in pres.quiver.vertices:
        for tag, build in (("P", projective), ("I", injective), ("S", simple)):
            target = build(pres, a)
            for i in buckets.get(target.dim_vector(), ()):
                if are_isomorphic(reps[i], target):
                    table[f"{tag}_{a}"] = i
                    break
    return table


class RadicalFiltration:
    """Descending chains R ⊇ R² ⊇ … for every ordered pair of nodes.

    Layers are computed on demand; ``ensure_complete`` iterates until every
    chain has reached zero, which must happen for representation-finite
    input (a safety bound turns a non-terminating run into an error).
    """

    def __init__(self, pres: AlgebraPresentation, nodes: Sequence[Representation]):
        self.pres = pres
        self.reps = list(nodes)
        n = len(self.reps)
        self.hom: Dict[tuple, HomSpace] = {}
        for i in range(n):
            for j in range(n):
                hs = hom_space(self.reps[i], self.reps[j])
                if hs.dim:
                    self.hom[(i, j)] = hs
        self.chains: Dict[tuple, list] = {}
        self._rad1_out: Dict[int, list] = {}
        for (i, j), hs in self.hom.items():
            if i == j:
                first = end_radical(hs)
            else:
                first = Subspace.full(hs.dim)
            if first.dim:
                self.chains[(i, j)] = [first]
                self._rad1_out.setdefault(i, []).append((j, first))
        self._depth = 1
        self._complete = not self.chains
        self._tensors: Dict[tuple, Optional[list]] = {}
        self.aliases = _alias_table(pres, self.reps)
        self._length_bound = 1 + sum(hs.dim for hs in self.hom.values())

    # -- node bookkeeping ----------------------------------------------------

    def node_index(self, rep: Representation) -> int:
        for i, r in enumerate(self.reps):
            if r is rep:
                return i
        for i, r in enumerate(self.reps):
            if r.same_data(rep):
                return i
        raise ValueError("representation is not a filtration node")

    def _alias_index(self, key: str) -> int:
        if key not in self.aliases:
            raise ValueError(f"{key} is not among the filtration nodes")
        return self.aliases[key]

    def projective_index(self, a: str) -> int:
        return self._alias_index(f"P_{a}")

    def injective_index(self, a: str) -> int:
        return self._alias_index(f"I_{a}")

    def simple_index(self, a: str) -> int:
        return self._alias_index(f"S_{a}")

    # -- layers ---------------------------------------------------------------

    def hom_pairs(self) -> Iterable[tuple]:
        return self.hom.keys()

    def _tensor(self, i: int, k: int, j: int) -> Optional[list]:
        key = (i, k, j)
        if key in self._tensors:
            return self._tensors[key]
        hij = self.hom.get((i, j))
        hik = self.hom[(i, k)]
        hkj = self.hom[(k, j)]
        if hij is None:
            self._tensors[key] = None  # all composites are zero
            return None
        tensor = []
        for u in range(hik.dim):
            row = []
            for v in range(hkj.dim):
                comp = hkj.basis[v] @ hik.basis[u]
                coords = hij.coords(comp)
                if coords is None:
                    raise InconsistencyError("composite escaped its Hom space")
                row.append(coords)
            tensor.append(row)
        self._tensors[key] = tensor
        return tensor

    def _advance(self) -> None:
        """Compute layer depth+1 for every pair from layer depth and layer 1."""
        n = self._depth
        cur_by_src: Dict[int, list] = {}
        for (k, j), chain in self.chains.items():
            if len(chain) >= n:
                cur_by_src.setdefault(k, []).append((j, chain[n - 1]))
        grew = False
        for i, outs in self._rad1_out.items():
            acc: Dict[int, list] = {}
            for (k, s1) in outs:
                for (j, sn) in cur_by_src.get(k, ()):
                    hij = self.hom.get((i, j))
                    if hij is None:
                        continue
                    tensor = self._tensor(i, k, j)
                    if tensor is None:
                        continue
                    vecs = acc.setdefault(j, [])
                    for fu in s1.basis:
                        for gv in sn.basis:
                            out = [0] * hij.dim
                            for u, cu in enumerate(fu):
                                if not cu:
                                    continue
                                row = tensor[u]
                                for v, cv in enumerate(gv):
                                    if not cv:
                                        continue
                                    cell = row[v]
                                    f = cu * cv
                                    for t, x in enumerate(cell):
                                        if x:
                                            out[t] += f * x
                            if any(out):
                                vecs.append(out)
            for j, vecs in acc.items():
                sub = Subspace.from_vectors(self.hom[(i, j)].dim, vecs)
                if sub.dim:
                    chain = self.chains[(i, j)]
                    if len(chain) != n:
                        raise InconsistencyError("radical chain grew past a zero layer")
                    chain.append(sub)
                    grew = True
        self._depth += 1
        if not grew:
            self._complete = True
        if self._depth > self._length_bound:
            raise InconsistencyError(
                "radical filtration failed to terminate; node list is not a "
                "complete set of indecomposables")

    def ensure_depth(self, n: int) -> None:
        while not self._complete and self._depth < n:
            self._advance()

    def ensure_complete(self) -> None:
        while not self._complete:
            self._advance()

    @property
    def complete(self) -> bool:
        return self._complete

    def layers_computed(self) -> int:
        return max((len(c) for c in self.chains.values()), default=0)

    def subspace(self, i: int, j: int, n: int) -> Subspace:
        """R^n(node_i, node_j) in Hom-basis coordinates."""
        if n < 1:
            raise ValueError("layers are numbered from 1")
        hs = self.hom.get((i, j))
        if hs is None:
            return Subspace.zero(0)
        chain = self.chains.get((i, j), [])
        if n <= len(chain):
            return chain[n - 1]
        if not self._complete:
            self.ensure_depth(n)
            chain = self.chains.get((i, j), [])
        return chain[n - 1] if n <= len(chain) else Subspace.zero(hs.dim)

    def dim_irr(self, i: int, j: int) -> int:
        """dim Irr(node_i, node_j) = dim R - dim R²."""
        self.ensure_depth(2)
        chain = self.chains.get((i, j), [])
        d1 = chain[0].dim if len(chain) >= 1 else 0
        d2 = chain[1].dim if len(chain) >= 2 else 0
        return d1 - d2

    def nilpotency_index(self) -> int:
        self.ensure_complete()
        return 1 + self.layers_computed()


def radical_filtration(nodes, pres: AlgebraPresentation | None = None) -> RadicalFiltration:
    """Build the filtration for a complete indecomposable list.

    ``nodes`` is a sequence of representations or an AR quiver, whose own
    filtration is returned; the chains are computed lazily and
    ``ensure_complete`` drives them to zero.
    """
    from .artrans import ARQuiver  # deferred: artrans builds on this module
    if isinstance(nodes, ARQuiver):
        return nodes.filtration
    reps = list(nodes)
    if pres is None:
        if not reps:
            raise ValueError("cannot infer the presentation from an empty node list")
        pres = reps[0].pres
    return RadicalFiltration(pres, reps)


def morphism_length(f: ModuleMorphism, filt: RadicalFiltration) -> int:
    """Largest n with f ∈ R^n; 0 for morphisms outside the radical."""
    if f.is_zero():
        raise ValueError("the zero morphism has no radical length")
    i = filt.node_index(f.source)
    j = filt.node_index(f.target)
    hs = filt.hom.get((i, j))
    if hs is None:
        raise InconsistencyError("nonzero morphism with empty Hom space")
    coords = hs.coords(f)
    if coords is None:
        raise ValueError("morphism does not intertwine (not in the Hom space)")
    n = 0
    while True:
        nxt = filt.subspace(i, j, n + 1)
        if nxt.dim and nxt.contains_vector(coords):
            n += 1
        else:
            return n


def canonical_r(pres: AlgebraPresentation, filt: RadicalFiltration, a: str) -> int:
    """Radical length of the composite P_a -> S_a -> I_a (well defined)."""
    a = str(a)
    ip = filt.projective_index(a)
    is_ = filt.simple_index(a)
    ii = filt.injective_index(a)
    hp = filt.hom.get((ip, is_))
    hq = filt.hom.get((is_, ii))
    if hp is None or hp.dim != 1 or hq is None or hq.dim != 1:
        raise InconsistencyError(
            f"Hom(P_{a}, S_{a}) and Hom(S_{a}, I_{a}) must be one-dimensional")
    composite = hq.basis[0] @ hp.basis[0]
    if composite.is_zero():
        raise InconsistencyError(f"composite P_{a} -> S_{a} -> I_{a} vanished")
    return morphism_length(composite, filt)


@dataclass(frozen=True)
class NilpotencyReport:
    method: str
    r_A: int
    per_vertex: dict
    vertex_set: tuple
    layers_computed: int
    notes: tuple = ()

    def __post_init__(self):
        if self.r_A < 1:
            raise ValueError("nilpotency index is at least 1")
        for a, r in self.per_vertex.items():
            if self.r_A < r + 1:
                raise ValueError(f"r_A must be at least r_{a}+1")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "r_A": self.r_A,
            "per_vertex": {a: self.per_vertex[a] for a in sorted(self.per_vertex)},
            "vertex_set": list(self.vertex_set),
            "layers_computed": self.layers_computed,
        }


METHODS = ("direct", "v-set", "zero-relations", "one-per-relation", "toupie", "auto")


def _vertex_once_per_relation(pres: AlgebraPresentation) -> bool:
    counts: Dict[str, int] = {}
    for rel in pres.relations:
        if not rel.is_zero_relation():
            continue
        for v in rel.terms[0][1].interior_vertices():
            counts[v] = counts.get(v, 0) + 1
    return bool(counts) and all(c == 1 for c in counts.values())


def licensed_vertices(pres: AlgebraPresentation, method: str) -> tuple:
    """The vertex set a reduction method computes r_A = max r_a + 1 over.

    Raises MethodInapplicableError when the method's static precondition
    fails, and ValueError for a name that is not a reduction method.
    """
    if method == "v-set":
        middle = sinks_and_sources(pres.quiver)[2]
        if not middle:
            raise MethodInapplicableError(
                "every vertex is a sink or a source; the v-set bound needs a middle vertex")
        return middle
    if method not in ("zero-relations", "one-per-relation", "toupie"):
        raise ValueError(f"unknown method {method!r}")
    cls = classify(pres)
    if method == "zero-relations":
        if not cls.is_monomial:
            raise MethodInapplicableError("zero-relations method requires a monomial ideal")
        r0 = zero_relation_vertices(pres)
        if not r0:
            raise MethodInapplicableError(
                "no vertices are involved in zero-relations; fall back to the v-set method")
        return r0
    if method == "one-per-relation":
        if not cls.is_monomial:
            raise MethodInapplicableError("one-per-relation method requires a monomial ideal")
        if not _vertex_once_per_relation(pres):
            raise MethodInapplicableError(
                "a vertex is involved in more than one zero-relation (or repeatedly in one); "
                "per-relation representatives are not valid here")
        interiors = (rel.terms[0][1].interior_vertices() for rel in pres.relations
                     if rel.is_zero_relation())
        return tuple(inner[0] for inner in interiors if inner)
    if cls.toupie is None or cls.toupie.grafo is None:
        raise MethodInapplicableError(
            "toupie method requires the three-branch shape with one zero-relation "
            "branch and one commutativity pair")
    g = cls.toupie.grafo
    return (cls.toupie.branches[g.zero_branch].vertices[g.j - 1],)


def gate_method(pres: AlgebraPresentation, method: str) -> None:
    """Raise MethodInapplicableError when a method's static precondition fails."""
    if method not in ("direct", "auto"):
        licensed_vertices(pres, method)


def choose_method(pres: AlgebraPresentation) -> str:
    """Preference order for 'auto': toupie > one-per-relation > zero-relations
    > v-set > direct, gated by each method's precondition."""
    for method in ("toupie", "one-per-relation", "zero-relations", "v-set"):
        try:
            licensed_vertices(pres, method)
        except MethodInapplicableError:
            continue
        return method
    return "direct"


def nilpotency_index(pres: AlgebraPresentation, method: str = "direct",
                     filt: RadicalFiltration | None = None,
                     limits=None) -> NilpotencyReport:
    """Nilpotency index of the radical of the module category.

    ``direct`` iterates the filtration to zero; the reduction methods compute
    r over the vertex set their precondition licenses and return max r + 1.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    vertices = () if method in ("direct", "auto") else licensed_vertices(pres, method)
    if filt is None:
        from .artrans import ar_quiver  # deferred: artrans builds on this module
        filt = ar_quiver(pres, limits).filtration

    if method == "auto":
        chosen = choose_method(pres)
        report = nilpotency_index(pres, chosen, filt=filt)
        return NilpotencyReport(
            method="auto",
            r_A=report.r_A,
            per_vertex=report.per_vertex,
            vertex_set=report.vertex_set,
            layers_computed=report.layers_computed,
            notes=(f"selected {chosen}",) + report.notes,
        )

    if method == "direct":
        r = filt.nilpotency_index()
        return NilpotencyReport("direct", r, {}, (), filt.layers_computed())

    per = {a: canonical_r(pres, filt, a) for a in vertices}
    return NilpotencyReport(method, max(per.values()) + 1, per, vertices,
                            filt.layers_computed())
