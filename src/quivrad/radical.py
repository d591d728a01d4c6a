"""Radical filtration of the module category and the nilpotency index.

Every node Y carries the pieces g_k : Z_k -> Y of its minimal right almost
split map (rad Y ↪ Y for a projective Y, else the end of the almost split
sequence ending at Y), one per indecomposable summand, read on the node Z_k
isomorphic to that summand; Z occurs dim Irr(Z, Y) times among the Z_k.
The knitting in ``artrans`` is the one source of these pieces and of the
``P_a``/``I_a``/``S_a`` node table.  Every radical map into Y factors
through that map, so for each source node X

    R^0(X, Y) = Hom(X, Y),    R^{n+1}(X, Y) = Σ_k g_k ∘ R^n(X, Z_k),

and the layers of one row R^n(X, -) depend on that row alone.  A morphism
out of X is determined by its values at the top generators of X, on which
g_k acts vertex by vertex, so a row is kept in these coordinates.  For
X = P_a the values range over all of Y_a (Yoneda), so a projective row
needs no Hom space.  R^m = 0 exactly when R^m(P_a, -) = 0 for every vertex
a, since every module is a quotient of a projective.  So each row is built
when it is first asked for and advanced only as deep as it is asked, and
r_A is one more than the longest chain of the projective rows.  Subspaces
are in canonical echelon form, so membership and equality are exact.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from operator import mul
from typing import Dict, Optional, Sequence

from .errors import InconsistencyError, MethodInapplicableError
from .linalg import Subspace
from .quiver import (
    AlgebraPresentation,
    classify,
    sinks_and_sources,
    zero_relation_vertices,
)
from .rep import HomSpace, ModuleMorphism, Representation, hom_space, socle_spaces, top_generators

_INCONSISTENT = ("the pieces are not the right almost split maps of a complete "
                 "set of indecomposables")
_OUTLIVED = f"radical filtration outlived its projective rows; {_INCONSISTENT}"


class _HomTable(Mapping):
    """(i, j) -> Hom(node_i, node_j) for the pairs with a nonzero Hom space.

    A pair is computed the first time it is looked up; iterating or taking
    the length computes every pair.
    """

    def __init__(self, reps: Sequence[Representation]):
        self._reps = reps
        self._known: Dict[tuple, Optional[HomSpace]] = {}

    def __getitem__(self, key) -> HomSpace:
        if key not in self._known:
            i, j = key
            if not (0 <= i < len(self._reps) and 0 <= j < len(self._reps)):
                raise KeyError(key)
            hs = hom_space(self._reps[i], self._reps[j])
            self._known[key] = hs if hs.dim else None
        hs = self._known[key]
        if hs is None:
            raise KeyError(key)
        return hs

    def __iter__(self):
        n = len(self._reps)
        return ((i, j) for i in range(n) for j in range(n) if (i, j) in self)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _Row:
    """The layers R^n(node_i, -) of one source node i, n = 0, 1, ...

    Each layer R^n(i, j) is a subspace of the spaces of node j at the top
    generators (a_1, c_1), ..., (a_m, c_m) of node i, stacked: the values
    there of its morphisms.  ``maps[j]`` is (that dimension, [(k, blocks)])
    with one entry per piece g_k into node j, ``blocks`` the matrices of g_k
    at a_1, ..., a_m.  ``chains[j]`` holds the nonzero layers R^0(i, j) =
    Hom(i, j), R^1(i, j), ...; layers up to ``depth`` have been computed.
    """

    __slots__ = ("maps", "chains", "depth")

    def __init__(self, maps: Dict[int, tuple], chains: Dict[int, list]):
        self.maps = maps
        self.chains = chains
        self.depth = 0

    def alive(self) -> bool:
        """Whether the last computed layer is nonzero."""
        return any(len(c) > self.depth for c in self.chains.values())

    def advance(self, depth: Optional[int] = None) -> None:
        """Compute layers up to ``depth``, or until the last one is zero for None."""
        while self.alive() and (depth is None or self.depth < depth):
            self.next_layer()

    def next_layer(self) -> None:
        """Compute layer depth+1 as Σ_k g_k R^depth(i, k)."""
        n = self.depth
        new = {}
        for j, (dim, pieces) in self.maps.items():
            vecs = []
            for k, blocks in pieces:
                chain = self.chains.get(k, ())
                if len(chain) <= n:
                    continue
                for v in chain[n].basis:
                    out, pos = [], 0
                    for m in blocks:
                        seg = v[pos:pos + m.cols]
                        out.extend(sum(map(mul, row, seg)) for row in m.data)
                        pos += m.cols
                    vecs.append(out)
            if vecs:
                sub = Subspace.from_vectors(dim, vecs)
                if sub.dim:
                    new[j] = sub
        live = [j for j, c in self.chains.items() if len(c) > n]
        if live and all(new.get(j) == self.chains[j][-1] for j in live):
            # the next layer is a function of this one, so the row never shrinks again
            raise InconsistencyError(f"radical filtration failed to terminate; {_INCONSISTENT}")
        for j, sub in new.items():
            self.chains[j].append(sub)
        self.depth += 1


class RadicalFiltration:
    """Descending chains R ⊇ R² ⊇ … for every ordered pair of nodes.

    ``pieces`` maps every node to its right almost split map as
    ``[(k, node_k -> node)]`` and ``aliases`` maps ``P_a``/``I_a``/``S_a`` to
    the node isomorphic to it; the knitting builds both.  Layers are
    computed on demand, row by row; ``ensure_complete`` iterates the
    projective rows until every chain has reached zero, which must happen
    for representation-finite input (a row that stops shrinking while
    nonzero turns a non-terminating run into an error).
    """

    def __init__(self, pres: AlgebraPresentation, nodes: Sequence[Representation],
                 pieces: Dict[int, list], aliases: Dict[str, int]):
        self.pres = pres
        self.reps = list(nodes)
        self.hom = _HomTable(self.reps)
        self.aliases = aliases
        self._pieces = pieces
        self._projective = sorted({i for key, i in self.aliases.items() if key[0] == "P"})
        self._rows: Dict[int, _Row] = {}
        self._gens: Dict[int, list] = {}
        self._socles: Dict[int, Dict[str, Subspace]] = {}
        self._canonical_r: Dict[str, int] = {}  # r_a, kept once its socle line passed

    # -- node bookkeeping ----------------------------------------------------

    def _alias_index(self, key: str) -> int:
        if key not in self.aliases:
            raise ValueError(f"{key} is not among the filtration nodes")
        return self.aliases[key]

    def projective_index(self, a: str) -> int:
        return self._alias_index(f"P_{a}")

    def injective_index(self, a: str) -> int:
        return self._alias_index(f"I_{a}")

    def socle_spaces(self, i: int) -> Dict[str, Subspace]:
        """v -> (soc node_i)_v, computed once per node."""
        if i not in self._socles:
            self._socles[i] = socle_spaces(self.reps[i])
        return self._socles[i]

    def socle_line(self, a: str) -> tuple:
        """A vector spanning (soc I_a)_a, the simple socle S_a of I_a (ARS IV.1)."""
        soc = self.socle_spaces(self.injective_index(a))[a]
        if soc.dim != 1:
            raise InconsistencyError(
                f"the socle of I_{a} at {a} has dimension {soc.dim}, not one")
        return soc.basis[0]

    def pieces(self, j: int) -> list:
        """(k, g: node_k -> node_j) per summand of the right almost split map into node j."""
        return self._pieces[j]

    def _generators(self, i: int) -> list:
        if i not in self._gens:
            self._gens[i] = top_generators(self.reps[i])
        return self._gens[i]

    def at_generators(self, i: int, f: ModuleMorphism) -> list:
        """The values of f: node_i -> Y at the top generators of node i,
        stacked in the coordinates of ``subspace(i, j, n)``; they determine f."""
        return [row[c] for a, c in self._generators(i) for row in f.maps[a].data]

    # -- rows -----------------------------------------------------------------

    def _build_row(self, i: int) -> _Row:
        """Row i at layer zero: Hom(i, j) at the top generators of node i, all
        of node j at a for the projective node P_a (Yoneda)."""
        gens = self._generators(i)
        maps, chains = {}, {}
        for j, rep in enumerate(self.reps):
            dim = sum(rep.dims[a] for a, _ in gens)
            if not dim:
                continue
            maps[j] = (dim, [(k, [g.maps[a] for a, _ in gens]) for k, g in self.pieces(j)])
            if i in self._projective:
                chains[j] = [Subspace.full(dim)]
            elif (hs := self.hom.get((i, j))) is not None:
                chains[j] = [Subspace.from_vectors(dim, [self.at_generators(i, b)
                                                         for b in hs.basis])]
        return _Row(maps, chains)

    def _row(self, i: int, depth: Optional[int] = None) -> _Row:
        """Row i, built on first use and advanced to ``depth`` layers (to zero
        for None).  A row that is not projective is advanced to zero when it
        is built, which must happen before layer r_A."""
        row = self._rows.get(i)
        if row is None:
            row = self._build_row(i)
            if i not in self._projective:
                row.advance(self.nilpotency_index())
                if row.alive():
                    raise InconsistencyError(_OUTLIVED)
            self._rows[i] = row
        row.advance(depth)
        return row

    # -- layers ---------------------------------------------------------------

    def ensure_depth(self, n: int) -> None:
        for i in self._projective:
            self._row(i, n)

    def ensure_complete(self) -> None:
        for i in self._projective:
            self._row(i)

    def layers_computed(self) -> int:
        return max((len(c) for row in self._rows.values() for c in row.chains.values()),
                   default=1) - 1

    def subspace(self, i: int, j: int, n: int) -> Subspace:
        """R^n(node_i, node_j) in the coordinates of ``at_generators(i, -)``."""
        if n < 1:
            raise ValueError("layers are numbered from 1")
        row = self._row(i, n)
        chain = row.chains.get(j, ())
        return chain[n] if n < len(chain) else Subspace.zero(row.maps.get(j, (0,))[0])

    def dim_irr(self, i: int, j: int) -> int:
        """dim Irr(node_i, node_j): the multiplicity of node i in the right
        almost split map into node j."""
        return sum(1 for k, _ in self.pieces(j) if k == i)

    def nilpotency_index(self) -> int:
        # every other row was admitted shorter than the projective rows
        self.ensure_complete()
        return 1 + self.layers_computed()


def _length(filt: RadicalFiltration, i: int, j: int, values: Sequence) -> int:
    """Largest n whose layer R^n(node_i, node_j) contains the nonzero ``values``
    (coordinates of ``at_generators(i, -)``); 0 outside the radical."""
    n = 0
    while filt.subspace(i, j, n + 1).contains_vector(values):
        n += 1
    return n


def canonical_r(filt: RadicalFiltration, a: str) -> int:
    """Radical length of the composite P_a -> S_a -> I_a (well defined): it is
    its value at the generator of P_a (Yoneda), which spans the socle line of
    I_a at a, read in the row of P_a; kept on the filtration once computed."""
    a = str(a)
    if a not in filt._canonical_r:
        filt._canonical_r[a] = _length(filt, filt.projective_index(a),
                                       filt.injective_index(a), filt.socle_line(a))
    return filt._canonical_r[a]


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
    return all(c == 1 for c in counts.values())


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
    if method in ("zero-relations", "one-per-relation"):
        if not cls.is_monomial:
            raise MethodInapplicableError(f"{method} method requires a monomial ideal")
        r0 = zero_relation_vertices(pres)
        if not r0:
            raise MethodInapplicableError(
                "no vertices are involved in zero-relations; fall back to the v-set method")
        if method == "zero-relations":
            return r0
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


def nilpotency_index(filt: RadicalFiltration, method: str = "direct") -> NilpotencyReport:
    """Nilpotency index of the radical of the module category of ``filt.pres``.

    ``direct`` iterates the filtration to zero; the reduction methods compute
    r over the vertex set their precondition licenses and return max r + 1.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    vertices = () if method in ("direct", "auto") else licensed_vertices(filt.pres, method)

    if method == "auto":
        chosen = choose_method(filt.pres)
        report = nilpotency_index(filt, chosen)
        return replace(report, method="auto", notes=(f"selected {chosen}",) + report.notes)

    if method == "direct":
        r = filt.nilpotency_index()
        return NilpotencyReport("direct", r, {}, (), filt.layers_computed())

    per = {a: canonical_r(filt, a) for a in vertices}
    return NilpotencyReport(method, max(per.values()) + 1, per, vertices,
                            filt.layers_computed())
