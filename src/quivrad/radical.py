"""Radical filtration of the module category and the nilpotency index.

Every node Y carries the pieces g_k : Z_k -> Y of its minimal right almost
split map (rad Y ↪ Y for a projective Y, else the end of the almost split
sequence ending at Y), one per indecomposable summand, read on the node Z_k
isomorphic to that summand; Z occurs dim Irr(Z, Y) times among the Z_k.
The knitting in ``artrans`` is the one source of these pieces and of the
``P_a``/``I_a``/``S_a`` node table.  Every radical map into Y factors
through that map, so for each vertex a

    R^0(P_a, Y) = Hom(P_a, Y),    R^{n+1}(P_a, Y) = Σ_k g_k ∘ R^n(P_a, Z_k),

and the layers of one row R^n(P_a, -) depend on that row alone.  A morphism
out of P_a is determined by its value at the generator of P_a, which ranges
over all of Y_a (Yoneda), and g_k acts on that value by its matrix at a; so
a row is kept in these coordinates and needs no Hom space.  R^m = 0 exactly
when R^m(P_a, -) = 0 for every vertex a, since every module is a quotient
of a projective, and r_a is read in the row of P_a; these rows are all the
filtration keeps.  Each is built when it is first asked for and advanced
only as deep as it is asked, and r_A is one more than the longest chain of
the rows.  Subspaces are in canonical echelon form, so membership and
equality are exact.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from operator import mul
from typing import Dict, Optional, Sequence

from .errors import InconsistencyError, MethodInapplicableError
from .linalg import Subspace
from .quiver import (
    AlgebraPresentation,
    classify,
    sinks_and_sources,
    zero_relation_interiors,
    zero_relation_vertices,
)
from .rep import ModuleMorphism, Representation, top_generators


class _Row:
    """The layers R^n(P_a, -) of one projective node P_a, n = 0, 1, ...

    Each layer R^n(P_a, j) is a subspace of (node j)_a: the values of its
    morphisms at the generator of P_a.  ``maps[j]`` has one entry (k, g_k
    at a) per piece g_k into node j.  ``chains[j]`` holds the nonzero layers
    R^0(P_a, j) = (node j)_a, R^1(P_a, j), ...; layers up to ``depth`` have
    been computed.
    """

    __slots__ = ("maps", "chains", "depth")

    def __init__(self, maps: Dict[int, list], chains: Dict[int, list]):
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
        """Compute layer depth+1 as Σ_k g_k R^depth(P_a, k)."""
        n = self.depth
        new = {}
        for j, pieces in self.maps.items():
            vecs = []
            for k, m in pieces:
                chain = self.chains.get(k, ())
                if len(chain) > n:
                    vecs.extend([sum(map(mul, row, v)) for row in m.data] for v in chain[n].basis)
            if vecs:
                sub = Subspace.from_vectors(self.chains[j][0].ambient, vecs)
                if sub.dim:
                    new[j] = sub
        live = [j for j, c in self.chains.items() if len(c) > n]
        if live and all(new.get(j) == self.chains[j][-1] for j in live):
            # the next layer is a function of this one, so the row never shrinks again
            raise InconsistencyError("radical filtration failed to terminate; the pieces are "
                                     "not the right almost split maps of a complete set of "
                                     "indecomposables")
        for j, sub in new.items():
            self.chains[j].append(sub)
        self.depth += 1


class RadicalFiltration:
    """Descending chains R ⊇ R² ⊇ … out of every projective node.

    ``pieces`` maps every node to its right almost split map as
    ``[(k, node_k -> node)]`` and ``aliases`` maps ``P_a``/``I_a``/``S_a`` to
    the node isomorphic to it; the knitting builds both, and hands over the
    socle spaces of the injective nodes it read, as ``socles``.  Layers are
    computed on demand, one row R^n(P_a, -) at a time; ``ensure_complete``
    iterates the rows until every chain has reached zero, which must happen
    for representation-finite input (a row that stops shrinking while
    nonzero turns a non-terminating run into an error).
    """

    def __init__(self, pres: AlgebraPresentation, nodes: Sequence[Representation],
                 pieces: Dict[int, list], aliases: Dict[str, int],
                 socles: Dict[int, Dict[str, Subspace]]):
        self.pres = pres
        self.reps = list(nodes)
        self.aliases = aliases
        self._pieces = pieces
        self._projective = sorted({i for key, i in self.aliases.items() if key[0] == "P"})
        self._rows: Dict[int, _Row] = {}
        self._gens: Dict[int, tuple] = {}
        self._socles = socles
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
        """v -> (soc node_i)_v for an injective node i, as the knitting read it."""
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

    def _generator(self, i: int) -> tuple:
        """(a, c): the generator of the projective node i is unit vector c at a."""
        if i not in self._gens:
            if i not in self._projective:
                raise ValueError(f"node {i} is not projective; it has no row")
            (self._gens[i],) = top_generators(self.reps[i])
        return self._gens[i]

    def at_generators(self, i: int, f: ModuleMorphism) -> list:
        """The value of f: P_a -> Y at the generator of P_a = node i, in the
        coordinates of ``subspace(i, j, n)``; it determines f (Yoneda)."""
        a, c = self._generator(i)
        return [row[c] for row in f.maps[a].data]

    # -- rows -----------------------------------------------------------------

    def _build_row(self, i: int) -> _Row:
        """Row i at layer zero: all of (node j)_a for P_a = node i (Yoneda)."""
        a, _ = self._generator(i)
        maps, chains = {}, {}
        for j, rep in enumerate(self.reps):
            if rep.dims[a]:
                maps[j] = [(k, g.maps[a]) for k, g in self.pieces(j)]
                chains[j] = [Subspace.full(rep.dims[a])]
        return _Row(maps, chains)

    def _row(self, i: int, depth: Optional[int] = None) -> _Row:
        """Row i, built on first use and advanced to ``depth`` layers (to zero
        for None)."""
        if i not in self._rows:
            self._rows[i] = self._build_row(i)
        row = self._rows[i]
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
        """R^n(node_i, node_j) for a projective node i, in the coordinates of
        ``at_generators(i, -)``; ValueError for any other node i."""
        if n < 1:
            raise ValueError("layers are numbered from 1")
        chain = self._row(i, n).chains.get(j, [Subspace.zero(0)])
        return chain[n] if n < len(chain) else Subspace.zero(chain[0].ambient)

    def dim_irr(self, i: int, j: int) -> int:
        """dim Irr(node_i, node_j): the multiplicity of node i in the right
        almost split map into node j."""
        return sum(1 for k, _ in self.pieces(j) if k == i)

    def nilpotency_index(self) -> int:
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
    involved = [v for _, inner in zero_relation_interiors(pres) for v in inner]
    return len(involved) == len(set(involved))


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
        return tuple(inner[0] for _, inner in zero_relation_interiors(pres) if inner)
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
    if method == "auto":
        chosen = choose_method(filt.pres)
        report = nilpotency_index(filt, chosen)
        return replace(report, method="auto", notes=(f"selected {chosen}",) + report.notes)

    if method == "direct":
        r = filt.nilpotency_index()
        return NilpotencyReport("direct", r, {}, (), filt.layers_computed())

    vertices = licensed_vertices(filt.pres, method)
    per = {a: canonical_r(filt, a) for a in vertices}
    return NilpotencyReport(method, max(per.values()) + 1, per, vertices,
                            filt.layers_computed())
