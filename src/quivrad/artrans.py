"""Auslander-Reiten translate and enumeration of indecomposables.

The translate is computed from the projective cover of M and the top
generators of its kernel ΩM: the images of those generators in the cover,
read as a matrix of path classes, are transported to the opposite
presentation; the cokernel there is the transpose, and dualizing it gives τM.

Enumeration is a knitting closure from the projectives, the seeds: each
node brings in its translates, τ⁻¹ and, off the seeds, τ, and its
predecessors, the summands of the right almost split map into it (rad P for
a projective, else the almost split middle term).  Inverse-translate orbits
of the projectives alone can miss translate-periodic modules (they exist for
some bound quiver algebras), and the predecessors close that gap.
Successors need no step of their own: a successor Y of a node X is
projective, so a seed, or τ⁻¹ of τY, and τY -> X is irreducible, so τY is a
predecessor of X.  For a connected representation-finite algebra the AR
quiver is connected, so this closure is complete.  Guard limits turn a
runaway enumeration into an error.

The knitting keeps the right almost split map into every node (rad P ↪ P,
or the end of the almost split sequence), one piece per indecomposable
summand read on the node isomorphic to it; the AR arrows are the summand
multiplicities.  The sequence 0 -> X -> E -> Z -> 0 ending at a
non-projective node Z is built by one of two routes.  The cokernel route
takes the pieces out of X = τZ into the projectives and into τ⁻¹W, for
each non-injective predecessor W of X: together they form the left almost
split map X -> E onto nodes already known, and Z is its cokernel, placed
on the node by one isomorphism test.  It applies once those meshes are
knit, and the mesh queue takes such ready nodes first.  When no pending
node is ready, which happens on cycles of the AR quiver, the first one
takes the Ext route: E comes from a class in the socle of Ext¹(Z, τZ) and
is decomposed.  The translates and the summands of rad P and of the Ext
route are the only modules matched to nodes by an isomorphism search.
P_a, I_a and S_a are read off the walk: P_a is the seed added at a, I_a the
node with no τ⁻¹ whose socle lies at a, S_a the one node with dimension
vector e_a.  The radical filtration is built from the nodes, the pieces and
that table alone.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import InconsistencyError, LimitsExceededError
from .linalg import RatMatrix, Subspace
from .quiver import AlgebraPresentation, Path
from . import rep as _rep
from .rep import (
    ModuleMorphism,
    Representation,
    decompose,
    end_radical,
    find_isomorphism,
    hom_space,
    kernel_submodule,
    morphism_ambient,
    projective,
    projective_cover,
    quotient_representation,
    radical_submodule,
    socle,
    sum_of_projectives_morphism,
    top_generators,
    zero_representation,
)
from .radical import RadicalFiltration


@dataclass(frozen=True)
class EnumerationLimits:
    """Termination guard for the knitting walk."""
    max_modules: int = 10_000
    max_total_dim: int = 10_000  # cumulative over all enumerated modules

    def __post_init__(self):
        if self.max_modules <= 0 or self.max_total_dim <= 0:
            raise ValueError("limits must be positive")


def _op_path(model_op, p: Path) -> Path:
    return Path(model_op.pres.quiver, p.end, tuple(reversed(p.arrows)))


def _reversed_class_coords(model_fwd, model_op, a: str, b: str, coeffs) -> list:
    """Carry coordinates over basis(a,b) to the opposite-side basis(b,a)."""
    op_basis = model_op.basis(b, a)
    out = [0] * len(op_basis)
    for c, p in zip(coeffs, model_fwd.basis(a, b)):
        if not c:
            continue
        for k, x in enumerate(model_op.reduce_path(_op_path(model_op, p))):
            out[k] = out[k] + c * x
    return out


def transpose(M: Representation) -> Representation:
    """Transpose of M, a module over the opposite presentation; zero when M
    is projective.

    With P0 -> M the projective cover and K its kernel, the presentation
    P1 -> P0 -> M takes one summand P_b of P1 per top generator u of K at b,
    and sends its generator to incl_b(u) in P0.  Those columns, reversed
    into the opposite presentation, present Tr M as a cokernel.
    """
    if M.is_zero():
        raise ValueError("zero module has no transpose")
    pres = M.pres
    op = pres.opposite()
    _, epi, summands0 = projective_cover(M)
    K, incl = kernel_submodule(epi)
    if K.is_zero():
        return zero_representation(op)
    model = pres.model()
    model_op = op.model()
    gens1 = top_generators(K)
    # the generator of P^op_{a_i} goes to the coordinates of each syzygy
    # generator's image on the P0 summand P_{a_i}, reversed into P^op_{b_j}
    images = []
    start = dict.fromkeys(pres.quiver.vertices, 0)  # where P_{a_i} begins in (P0)_v
    for a in summands0:
        vec = []
        for b, c in gens1:
            lo = start[b]
            sigma = [row[c] for row in incl.maps[b].data[lo:lo + len(model.basis(a, b))]]
            vec.extend(_reversed_class_coords(model, model_op, a, b, sigma))
        images.append(vec)
        for v in pres.quiver.vertices:
            start[v] += len(model.basis(a, v))
    target = _rep.direct_sum([projective(op, b) for b, _ in gens1])
    g = sum_of_projectives_morphism(op, summands0, target, images)
    spaces = {v: g.maps[v].image() for v in op.quiver.vertices}
    tr, _ = quotient_representation(target, spaces)
    return tr


def ar_translate(M: Representation) -> Optional[Representation]:
    """τM = D(Tr M); None iff M is projective."""
    tr = transpose(M)
    if tr.is_zero():
        return None
    return tr.dual()


def ar_translate_inverse(M: Representation) -> Optional[Representation]:
    """τ⁻¹M = Tr(D M); None iff M is injective."""
    tr = transpose(M.dual())
    if tr.is_zero():
        return None
    return tr


def almost_split_middle(Z: Representation, tau_z: Representation):
    """(E, E -> Z) for the almost split sequence 0 -> τZ -> E -> Z -> 0.

    Ext¹(Z, τZ) is presented on Hom(ΩZ, τZ) modulo the restrictions from the
    cover, and E is the pushout cokernel of a nonzero class in its socle.
    That socle is the same over End(Z) and over End(τZ) (Auslander-Reiten-
    Smalø V.2), so the class is taken annihilated by rad End(τZ), which acts
    by composition.  E -> Z is the right almost split map.
    """
    p0, epi, _ = projective_cover(Z)
    K, incl = kernel_submodule(epi)
    if K.is_zero():
        raise ValueError("projective module has no almost split sequence ending at it")
    hom_k = hom_space(K, tau_z)
    if hom_k.dim == 0:
        raise InconsistencyError("Ext group vanished for a non-projective module")
    hom_p0 = hom_space(p0, tau_z)
    ambient = morphism_ambient(K, tau_z)
    factored = Subspace.from_vectors(ambient, [(h @ incl).flatten() for h in hom_p0.basis])
    end_tau = hom_space(tau_z, tau_z)
    rows = []
    for coords in end_radical(end_tau).basis:
        psi = end_tau.element(coords)
        cols = [factored.quotient_coords((psi @ b).flatten()) for b in hom_k.basis]
        rows.extend(zip(*cols))
    sols = RatMatrix(rows, cols=hom_k.dim).kernel() if rows else Subspace.full(hom_k.dim)
    g = None
    for srow in sols.basis:
        cand = hom_k.element(srow)
        if not factored.contains_vector(cand.flatten()):
            g = cand
            break
    if g is None:
        raise InconsistencyError("no almost split extension class found")
    total = _rep.direct_sum([tau_z, p0])
    spaces = {}
    for v in Z.pres.quiver.vertices:
        vecs = []
        for k in range(K.dims[v]):
            unit = [0] * K.dims[v]
            unit[k] = 1
            gv = g.maps[v].apply(unit)
            iv = incl.maps[v].apply(unit)
            vecs.append(list(gv) + [-x for x in iv])
        spaces[v] = Subspace.from_vectors(total.dims[v], vecs)
    middle, _ = quotient_representation(total, spaces)
    # E -> Z is induced by (0 | epi) on τZ ⊕ P0, read on the quotient's
    # basis: the unit vectors at the non-pivot positions
    maps = {}
    for v in Z.pres.quiver.vertices:
        cols = [c - tau_z.dims[v] for c in spaces[v].nonpivots()]
        maps[v] = RatMatrix._of([[row[c] if c >= 0 else 0 for c in cols]
                                 for row in epi.maps[v].data], len(cols))
    return middle, ModuleMorphism(middle, Z, maps, check=False)


@dataclass
class ARNode:
    index: int
    rep: Representation
    orbit_root: str
    orbit_power: int           # k >= 0: node is τ^{-k}(root); k < 0: τ^{|k|}(root)
    aliases: tuple = ()

    @property
    def label(self) -> str:
        if self.orbit_power == 0:
            return self.orbit_root
        if self.orbit_power > 0:
            return f"τ^{{-{self.orbit_power}}}{self.orbit_root}"
        return f"τ^{{{-self.orbit_power}}}{self.orbit_root}"

    def display(self) -> str:
        dims = ",".join(str(d) for d in self.rep.dim_vector())
        return f"{self.label} [{dims}]"


class ARQuiver:
    """Nodes are iso-class representatives; arrows carry dim Irr = dim R/R²,
    read off the right almost split maps."""

    def __init__(self, nodes: List[ARNode], tau: Dict[int, int],
                 tau_inverse: Dict[int, int], filtration: RadicalFiltration):
        self.nodes = nodes
        self.tau = tau                       # non-projective node -> its translate
        self.tau_inverse = tau_inverse       # non-injective node -> its inverse translate
        self.filtration = filtration

    @property
    def reps(self) -> list:
        return [n.rep for n in self.nodes]

    def node_count(self) -> int:
        return len(self.nodes)

    def arrows(self) -> list:
        """(source index, target index, dim Irr) for every AR-quiver arrow.

        dim Irr(Z, Y) is the multiplicity of Z among the summands of the
        right almost split map into Y.
        """
        counts = Counter((k, j) for j in range(len(self.nodes))
                         for k, _ in self.filtration.pieces(j))
        return sorted((i, j, m) for (i, j), m in counts.items())

    def _sorted_nodes(self) -> list:
        return sorted(self.nodes, key=lambda n: (n.rep.dim_vector(), n.label))

    def to_dot(self) -> str:
        lines = ["digraph ar_quiver {", "  rankdir=LR;", "  node [shape=box];"]
        order = self._sorted_nodes()
        for node in order:
            lines.append(f'  "{node.display()}";')
        names = {n.index: n.display() for n in self.nodes}
        rank = {n.index: k for k, n in enumerate(order)}
        arrows = sorted(self.arrows(), key=lambda e: (rank[e[0]], rank[e[1]]))
        for s, t, m in arrows:
            attr = f" [label={m}]" if m > 1 else ""
            lines.append(f'  "{names[s]}" -> "{names[t]}"{attr};')
        tau_edges = sorted(self.tau.items(), key=lambda e: (rank[e[0]], rank[e[1]]))
        for y, x in tau_edges:
            lines.append(f'  "{names[x]}" -> "{names[y]}" [style=dashed, constraint=false];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        order = self._sorted_nodes()
        names = {n.index: n.label for n in self.nodes}
        return {
            "nodes": [
                {
                    "label": n.label,
                    "aliases": sorted(n.aliases),
                    "dim_vector": list(n.rep.dim_vector()),
                }
                for n in order
            ],
            "arrows": [
                [names[s], names[t], m]
                for s, t, m in sorted(self.arrows(), key=lambda e: (names[e[0]], names[e[1]]))
            ],
            "tau": {names[y]: names[x] for y, x in sorted(self.tau.items(), key=lambda e: names[e[0]])},
        }


class _Knitter:
    def __init__(self, pres: AlgebraPresentation, limits: EnumerationLimits):
        self.pres = pres
        self.limits = limits
        self.nodes: List[ARNode] = []
        self.buckets: Dict[tuple, list] = {}
        self.tau: Dict[int, int] = {}
        self.tau_inverse: Dict[int, int] = {}
        self.total_dim = 0
        self.fresh = 0
        # every new node waits in both queues: its τ-orbit step, then its
        # mesh; the mesh queue holds the nodes whose mesh is still pending
        self.orbit_queue: List[int] = []
        self.mesh_queue: List[int] = []
        # node -> its right almost split map, one (k, node k -> node) per summand
        self.pieces: Dict[int, list] = {}
        # meshes built per route: projective, cokernel, extension
        self.routes: Counter = Counter()
        self.projectives = range(len(pres.quiver.vertices))  # node i: P at the i-th vertex

    def _match(self, rep: Representation) -> Optional[tuple]:
        """(k, iso: node k -> rep) for the node k isomorphic to rep, or None.

        Called only on translates and on the summands that ``decompose``
        splits off rad P and the Ext route's middle terms.  Nodes and rep
        are indecomposable, so the basis test of ``find_isomorphism``
        decides."""
        for k in self.buckets.get(rep.dim_vector(), ()):
            iso = find_isomorphism(self.nodes[k].rep, rep)
            if iso is not None:
                return k, iso
        return None

    def add(self, rep: Representation, root: str, power: int) -> int:
        idx = len(self.nodes)
        self.total_dim += rep.total_dim()
        if idx + 1 > self.limits.max_modules or self.total_dim > self.limits.max_total_dim:
            raise LimitsExceededError(
                f"enumeration guard hit after {idx} modules (total dimension "
                f"{self.total_dim}); presentation presumed representation-infinite "
                "within the given limits")
        self.nodes.append(ARNode(idx, rep, root, power))
        self.buckets.setdefault(rep.dim_vector(), []).append(idx)
        self.orbit_queue.append(idx)
        self.mesh_queue.append(idx)
        return idx

    def link_tau(self, y: int, x: int) -> None:
        """Record τ(node y) = node x and τ⁻¹(node x) = node y."""
        if self.tau.get(y, x) != x or self.tau_inverse.get(x, y) != y:
            raise InconsistencyError("conflicting translate links")
        self.tau[y] = x
        self.tau_inverse[x] = y

    def _add_fresh(self, rep: Representation) -> int:
        self.fresh += 1
        return self.add(rep, f"M{self.fresh}", 0)

    def _piece(self, summand: Representation, g: ModuleMorphism) -> tuple:
        """(k, g read on node k) for the node k isomorphic to summand, added if new."""
        found = self._match(summand)
        if found is None:
            return self._add_fresh(summand), g
        k, iso = found
        return k, g @ iso

    def _expand_orbit(self, idx: int) -> None:
        """Walk τ in both directions; cheap, and where the guards trip first.

        τ is a bijection from the non-projective to the non-injective
        indecomposables, so each link is derived once, from the end the walk
        reaches first: a side already linked from its other end is skipped.
        τ is taken on no seed: every module is matched to the nodes before it
        is added, so the seeds are the only projective nodes.
        """
        node = self.nodes[idx]
        if idx not in self.tau_inverse:
            nxt = ar_translate_inverse(node.rep)
            if nxt is not None:
                self.link_tau(self._orbit_node(nxt, node, 1), idx)
        if idx not in self.tau and idx not in self.projectives:
            self.link_tau(idx, self._orbit_node(ar_translate(node.rep), node, -1))

    def _orbit_node(self, rep: Representation, node: ARNode, step: int) -> int:
        """The node isomorphic to rep, a τ^(-step) of node, added to its orbit if new."""
        found = self._match(rep)
        if found is not None:
            return found[0]
        return self.add(rep, node.orbit_root, node.orbit_power + step)

    def _mesh_ready(self, z: int) -> bool:
        """Whether the cokernel route can build the mesh ending at the
        non-projective node z: the pieces of every projective, of x = τz and
        of τ⁻¹w for each non-injective w among x's pieces are known."""
        x = self.tau[z]
        if x not in self.pieces or any(p not in self.pieces for p in self.projectives):
            return False
        return all(self.tau_inverse[w] in self.pieces
                   for w, _ in self.pieces[x] if w in self.tau_inverse)

    def _next_mesh(self) -> int:
        """Pop the first pending node whose mesh needs no Ext class (a
        projective, or one ready for the cokernel route), else the first
        pending node."""
        for pos, z in enumerate(self.mesh_queue):
            if z in self.projectives or self._mesh_ready(z):
                return self.mesh_queue.pop(pos)
        return self.mesh_queue.pop(0)

    def _expand_mesh(self, idx: int) -> None:
        """The node's predecessors, kept as its pieces: the summands of the
        right almost split map into it, each occurring dim Irr times.  A
        projective's map is rad P ↪ P; a ready node's is the cokernel of the
        left almost split map out of its translate; any other node's is the
        end of the sequence from an Ext class.  The summands of the first
        and the last are matched to nodes or added."""
        Y = self.nodes[idx].rep
        if idx in self.projectives:
            self.routes["projective"] += 1
            source, into = radical_submodule(Y)
        elif self._mesh_ready(idx):
            self.routes["cokernel"] += 1
            self.pieces[idx] = self._cokernel_pieces(idx)
            return
        else:
            self.routes["extension"] += 1
            source, into = almost_split_middle(Y, self.nodes[self.tau[idx]].rep)
        summands = [] if source.is_zero() else decompose(source)
        self.pieces[idx] = [self._piece(Z, into @ incl) for Z, incl in summands]

    def _left_almost_split(self, x: int) -> list:
        """(y, g: node x -> node y) for the irreducible maps out of the
        non-injective node x, read off knitted pieces: those with source x
        into τ⁻¹w, for each non-injective w among x's pieces, and into the
        projectives.  Per target y they are a basis of Irr(x, y)."""
        targets = dict.fromkeys(self.tau_inverse[w] for w, _ in self.pieces[x]
                                if w in self.tau_inverse)
        targets.update(dict.fromkeys(self.projectives))
        return [(y, g) for y in targets for k, g in self.pieces[y] if k == x]

    def _cokernel_pieces(self, z: int) -> list:
        """The pieces of the non-projective node z from the almost split
        sequence 0 -> X -> E -> Z -> 0 with X = τZ (ASS IV.4; ARS V.5).

        f: X -> E, with the irreducible maps out of X as components, is left
        minimal almost split, so Z is its cokernel, found on the node by one
        isomorphism test.  Mesh additivity and that isomorphism certify that
        f is mono with cokernel Z.
        """
        x = self.tau[z]
        X, Z = self.nodes[x].rep, self.nodes[z].rep
        components = self._left_almost_split(x)
        targets = [self.nodes[y].rep for y, _ in components]
        middle_dim = sum(Y.total_dim() for Y in targets)
        if middle_dim != X.total_dim() + Z.total_dim():
            raise InconsistencyError(
                f"mesh at {self.nodes[z].label}: middle term of dimension {middle_dim}, "
                f"but its ends have dimensions {X.total_dim()} and {Z.total_dim()}")
        vertices = self.pres.quiver.vertices
        image = {v: RatMatrix._of([row for _, g in components for row in g.maps[v].data],
                                  X.dims[v]).image() for v in vertices}
        C, proj = quotient_representation(_rep.direct_sum(targets), image)
        iso = find_isomorphism(C, Z)
        if iso is None:
            raise InconsistencyError(f"mesh at {self.nodes[z].label}: the cokernel of "
                                     "the left almost split map is not the node")
        onto = iso @ proj
        start = dict.fromkeys(vertices, 0)
        pieces = []
        for (y, _), Y in zip(components, targets):
            maps = {}
            for v in vertices:
                lo, hi = start[v], start[v] + Y.dims[v]
                maps[v] = RatMatrix._of([row[lo:hi] for row in onto.maps[v].data], hi - lo)
                start[v] = hi
            pieces.append((y, ModuleMorphism(Y, Z, maps, check=False)))
        return pieces

    def run(self):
        pres = self.pres
        for a in pres.quiver.vertices:  # P_a ≇ P_b: their tops differ
            self.add(projective(pres, a), f"P_{a}", 0)
        oi = 0
        while True:
            while oi < len(self.orbit_queue):
                self._expand_orbit(self.orbit_queue[oi])
                oi += 1
            if not self.mesh_queue:
                break
            self._expand_mesh(self._next_mesh())
        return self

    def alias_table(self) -> Dict[str, int]:
        """``P_a``/``I_a``/``S_a`` -> its node, read off the walk.

        P_a is the seed added at a (node i for the i-th vertex).  I_a is the
        injective node, the one with no τ⁻¹, whose simple socle lies at a
        (ARS IV.1).  S_a is the one node with dimension vector e_a.  Keys
        run over the vertices in order, P before I before S; a module with
        no node gets no key.
        """
        vertices = self.pres.quiver.vertices
        injective_at = {socle(self.nodes[k].rep)[0].dim_vector(): k
                        for k in range(len(self.nodes)) if k not in self.tau_inverse}
        table: Dict[str, int] = {}
        for i, a in enumerate(vertices):
            e_a = tuple(int(v == a) for v in vertices)
            found = (("P", i), ("I", injective_at.get(e_a)),
                     ("S", self.buckets.get(e_a, [None])[0]))
            table.update((f"{tag}_{a}", k) for tag, k in found if k is not None)
        return table


def ar_quiver(pres: AlgebraPresentation,
              limits: EnumerationLimits | None = None) -> ARQuiver:
    knit = _Knitter(pres, limits or EnumerationLimits()).run()
    aliases = knit.alias_table()
    for key, idx in aliases.items():
        knit.nodes[idx].aliases += (key,)
    filt = RadicalFiltration(pres, [n.rep for n in knit.nodes], knit.pieces, aliases)
    return ARQuiver(knit.nodes, knit.tau, knit.tau_inverse, filt)
