"""Auslander-Reiten translate and enumeration of indecomposables.

The translate is computed from the projective cover of M and the top
generators of its kernel ΩM: their classes on each summand P_a of the cover,
reversed into the opposite presentation, fix a map out of P^op_a, whose
images span the relations (``rep._generator_images``, the one builder of
maps out of projectives); the cokernel there is the transpose, and
dualizing it gives τM.

Enumeration is the knitting procedure (ASS IV.3-IV.4; ARS V.5), from the
projectives, the seeds.  The knitting keeps the right almost split map into
every node, one piece per indecomposable summand read on the node isomorphic
to it; the AR arrows are the summand multiplicities.  A projective's map is
rad P_a -> P_a, split into the images αA of the maps P_t -> P_a, generator
to α, one per arrow α: a -> t, when their sum is direct (by Fitting's lemma
otherwise); a summand that is not P_t is matched to the nodes, or stays
loose until a node added later matches it.  Each node X then takes one step,
once its own mesh and that of τ⁻¹W, for each predecessor W, are knit: the
pieces out of X into the projectives and into τ⁻¹W, for each non-injective
predecessor W, form its left minimal almost split map f: X -> E.  One rank
test decides the step.  If f is mono, its cokernel is τ⁻¹X, matched to the
nodes or added to X's orbit, and the blocks of E -> τ⁻¹X are the pieces of
its mesh.  Otherwise X is injective, and the kernel of f is its simple
socle.  Successors need no step of their own: a successor Y of a node X is
projective, so a seed, or τ⁻¹ of τY, and τY -> X is irreducible, so τY is a
predecessor of X.

When no node is ready, which happens on cycles of the AR quiver, the walk
falls back, in order: the first node whose τ⁻¹ is undecided, or whose τ is
unknown off the seeds, takes it by Tr D or D Tr; the first node without a
mesh takes the Ext route, where E comes from a class in the socle of
Ext¹(Z, τZ) and is decomposed; the first loose summand is added as a fresh
node.  Inverse-translate orbits of the projectives alone can miss
translate-periodic modules (they exist for some bound quiver algebras), and
the loose summands close that gap.  For a connected representation-finite
algebra the AR quiver is connected, so this closure is complete.  Guard
limits turn a runaway enumeration into an error.

P_a, I_a and S_a are read off the walk: P_a is the seed added at a, I_a the
node with no τ⁻¹ whose socle lies at a, S_a the one node with dimension
vector e_a.  The injective nodes are certified first: their socles are
simple at distinct vertices, one per vertex, and their dimensions add up to
dim A.  The radical filtration is built from the nodes, the pieces and that
table alone.
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
    socle_spaces,
    subrepresentation,
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


def transpose(M: Representation) -> Representation:
    """Transpose of M, a module over the opposite presentation; zero when M
    is projective.

    With P0 -> M the projective cover and K its kernel, the presentation
    P1 -> P0 -> M takes one summand P_b of P1 per top generator u of K at b,
    and sends its generator to incl_b(u) in P0.  Reversed into the opposite
    presentation, the classes of the u on each summand P_a of P0 fix a map
    P^op_a -> ⊕ P^op_b (``rep._generator_images``); Tr M is the cokernel of
    their sum.
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
    target = _rep.direct_sum([projective(op, b) for b, _ in gens1])
    cols = {v: [] for v in op.quiver.vertices}
    rows = {v: iter(incl.maps[v].data) for v in pres.quiver.vertices}  # (P0)_v, P_a by P_a
    for a in summands0:
        block = {v: [next(rows[v]) for _ in model.basis(a, v)] for v in pres.quiver.vertices}
        # each syzygy generator's class on P_a, over basis(a, b), carried to
        # basis^op(b, a) path by reversed path
        vec = []
        for b, c in gens1:
            out = [0] * len(model_op.basis(b, a))
            for row, p in zip(block[b], model.basis(a, b)):
                if row[c]:
                    reversed_p = Path(op.quiver, b, p.arrows[::-1])
                    for k, x in enumerate(model_op.reduce_path(reversed_p)):
                        out[k] += row[c] * x
            vec += out
        for v, images in _rep._generator_images(target, a, vec).items():
            cols[v] += images
    spaces = {v: Subspace.from_vectors(target.dims[v], images) for v, images in cols.items()}
    tr, _ = quotient_representation([target], spaces)
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
    sols = RatMatrix(rows, cols=hom_k.dim).kernel()
    g = None
    for srow in sols.basis:
        cand = hom_k.element(srow)
        if not factored.contains_vector(cand.flatten()):
            g = cand
            break
    if g is None:
        raise InconsistencyError("no almost split extension class found")
    # the image of K -> τZ ⊕ P0, k -> (g(k), -incl(k)): one column per basis vector of K
    spaces = {v: Subspace.from_vectors(tau_z.dims[v] + p0.dims[v], [
        gk + tuple(-x for x in ik)
        for gk, ik in zip(g.maps[v].transpose().data, incl.maps[v].transpose().data)])
        for v in Z.pres.quiver.vertices}
    middle, _ = quotient_representation([tau_z, p0], spaces)
    # E -> Z is induced by (0 | epi) on τZ ⊕ P0, read on the quotient's
    # basis: the unit vectors at the non-pivot positions
    maps = {}
    for v in Z.pres.quiver.vertices:
        cols = [c - tau_z.dims[v] for c in spaces[v].nonpivots()]
        maps[v] = RatMatrix._of_normal([[row[c] if c >= 0 else 0 for c in cols]
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
        self.injectives: set = set()  # nodes whose τ⁻¹ is known to be zero
        self.total_dim = 0
        self.fresh = 0
        # node -> its right almost split map, one (k, node k -> node) per
        # summand matched to a node so far
        self.pieces: Dict[int, list] = {}
        # (node j, summand, summand -> node j) for the summands of rad P and
        # of Ext-route middle terms that match no node yet
        self.loose: list = []
        # meshes knit per route (projective, cokernel, extension), and the
        # translates taken by Tr D or D Tr (translate)
        self.routes: Counter = Counter()
        self.projectives = range(len(pres.quiver.vertices))  # node i: P at the i-th vertex

    def _match(self, rep: Representation) -> Optional[tuple]:
        """(k, iso: node k -> rep) for the node k isomorphic to rep, or None.

        Called only on cokernels, on translates, on the summands αA of rad P
        that are not P_t, and on the summands that ``decompose`` splits off
        rad P and the Ext route's middle terms.
        Nodes and rep are indecomposable, so the basis test of
        ``find_isomorphism`` decides."""
        for k in self.buckets.get(rep.dim_vector(), ()):
            iso = find_isomorphism(self.nodes[k].rep, rep)
            if iso is not None:
                return k, iso
        return None

    def add(self, rep: Representation, root: str, power: int) -> int:
        """Add rep as a node and match it to the loose summands."""
        idx = len(self.nodes)
        self.total_dim += rep.total_dim()
        if idx + 1 > self.limits.max_modules or self.total_dim > self.limits.max_total_dim:
            raise LimitsExceededError(
                f"enumeration guard hit after {idx} modules (total dimension "
                f"{self.total_dim}); presentation presumed representation-infinite "
                "within the given limits")
        self.nodes.append(ARNode(idx, rep, root, power))
        self.buckets.setdefault(rep.dim_vector(), []).append(idx)
        for entry in [e for e in self.loose if e[1].dim_vector() == rep.dim_vector()]:
            j, summand, g = entry
            iso = find_isomorphism(rep, summand)
            if iso is not None:
                self.loose.remove(entry)
                self.pieces[j].append((idx, g @ iso))
        return idx

    def link_tau(self, y: int, x: int) -> None:
        """Record τ(node y) = node x and τ⁻¹(node x) = node y."""
        if self.tau.get(y, x) != x or self.tau_inverse.get(x, y) != y:
            raise InconsistencyError("conflicting translate links")
        self.tau[y] = x
        self.tau_inverse[x] = y

    def _knit(self, j: int, source: Representation, into: ModuleMorphism) -> None:
        """Keep the right almost split map source -> node j as pieces, one
        per indecomposable summand of source (see ``_place``)."""
        self.pieces[j] = []
        for Z, incl in decompose(source):
            self._place(j, Z, into @ incl)

    def _place(self, j: int, Z: Representation, g: ModuleMorphism) -> None:
        """Match the indecomposable summand g: Z -> node j to a node, or keep
        it loose until a node added later matches it."""
        found = self._match(Z)
        if found is None:
            self.loose.append((j, Z, g))
        else:
            self.pieces[j].append((found[0], g @ found[1]))

    def _knit_projective(self, p: int) -> None:
        """Keep rad P -> P for the seed p = P_a as pieces, one per arrow
        α: a -> t when rad P = ⊕ αA (ASS III.2), else by ``decompose``.

        h_α: P_t -> P, q -> αq, sends the generator of P_t to the class of
        α in P at t (``rep._generator_images``), and αA = im h_α.  The αA span
        rad P, so the sum is direct iff their dimensions add up to dim P - 1.
        Each αA is cyclic, so indecomposable: h_α is the piece from the seed
        P_t when it is mono, and otherwise αA is placed.
        """
        quiver, model, P = self.pres.quiver, self.pres.model(), self.nodes[p].rep
        a = quiver.vertices[p]
        arrows = []
        for alpha in quiver.out_arrows(a):
            alpha_class = model.reduce_path(Path(quiver, a, (alpha.name,)))
            h = {v: RatMatrix.from_columns(images, P.dims[v]) for v, images
                 in _rep._generator_images(P, alpha.target, alpha_class).items()}
            arrows.append((quiver._vindex[alpha.target], h, sum(m.rank() for m in h.values())))
        if sum(rank for _, _, rank in arrows) != P.total_dim() - 1:
            return self._knit(p, *radical_submodule(P))
        self.pieces[p] = []
        for t, h, rank in arrows:
            Pt = self.nodes[t].rep
            if rank == Pt.total_dim():
                self.pieces[p].append((t, ModuleMorphism(Pt, P, h, check=False)))
            else:
                self._place(p, *subrepresentation(P, {v: m.image() for v, m in h.items()}))

    def _owes_step(self, x: int) -> bool:
        """Whether τ⁻¹ of node x is undecided, or known with its mesh not yet knit."""
        if x in self.tau_inverse:
            return self.tau_inverse[x] not in self.pieces
        return x not in self.injectives

    def _ready(self, x: int) -> bool:
        """Whether the left almost split map out of node x can be read off
        knitted meshes: x's own, with every summand matched, and that of
        τ⁻¹w for each predecessor w of x, whose τ⁻¹ is decided.  The loose
        summands have been matched against every node, x included, so none
        of them is a source of an irreducible map out of x."""
        if x not in self.pieces or any(j == x for j, _, _ in self.loose):
            return False
        return all(not self._owes_step(w) for w, _ in self.pieces[x])

    def _left_almost_split(self, x: int) -> list:
        """(y, g: node x -> node y) for the irreducible maps out of node x,
        read off knitted pieces: those with source x into τ⁻¹w, for each
        non-injective w among x's pieces, and into the projectives.  Per
        target y they are a basis of Irr(x, y)."""
        targets = dict.fromkeys(self.tau_inverse[w] for w, _ in self.pieces[x]
                                if w in self.tau_inverse)
        targets.update(dict.fromkeys(self.projectives))
        return [(y, g) for y in targets for k, g in self.pieces[y] if k == x]

    def _step(self, x: int) -> None:
        """Decide τ⁻¹X for the node x from its left minimal almost split map
        f: X -> E (ASS IV.3-IV.4; ARS V.5).

        If X is not injective, f is mono and its cokernel is τ⁻¹X, matched
        to the nodes or added to x's orbit; the blocks of E -> τ⁻¹X are the
        pieces of its mesh.  If X is injective, f is X -> X/soc X, whose
        kernel, the simple socle, has dimension one.  Any other kernel, or a
        cokernel that is not the inverse translate already known, is an
        inconsistency.

        The work is done only where X and E live: at a vertex v where X_v or
        E_v is zero, im f_v is zero; elsewhere its spanning columns, one per
        basis vector of X_v, are read sparse off the blocks g_v of f_v.
        """
        node = self.nodes[x]
        X = node.rep
        components = self._left_almost_split(x)
        targets = [self.nodes[y].rep for y, _ in components]
        vertices = self.pres.quiver.vertices
        image = {}
        for v in vertices:
            height = sum(Y.dims[v] for Y in targets)
            if not (X.dims[v] and height):
                image[v] = Subspace.zero(height)
                continue
            columns = [{} for _ in range(X.dims[v])]
            offset = 0
            for _, g in components:
                for i, row in enumerate(g.maps[v].data, offset):
                    for col, entry in zip(columns, row):
                        if entry:
                            col[i] = entry
                offset += g.maps[v].rows
            image[v] = Subspace.from_vectors(height, columns)
        kernel = X.total_dim() - sum(s.dim for s in image.values())
        if kernel:
            if kernel != 1 or x in self.tau_inverse:
                raise InconsistencyError(
                    f"left almost split map out of {node.label}: kernel of dimension "
                    f"{kernel}, where an injective's is its simple socle and any "
                    "other node's is zero")
            self.injectives.add(x)
            return
        C, proj = quotient_representation(targets, image)
        z, iso = self._orbit_node(C, node, 1)
        if self.tau_inverse.get(x, z) != z or z in self.pieces:
            raise InconsistencyError(f"the cokernel of the left almost split map out of "
                                     f"{node.label} is not its inverse translate")
        if iso is not None:
            inv = iso.inverse()
            proj = {v: inv.maps[v] @ p for v, p in proj.items()}
        self.link_tau(z, x)
        self.routes["cokernel"] += 1
        Z = self.nodes[z].rep
        start = dict.fromkeys(vertices, 0)
        self.pieces[z] = []
        for (y, _), Y in zip(components, targets):
            maps = {}
            for v in vertices:
                lo, hi = start[v], start[v] + Y.dims[v]
                if hi == lo or not Z.dims[v]:
                    maps[v] = RatMatrix.zeros(Z.dims[v], hi - lo)
                else:
                    maps[v] = RatMatrix._of_normal([row[lo:hi] for row in proj[v].data], hi - lo)
                start[v] = hi
            self.pieces[z].append((y, ModuleMorphism(Y, Z, maps, check=False)))

    def _expand_orbit(self, idx: int) -> bool:
        """Take τ⁻¹ of node idx by Tr D, when undecided, and τ by D Tr, when
        idx is neither linked to its translate nor a seed; whether it took
        either step.

        τ is a bijection from the non-projective to the non-injective
        indecomposables, so each link is derived once, from the end the walk
        reaches first.  τ is taken on no seed: every module is matched to the
        nodes before it is added, so the seeds are the only projective nodes.
        """
        node = self.nodes[idx]
        took = idx not in self.tau_inverse and idx not in self.injectives
        if took:
            self.routes["translate"] += 1
            nxt = ar_translate_inverse(node.rep)
            if nxt is None:
                self.injectives.add(idx)
            else:
                self.link_tau(self._orbit_node(nxt, node, 1)[0], idx)
        if idx not in self.tau and idx not in self.projectives:
            self.routes["translate"] += 1
            self.link_tau(idx, self._orbit_node(ar_translate(node.rep), node, -1)[0])
            return True
        return took

    def _orbit_node(self, rep: Representation, node: ARNode, step: int) -> tuple:
        """(k, iso: node k -> rep) for the node k isomorphic to rep, a
        τ^(-step) of node; rep is added to node's orbit if new, with iso None."""
        found = self._match(rep)
        if found is not None:
            return found
        return self.add(rep, node.orbit_root, node.orbit_power + step), None

    def _fallback(self) -> bool:
        """Advance the walk where no node is ready for its step, as on cycles
        of the AR quiver; False when the walk is complete.

        In order of preference: the first node whose orbit step is open
        takes it by Tr D and D Tr; the first node without a mesh takes the
        Ext route, where E comes from a class in the socle of Ext¹(Z, τZ)
        and is decomposed; the first loose summand is added as a fresh node.
        """
        count = len(self.nodes)
        for x in range(count):
            if self._expand_orbit(x):
                return True
        for z in range(count):
            if z not in self.pieces:
                self.routes["extension"] += 1
                self._knit(z, *almost_split_middle(self.nodes[z].rep,
                                                   self.nodes[self.tau[z]].rep))
                return True
        if self.loose:
            self.fresh += 1
            self.add(self.loose[0][1], f"M{self.fresh}", 0)
            return True
        return False

    def _next_ready(self) -> Optional[int]:
        """The first node that owes its step and is ready for it, or None."""
        return next((x for x in range(len(self.nodes))
                     if self._owes_step(x) and self._ready(x)), None)

    def run(self):
        pres = self.pres
        for a in pres.quiver.vertices:  # P_a ≇ P_b: their tops differ
            self.add(projective(pres, a), f"P_{a}", 0)
        for p in self.projectives:
            self.routes["projective"] += 1
            self._knit_projective(p)
        while True:
            x = self._next_ready()
            if x is not None:
                self._step(x)
            elif not self._fallback():
                return self

    def alias_table(self) -> Dict[str, int]:
        """``P_a``/``I_a``/``S_a`` -> its node, read off the walk.

        P_a is the seed added at a (node i for the i-th vertex).  I_a is the
        injective node, the one with no τ⁻¹, whose simple socle lies at a
        (ARS IV.1).  S_a is the one node with dimension vector e_a.  Keys
        run over the vertices in order, P before I before S; a module with
        no node gets no key.  The injective nodes are certified first: one
        per vertex, with simple socles at distinct vertices, and of total
        dimension Σ dim P_a = dim A.  Their socle spaces are kept in
        ``socles`` for the filtration.
        """
        vertices = self.pres.quiver.vertices
        injectives = [k for k in range(len(self.nodes)) if k not in self.tau_inverse]
        self.socles = {k: socle_spaces(self.nodes[k].rep) for k in injectives}
        injective_at = {tuple(self.socles[k][v].dim for v in vertices): k for k in injectives}
        simple = [tuple(int(v == a) for v in vertices) for a in vertices]
        if len(injectives) != len(vertices) or set(injective_at) != set(simple):
            raise InconsistencyError("the nodes with no inverse translate do not have "
                                     "simple socles at distinct vertices")
        dim_i, dim_p = (sum(self.nodes[k].rep.total_dim() for k in ks)
                        for ks in (injectives, self.projectives))
        if dim_i != dim_p:
            raise InconsistencyError(f"the injective nodes have total dimension {dim_i}, "
                                     f"the projectives {dim_p}")
        table: Dict[str, int] = {}
        for i, (a, e_a) in enumerate(zip(vertices, simple)):
            found = (("P", i), ("I", injective_at[e_a]),
                     ("S", self.buckets.get(e_a, [None])[0]))
            table.update((f"{tag}_{a}", k) for tag, k in found if k is not None)
        return table


def ar_quiver(pres: AlgebraPresentation,
              limits: EnumerationLimits | None = None) -> ARQuiver:
    knit = _Knitter(pres, limits or EnumerationLimits()).run()
    aliases = knit.alias_table()
    for key, idx in aliases.items():
        knit.nodes[idx].aliases += (key,)
    filt = RadicalFiltration(pres, [n.rep for n in knit.nodes], knit.pieces, aliases,
                             knit.socles)
    return ARQuiver(knit.nodes, knit.tau, knit.tau_inverse, filt)
