"""Executable checkers for the vertex-reduction rules.

Each checker first verifies its rule's hypotheses on the computed data and
only then asserts the conclusion, which it additionally verifies against the
directly computed lengths; a contradiction raises InconsistencyError, since
a verified rule can only fail on a bug or invalid input.  The rule names
(A, B, C, D, the corollary, the numbered propositions and lemmas) follow
the CLI vocabulary.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .errors import InconsistencyError, MethodInapplicableError
from .linalg import Subspace
from .quiver import (
    AlgebraPresentation,
    classify,
    path_basis,
    zero_relation_vertices,
)
from .radical import (
    NilpotencyReport,
    RadicalFiltration,
    canonical_r,
    nilpotency_index,
)
from .rep import end_radical, radical_spaces

_RELATIONS = ("r_b<=r_a", "r_a<=r_b", "r_a==r_b", "none")


@dataclass(frozen=True)
class ComparisonFinding:
    """Outcome of comparing r_a and r_b across one arrow a -> b."""
    a: str
    b: str
    arrow: str
    rule: str
    dim_irr_proj: int          # dim Irr(P_b, P_a)
    dim_irr_inj: int           # dim Irr(I_b, I_a)
    dim_end_proj_b: int
    dim_end_inj_a: int
    proj_side: bool            # hypothesis holds on the projective side
    inj_side: bool
    relation: str              # one of _RELATIONS
    r_a: int
    r_b: int

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"bad relation {self.relation!r}")

    def to_json_dict(self) -> dict:
        return {
            "a": self.a, "b": self.b, "arrow": self.arrow, "rule": self.rule,
            "dim_irr_proj": self.dim_irr_proj, "dim_irr_inj": self.dim_irr_inj,
            "dim_end_proj_b": self.dim_end_proj_b, "dim_end_inj_a": self.dim_end_inj_a,
            "proj_side": self.proj_side, "inj_side": self.inj_side,
            "relation": self.relation, "r_a": self.r_a, "r_b": self.r_b,
        }


def _verify_relation(relation: str, r_a: int, r_b: int, context: str) -> None:
    ok = {
        "r_b<=r_a": r_b <= r_a,
        "r_a<=r_b": r_a <= r_b,
        "r_a==r_b": r_a == r_b,
        "none": True,
    }[relation]
    if not ok:
        raise InconsistencyError(
            f"{context}: asserted {relation} but r_a={r_a}, r_b={r_b}; "
            "bug or non-representation-finite input")


def _arrow_between(pres: AlgebraPresentation, a: str, b: str) -> str:
    for arr in pres.quiver.arrows:
        if arr.source == a and arr.target == b:
            return arr.name
    raise ValueError(f"no arrow {a} -> {b}")


def _conclude(proj_side: bool, inj_side: bool) -> str:
    if proj_side and inj_side:
        return "r_a==r_b"
    if proj_side:
        return "r_b<=r_a"
    if inj_side:
        return "r_a<=r_b"
    return "none"


def _compare_arrow(filt: RadicalFiltration, a: str, b: str,
                   rule: str, context: str, proj_holds, inj_holds) -> ComparisonFinding:
    """Arrow a -> b: r_b <= r_a when Irr(P_b, P_a) ≠ 0 and ``proj_holds(P_b, P_a)``,
    r_a <= r_b when Irr(I_b, I_a) ≠ 0 and ``inj_holds(I_b, I_a)`` (node indices)."""
    a, b = str(a), str(b)
    arrow = _arrow_between(filt.pres, a, b)
    pa, pb = filt.projective_index(a), filt.projective_index(b)
    ia, ib = filt.injective_index(a), filt.injective_index(b)
    irr_p = filt.dim_irr(pb, pa)
    irr_i = filt.dim_irr(ib, ia)
    proj_side = irr_p >= 1 and proj_holds(pb, pa)
    inj_side = irr_i >= 1 and inj_holds(ib, ia)
    relation = _conclude(proj_side, inj_side)
    r_a = canonical_r(filt, a)
    r_b = canonical_r(filt, b)
    _verify_relation(relation, r_a, r_b, f"{context} at arrow {arrow}")
    return ComparisonFinding(a, b, arrow, rule, irr_p, irr_i,
                             filt.hom[(pb, pb)].dim, filt.hom[(ia, ia)].dim,
                             proj_side, inj_side, relation, r_a, r_b)


def check_corollary_irred(filt: RadicalFiltration, a: str, b: str) -> ComparisonFinding:
    """Arrow a -> b: an irreducible P_b -> P_a with trivial End(P_b) forces
    r_b <= r_a; dually an irreducible I_b -> I_a with trivial End(I_a)
    forces r_a <= r_b."""
    return _compare_arrow(filt, a, b, "corollary", "corollary",
                          lambda pb, pa: filt.hom[(pb, pb)].dim == 1,
                          lambda ib, ia: filt.hom[(ia, ia)].dim == 1)


def _factorization_holds(filt: RadicalFiltration, src: int, dst: int, side: str) -> bool:
    """side 'proj': Hom(src,dst) == End(dst) ∘ f1; side 'inj':
    Hom(src,dst) == f1 ∘ End(src); f1 the first knitted piece src -> dst,
    an irreducible map."""
    f1 = next(g for k, g in filt.pieces(dst) if k == src)
    if side == "proj":
        comps = [mu @ f1 for mu in filt.hom[(dst, dst)].basis]
    else:
        comps = [f1 @ mu for mu in filt.hom[(src, src)].basis]
    span = Subspace.from_vectors(len(f1.flatten()), [c.flatten() for c in comps])
    return span.dim == filt.hom[(src, dst)].dim


def check_theorem_A(filt: RadicalFiltration, a: str, b: str) -> ComparisonFinding:
    """Arrow a -> b: if every nonzero P_b -> P_a factors as (P_a -> P_a) ∘ f1
    with f1 irreducible, then r_b <= r_a; dual on injectives gives r_a <= r_b.

    The factorization hypothesis is checked as a subspace identity: composing
    End with the knitted irreducible f1 must fill the whole Hom space.  Any
    other irreducible gives the same answer, since End(P_a) and End(I_b) are
    local: when dim Irr = 1 another one is u∘f1 (or f1∘u) with u invertible,
    and when dim Irr ≥ 2 no single one fills the Hom space.
    """
    return _compare_arrow(filt, a, b, "A", "factorization rule",
                          lambda pb, pa: _factorization_holds(filt, pb, pa, "proj"),
                          lambda ib, ia: _factorization_holds(filt, ib, ia, "inj"))


def check_prop_33(filt: RadicalFiltration) -> list:
    """Monomial ideals: classify each arrow by membership of its endpoints in
    the zero-relation vertex set and assert the forced comparison."""
    pres = filt.pres
    if not classify(pres).is_monomial:
        raise MethodInapplicableError("the zero-relation comparison needs a monomial ideal")
    r0 = set(zero_relation_vertices(pres))
    findings = []
    for arr in pres.quiver.arrows:
        a, b = arr.source, arr.target
        a_in, b_in = a in r0, b in r0
        if a_in and not b_in:
            relation = "r_b<=r_a"
        elif not a_in and b_in:
            relation = "r_a<=r_b"
        elif not a_in and not b_in:
            relation = "r_a==r_b"
        else:
            relation = "none"  # both involved: either order occurs
        r_a = canonical_r(filt, a)
        r_b = canonical_r(filt, b)
        _verify_relation(relation, r_a, r_b, f"zero-relation membership at arrow {arr.name}")
        findings.append(ComparisonFinding(
            a, b, arr.name, "prop33", 0, 0, 0, 0, a_in, b_in, relation, r_a, r_b))
    return findings


@dataclass(frozen=True)
class RelationCertificate:
    relation_index: int
    zero_relation: str
    vertices: tuple
    r_values: dict


@dataclass(frozen=True)
class ReductionCheck:
    """A reduction method's report, cross-checked against the direct index."""
    report: NilpotencyReport
    direct_r_A: int
    certificates: tuple = ()
    fallback: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = self.report.to_json_dict()
        out["direct_r_A"] = self.direct_r_A
        if self.certificates:
            out["certificates"] = [
                {
                    "relation_index": c.relation_index,
                    "zero_relation": c.zero_relation,
                    "vertices": list(c.vertices),
                    "r_values": dict(c.r_values),
                }
                for c in self.certificates
            ]
        if self.fallback:
            out["fallback"] = self.fallback
        return out


def _against_direct(rule: str, report: NilpotencyReport, direct: NilpotencyReport,
                    certificates: tuple = (), fallback: Optional[str] = None) -> ReductionCheck:
    """The check of a reduction rule's report, which must give the direct index."""
    if report.r_A != direct.r_A:
        raise InconsistencyError(
            f"rule {rule} gave {report.r_A} but the direct index is {direct.r_A}")
    return ReductionCheck(report, direct.r_A, certificates, fallback)


def check_theorem_B(filt: RadicalFiltration) -> ReductionCheck:
    """Monomial: r_A = max over zero-relation vertices of r_u + 1.

    When the ideal has no zero-relation vertices the bound degenerates; the
    report then falls back to the middle-vertex rule and says so.  Either
    way a value other than the direct index is an inconsistency.
    """
    if not classify(filt.pres).is_monomial:
        raise MethodInapplicableError("rule B needs a monomial ideal")
    direct = nilpotency_index(filt, "direct")
    fallback = None
    if zero_relation_vertices(filt.pres):
        report = nilpotency_index(filt, "zero-relations")
    else:
        report = nilpotency_index(filt, "v-set")
        fallback = "no zero-relation vertices; middle-vertex rule used"
    return _against_direct("B", report, direct, fallback=fallback)


def _zero_relation_certificates(filt: RadicalFiltration) -> tuple:
    certs = []
    for k, rel in enumerate(filt.pres.relations):
        if not rel.is_zero_relation():
            continue
        vertices = []
        for v in rel.terms[0][1].interior_vertices():
            if v not in vertices:
                vertices.append(v)
        if not vertices:
            continue
        values = {v: canonical_r(filt, v) for v in vertices}
        if len(set(values.values())) != 1:
            raise InconsistencyError(
                f"rule C: vertices of zero-relation {rel} have unequal r values {values}")
        certs.append(RelationCertificate(k, str(rel), tuple(vertices), values))
    return tuple(certs)


def check_theorem_C(filt: RadicalFiltration) -> ReductionCheck:
    """Monomial, each involved vertex in exactly one zero-relation exactly
    once: one representative per relation determines r_A, and all vertices of
    one zero-relation share the same r."""
    report = nilpotency_index(filt, "one-per-relation")  # gates preconditions
    direct = nilpotency_index(filt, "direct")
    certs = _zero_relation_certificates(filt)
    return _against_direct("C", report, direct, certs)


def check_theorem_D(filt: RadicalFiltration) -> ReductionCheck:
    """Toupie with one zero-relation branch and a commutativity pair: all
    zero-relation vertices share one r, one representative gives r_A, and the
    per-branch equalities hold."""
    shape = classify(filt.pres).toupie
    if shape is None or shape.grafo is None:
        raise MethodInapplicableError(
            "rule D needs the three-branch toupie with exactly one zero-relation "
            "branch and one commutativity pair")
    report = nilpotency_index(filt, "toupie")
    direct = nilpotency_index(filt, "direct")
    g = shape.grafo
    zero_branch = shape.branches[g.zero_branch]
    involved = [zero_branch.vertices[i - 1] for i in g.involved_vertices]
    values = {v: canonical_r(filt, v) for v in involved}
    if len(set(values.values())) != 1:
        raise InconsistencyError(f"rule D: zero-relation vertices differ: {values}")
    certs = [RelationCertificate(0, "zero-relation branch", tuple(involved), values)]
    # per-branch equalities, and outside-vertices bounded by involved ones
    rep_value = next(iter(values.values()))
    for bi in g.commutative_pair:
        branch = shape.branches[bi]
        vals = {v: canonical_r(filt, v) for v in branch.vertices}
        if len(set(vals.values())) > 1:
            raise InconsistencyError(f"branch {bi}: unequal r values {vals}")
        certs.append(RelationCertificate(bi, "commutative branch", tuple(branch.vertices), vals))
    outside = [v for v in zero_branch.vertices if v not in involved]
    out_vals = {v: canonical_r(filt, v) for v in outside}
    for v, val in out_vals.items():
        if val > rep_value:
            raise InconsistencyError(
                f"zero-branch vertex {v} outside the relation has r={val} > {rep_value}")
    return _against_direct("D", report, direct, tuple(certs))


def check_lemma_32(pres: AlgebraPresentation) -> list:
    """Monomial: vertices not involved in zero-relations have one-dimensional
    endomorphism rings on both the projective and the injective side."""
    if not classify(pres).is_monomial:
        raise MethodInapplicableError("this endomorphism bound needs a monomial ideal")
    r0 = set(zero_relation_vertices(pres))
    out = []
    for b in pres.quiver.vertices:
        cycles = len(path_basis(pres, b, b))  # = dim End(P_b) = dim End(I_b)
        entry = {"vertex": b, "involved": b in r0, "dim_end": cycles}
        if b not in r0 and cycles != 1:
            raise InconsistencyError(
                f"vertex {b} is not involved in a zero-relation but dim End = {cycles}")
        out.append(entry)
    return out


def _spans_line(vectors: list, line: tuple) -> bool:
    """Whether some vector in the span of ``vectors`` is nonzero and on the
    line spanned by ``line``."""
    return Subspace.from_vectors(len(line), vectors).contains_vector(line)


def _non_isos(filt: RadicalFiltration, i: int, j: int) -> list:
    """A basis of the non-isomorphisms node_i -> node_j: Hom(i, j), or
    rad End(i) when i = j."""
    hs = filt.hom.get((i, j))
    if hs is None:
        return []
    return hs.basis if i != j else [hs.element(r) for r in end_radical(hs).basis]


def check_lemma_refe(filt: RadicalFiltration) -> list:
    """For every nonzero P_a -> I_b not factoring through S_a there is a
    non-isomorphism I_b -> I_a whose composite is nonzero and factors through
    S_a; dually, not factoring through S_b admits P_b -> P_a with a nonzero
    composite through S_b; no witness is a fatal inconsistency.

    f is its value v = f(e_a) in (I_b)_a (Yoneda), and it factors through
    S_a, or equally through S_b, when v lies in the socle of I_b (zero at a
    unless a = b).  Otherwise each witness is a rank test on one vertex
    space: whether the span of the phi_a(v), phi over the non-isomorphisms
    I_b -> I_a, holds the socle line of I_a at a, and whether the span of
    the f_b(w), w = phi(e_b) over (P_a)_b (rad(P_a)_a when a = b) for the
    non-isomorphisms phi: P_b -> P_a, holds the socle line of I_b at b.
    """
    results = []
    for a in filt.pres.quiver.vertices:
        ip, ia = filt.projective_index(a), filt.injective_index(a)
        P_a, line_a = filt.reps[ip], filt.socle_line(a)
        for b in filt.pres.quiver.vertices:
            ib = filt.injective_index(b)
            if not filt.reps[ib].dims[a]:
                continue  # Hom(P_a, I_b) = (I_b)_a = 0 (Yoneda)
            hs = filt.hom.get((ip, ib))
            if hs is None:
                continue
            soc = filt.socle_spaces(ib)[a]
            ws = (radical_spaces(P_a)[a] if a == b else Subspace.full(P_a.dims[b])).basis
            for f in hs.basis:
                v = filt.at_generators(ip, f)
                if soc.contains_vector(v):
                    results += [{"a": a, "b": b, "case": "vacuous"},
                                {"a": a, "b": b, "case": "dual-vacuous"}]
                    continue
                if not _spans_line([phi.maps[a].apply(v) for phi in _non_isos(filt, ib, ia)],
                                   line_a):
                    raise InconsistencyError(
                        f"no witness I_{b} -> I_{a} for a morphism P_{a} -> I_{b}")
                results.append({"a": a, "b": b, "case": "post-composition"})
                if not _spans_line([f.maps[b].apply(w) for w in ws], filt.socle_line(b)):
                    raise InconsistencyError(
                        f"no witness P_{b} -> P_{a} for a morphism P_{a} -> I_{b}")
                results.append({"a": a, "b": b, "case": "pre-composition"})
    return results


def _each_arrow(check):
    """A per-arrow comparison run over every arrow, in quiver order."""
    return lambda filt: [check(filt, arr.source, arr.target) for arr in filt.pres.quiver.arrows]


# rule -> checker(filt), in report order
CHECKERS = {
    "corollary": _each_arrow(check_corollary_irred),
    "A": _each_arrow(check_theorem_A),
    "prop33": check_prop_33,
    "B": check_theorem_B,
    "C": check_theorem_C,
    "D": check_theorem_D,
    "lemma32": lambda filt: check_lemma_32(filt.pres),
    "lemma_refe": check_lemma_refe,
}
# a selection of several rules under one name
GROUPS = {"lemmas": ("lemma32", "lemma_refe")}


def check_all(filt: RadicalFiltration) -> dict:
    """Run every checker in ``CHECKERS``; inapplicable rules are reported."""
    out: Dict[str, object] = {}
    for name, check in CHECKERS.items():
        try:
            out[name] = check(filt)
        except MethodInapplicableError as exc:
            out[name] = {"inapplicable": str(exc)}
    return out
