import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from quivrad.errors import InconsistencyError, MethodInapplicableError
from quivrad.linalg import RatMatrix, Subspace
from quivrad.quiver import classify, parse_presentation
from quivrad.radical import canonical_r, nilpotency_index
from quivrad import artrans, radical, theorems as T
from quivrad import rep as R
from quivrad import ar_quiver
from quivrad.cli import main
from quivrad.rep import ModuleMorphism, Representation, hom_space

import dense_oracle
from conftest import FINITE_SAMPLES, fixture_path, load, pipeline, samples
from dense_oracle import hom, is_epi, is_mono, node_index, simple, socle
from toupie_witness import build_toupie_witness


def test_corollary_on_s2(s2_pipeline):
    pres, ar, filt = s2_pipeline
    by_arrow = {arr.name: T.check_corollary_irred(filt, arr.source, arr.target)
                for arr in pres.quiver.arrows}
    # both cyclic arrows blocked by two-dimensional endomorphism rings
    assert by_arrow["alpha"].relation == "none"
    assert by_arrow["beta"].relation == "none"
    assert by_arrow["alpha"].dim_end_proj_b == 2
    assert by_arrow["beta"].dim_end_inj_a == 2
    f = by_arrow["gamma"]
    assert f.relation == "r_b<=r_a" and f.r_a == 14 and f.r_b == 14


def test_corollary_requires_arrow(s2_pipeline):
    pres, ar, filt = s2_pipeline
    with pytest.raises(ValueError):
        T.check_corollary_irred(filt, "1", "3")


def test_factorization_rule_recovers_equality_on_s2(s2_pipeline):
    # the worked example: every P_1 -> P_2 and I_1 -> I_2 factors through an
    # irreducible, forcing r_1 = r_2 across the arrow 2 -> 1
    pres, ar, filt = s2_pipeline
    f = T.check_theorem_A(filt, "2", "1")
    assert f.proj_side and f.inj_side
    assert f.relation == "r_a==r_b"
    assert f.r_a == f.r_b == 14


def test_factorization_rule_a2():
    pres, ar, filt = pipeline("a2")
    f = T.check_theorem_A(filt, "1", "2")
    assert f.proj_side          # Hom(P_2, P_1) is one-dimensional
    assert f.relation in ("r_b<=r_a", "r_a==r_b")
    assert f.r_b <= f.r_a


def test_factorization_rule_none_without_irreducible(s2_pipeline):
    pres, ar, filt = s2_pipeline
    f = T.check_theorem_A(filt, "1", "2")
    assert f.dim_irr_proj == 0
    assert not f.proj_side


@pytest.mark.parametrize("name,builds", [("a3", False), ("s4_final", False),
                                         ("late_multiple", False), ("s2_cyclic", True)])
def test_rule_a_builds_end_only_over_a_hom_of_dimension_two_or_more(name, builds, monkeypatch):
    # Hom(P_b, P_a) ≅ (P_a)_b and Hom(I_b, I_a) ≅ (I_b)_a (Yoneda): where that
    # is one-dimensional the nonzero irreducible f1 spans it, so no End is built
    pres, ar, filt = pipeline(name)
    calls = []
    monkeypatch.setattr(T, "hom_space", lambda M, N: calls.append((M, N)) or hom_space(M, N))
    for arr in pres.quiver.arrows:
        T.check_theorem_A(filt, arr.source, arr.target)
    assert bool(calls) == builds, len(calls)


def _in_hom_coordinates(filt, i, j, n):
    """R^n(i, j) over the basis of Hom(i, j): the elements whose values at the
    generator of the projective node i lie in the layer."""
    hs, layer = hom(filt, i, j), filt.subspace(i, j, n)
    residues = [layer.quotient_coords(filt.at_generators(i, b)) for b in hs.basis]
    pulled = RatMatrix(list(zip(*residues)), cols=hs.dim).kernel()
    assert pulled.dim == layer.dim  # evaluation is injective on Hom(i, j)
    return pulled


def test_factorization_independent_of_representative(s2_pipeline):
    # any lift of a nonzero class modulo R² gives the same subspace identity
    pres, ar, filt = s2_pipeline
    pa = filt.projective_index("2")
    pb = filt.projective_index("1")
    hs = hom(filt, pb, pa)
    r2 = _in_hom_coordinates(filt, pb, pa, 2)
    reps = []
    for row in _in_hom_coordinates(filt, pb, pa, 1).basis:
        if not (r2.dim and r2.contains_vector(row)):
            reps.append(hs.element(row))
    assert reps
    f1 = reps[0]
    variants = [f1]
    for row in r2.basis:
        variants.append(f1 + hs.element(row))
    ends = hom(filt, pa, pa)
    spans = []
    for f in variants:
        vecs = [(mu @ f).flatten() for mu in ends.basis]
        spans.append(Subspace.from_vectors(len(f.flatten()), vecs).dim == hs.dim)
    assert len(set(spans)) == 1


def test_prop33_on_chain_without_relations(a3_pipeline):
    pres, ar, filt = a3_pipeline
    findings = T.check_prop_33(filt)
    assert [f.relation for f in findings] == ["r_a==r_b", "r_a==r_b"]
    values = {f.r_a for f in findings} | {f.r_b for f in findings}
    assert len(values) == 1


def test_prop33_gamma_arrow_on_s2(s2_pipeline):
    pres, ar, filt = s2_pipeline
    findings = {f.arrow: f for f in T.check_prop_33(filt)}
    assert findings["gamma"].relation == "r_b<=r_a"
    assert findings["alpha"].relation == "none"  # both endpoints involved


def test_prop33_both_involved_can_differ(s3_pipeline):
    pres, ar, filt = s3_pipeline
    findings = {f.arrow: f for f in T.check_prop_33(filt)}
    f = findings["a2"]  # arrow 2 -> 3, both involved
    assert f.relation == "none"
    assert canonical_r(filt, "2") < canonical_r(filt, "3")


def test_prop33_refuses_non_monomial(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    with pytest.raises(MethodInapplicableError):
        T.check_prop_33(filt)


def test_theorem_b_on_s2(s2_pipeline):
    pres, ar, filt = s2_pipeline
    check = T.check_theorem_B(filt)
    assert check.report.r_A == 15 == check.direct_r_A
    assert set(check.report.vertex_set) == {"1", "2"}


def test_theorem_b_fallback_without_zero_relations(a3_pipeline):
    pres, ar, filt = a3_pipeline
    check = T.check_theorem_B(filt)
    assert check.fallback is not None
    assert check.report.method == "v-set"
    assert check.report.r_A == check.direct_r_A


def test_theorem_b_fallback_refuses_a_wrong_index(a3_pipeline, monkeypatch, capsys):
    # a v-set reduction one above the direct index: the fallback raises like
    # the zero-relations branch, and the CLI exits 5
    pres, ar, filt = a3_pipeline
    real = T.nilpotency_index

    def wrong_v_set(filt, method="direct"):
        report = real(filt, method)
        return replace(report, r_A=report.r_A + 1) if method == "v-set" else report

    monkeypatch.setattr(T, "nilpotency_index", wrong_v_set)
    direct = real(filt, "direct").r_A
    with pytest.raises(InconsistencyError,
                       match=f"^rule B gave {direct + 1} but the direct index is {direct}$"):
        T.check_theorem_B(filt)
    assert main(["check", fixture_path("a3"), "--theorem", "B"]) == 5
    assert "internal inconsistency: rule B gave" in capsys.readouterr().err


def test_theorem_c_on_s2(s2_pipeline):
    pres, ar, filt = s2_pipeline
    check = T.check_theorem_C(filt)
    assert check.report.r_A == 15
    certs = check.certificates
    assert len(certs) == 1 and len(set(certs[0].r_values.values())) == 1
    assert set(certs[0].vertices) == {"1", "2"}


def test_theorem_c_refuses_unequal_values_on_one_relation(s2_pipeline, monkeypatch):
    # vertices of one zero-relation with different r values are an
    # inconsistency: no certificate reports them
    pres, ar, filt = s2_pipeline
    real = T.canonical_r
    monkeypatch.setattr(T, "canonical_r", lambda filt, a: real(filt, a) + (a == "2"))
    with pytest.raises(InconsistencyError,
                       match="^rule C: vertices of zero-relation .* have unequal r values"):
        T.check_theorem_C(filt)


def test_theorem_c_single_relation_chain(a3_rel_pipeline):
    pres, ar, filt = a3_rel_pipeline
    check = T.check_theorem_C(filt)
    assert check.report.vertex_set == ("2",)
    assert check.report.r_A == canonical_r(filt, "2") + 1 == check.direct_r_A


def test_theorem_c_refuses_overlapping_relations(s3_pipeline):
    pres, ar, filt = s3_pipeline
    with pytest.raises(MethodInapplicableError):
        T.check_theorem_C(filt)


def test_theorem_d_on_ex45(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    check = T.check_theorem_D(filt)
    assert check.report.r_A == check.direct_r_A
    zero_cert = check.certificates[0]
    assert set(zero_cert.vertices) == {"2", "3"}
    assert len(set(zero_cert.r_values.values())) == 1
    r2 = canonical_r(filt, "2")
    assert check.report.r_A == r2 + 1


def test_theorem_d_branch_equalities(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    check = T.check_theorem_D(filt)
    branch_certs = check.certificates[1:]
    assert all(len(set(c.r_values.values())) == 1 for c in branch_certs)
    # commutative-branch values stay at or below the zero-relation value
    zero_value = next(iter(check.certificates[0].r_values.values()))
    for cert in branch_certs:
        for value in cert.r_values.values():
            assert value <= zero_value


def test_theorem_d_refuses_two_zero_relations(final_pipeline):
    pres, ar, filt = final_pipeline
    with pytest.raises(MethodInapplicableError):
        T.check_theorem_D(filt)


def test_theorem_d_refuses_commutativity_only_toupie():
    # the shape gate fires before any module computation, so no enumeration
    # is needed (this particular branch profile is representation-infinite)
    pres = parse_presentation(
        "vertex 1 2 3 4 5 6\n"
        "arrow a1 1 2\narrow a2 2 3\narrow a3 3 4\n"
        "arrow b1 1 5\narrow b2 5 4\n"
        "arrow c1 1 6\narrow c2 6 4\n"
        "relation b1*b2 - c1*c2\n")
    cls = classify(pres)
    assert cls.toupie is not None and cls.toupie.grafo is None
    with pytest.raises(MethodInapplicableError):
        T.check_theorem_D(SimpleNamespace(pres=pres))  # refused before any knitting
    # on a representation-finite commutativity-only toupie (the commuting
    # square) the middle-vertex method still applies
    square = parse_presentation(
        "vertex 1 2 3 4\n"
        "arrow b1 1 2\narrow b2 2 4\n"
        "arrow c1 1 3\narrow c2 3 4\n"
        "relation b1*b2 - c1*c2\n")
    cls2 = classify(square)
    assert cls2.toupie is not None and cls2.toupie.grafo is None
    ar = ar_quiver(square)
    with pytest.raises(MethodInapplicableError):
        T.check_theorem_D(ar.filtration)
    report = nilpotency_index(ar.filtration, "v-set")
    assert report.r_A == nilpotency_index(ar.filtration, "direct").r_A


def test_witness_modules(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    shape = classify(pres).toupie
    for i in (1, 2):
        w = build_toupie_witness(filt, shape, i)
        assert w.end_dim == 2
        assert w.expected_layer == 6
        assert w.rho_layer == 6          # the cycles sit in layer six exactly
        assert not w.rho.is_zero()
        assert not (w.rho @ w.phi).is_zero()
        assert not (w.psi @ w.rho).is_zero()
        assert is_mono(w.phi) and is_epi(w.psi)
        assert (w.rho @ w.rho).is_zero()
        assert w.verified()


def test_witness_factors_through_simple(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    shape = classify(pres).toupie
    w = build_toupie_witness(filt, shape, 1)
    S = simple(pres, w.vertex)
    down = hom_space(w.module, S)
    up = hom_space(S, w.module)
    assert any(not (u @ d).is_zero() and ((u @ d) - w.rho).is_zero() or
               not (u @ d).is_zero() and ((u @ d) + w.rho).is_zero()
               for d in down.basis for u in up.basis)
    # the simple sits inside the socle of the witness module
    soc, _ = socle(w.module)
    assert soc.dims[w.vertex] >= 1


def test_witness_rejects_bad_index(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    shape = classify(pres).toupie
    with pytest.raises(ValueError):
        build_toupie_witness(filt, shape, 5)


def test_lemma_32(s2_pipeline):
    pres, ar, filt = s2_pipeline
    rows = {r["vertex"]: r for r in T.check_lemma_32(pres)}
    assert rows["3"]["dim_end"] == 1 and not rows["3"]["involved"]
    assert rows["1"]["dim_end"] == 2 and rows["1"]["involved"]
    assert rows["2"]["dim_end"] == 2 and rows["2"]["involved"]
    free = load("a3")
    assert all(r["dim_end"] == 1 for r in T.check_lemma_32(free))


def test_lemma_32_refuses_non_monomial():
    with pytest.raises(MethodInapplicableError):
        T.check_lemma_32(load("ex_4_5"))


def test_lemma_refe_witness_search(s2_pipeline, a2_pipeline):
    pres, ar, filt = s2_pipeline
    results = T.check_lemma_refe(filt)
    cases = {r["case"] for r in results}
    assert "post-composition" in cases or "vacuous" in cases
    a2, ar2, filt2 = a2_pipeline
    results2 = T.check_lemma_refe(filt2)
    assert results2


@pytest.mark.parametrize("name", ("a3", "s2_cyclic", "s3_cycle", "ex_4_5", "s4_final"))
def test_lemma_refe_computes_no_hom_space_that_yoneda_rules_out(name, monkeypatch):
    # Hom(P_a, I_b) = (I_b)_a: a pair where that space is zero has nothing to
    # check, so no Hom space is computed for it, and every other pair's is
    # computed once.  The witnesses read vertex spaces, so the only other
    # Hom spaces are the Hom(I_b, I_a) of the post-composition witnesses:
    # none into or out of a simple, and no Hom(P_b, P_a)
    pres = load(name)
    filt = ar_quiver(pres).filtration
    calls = []
    real = T.hom_space
    monkeypatch.setattr(T, "hom_space", lambda M, N: calls.append((M, N)) or real(M, N))
    T.check_lemma_refe(filt)
    vertices = pres.quiver.vertices
    for a in vertices:
        P_a = filt.reps[filt.projective_index(a)]
        for b in vertices:
            I_b = filt.reps[filt.injective_index(b)]
            count = sum(1 for M, N in calls if M is P_a and N is I_b)
            assert count == (1 if I_b.dims[a] else 0), (a, b)
    pairs = [(node_index(filt, M), node_index(filt, N)) for M, N in calls]
    injective = {filt.injective_index(a) for a in vertices}
    yoneda = {(filt.projective_index(a), filt.injective_index(b)) for a in vertices
              for b in vertices if filt.reps[filt.injective_index(b)].dims[a]}
    others = set(pairs) - yoneda
    assert len(set(pairs)) == len(pairs)
    assert others and others <= {(i, j) for i in injective for j in injective}


@pytest.mark.parametrize("name", FINITE_SAMPLES)
def test_lemma_refe_matches_the_hom_space_reference(name, monkeypatch):
    # the findings equal those of the composites through S_a and S_b built
    # from Hom spaces; each rank test on a vertex space spans what the
    # reference's composites and its morphisms through the simple take at
    # the generator of their source (Yoneda); and a morphism P_a -> I_b
    # factors through S_a exactly when it factors through S_b
    for pres, ar in samples(name):
        filt = ar.filtration
        tests = []
        real = T._spans_line
        monkeypatch.setattr(T, "_spans_line",
                            lambda vectors, line: tests.append((vectors, line)) or real(vectors, line))
        found = T.check_lemma_refe(filt)
        monkeypatch.undo()
        searches = []
        assert found == dense_oracle.lemma_refe(filt, searches)
        assert len(tests) == len(searches)
        for (vectors, line), (source, comps, through) in zip(tests, searches):
            i = node_index(filt, source)

            def span(vecs):
                return Subspace.from_vectors(len(line), vecs)

            assert span([line]) == span([filt.at_generators(i, g) for g in through])
            assert span(vectors) == span([filt.at_generators(i, g) for g in comps])
        for a in pres.quiver.vertices:
            ip = filt.projective_index(a)
            for b in pres.quiver.vertices:
                ib = filt.injective_index(b)
                hs = hom(filt, ip, ib)
                if hs is not None:
                    through_a = dense_oracle.through_simple(filt, a, ib)
                    through_b = dense_oracle.through_simple_dual(filt, b, ip)
                    assert dense_oracle.flat_span(through_a, hs.space.ambient) == \
                        dense_oracle.flat_span(through_b, hs.space.ambient), (a, b)


@pytest.mark.parametrize("name", FINITE_SAMPLES)
def test_check_all_takes_each_r_a_and_socle_once(name, monkeypatch):
    # check_all asks for r_a per arrow, per rule and per certificate: the
    # filtration keeps it, so canonical_r walks the layers once per vertex;
    # the socle spaces are computed once per injective node, by the alias
    # table, and socle_line and lemma_refe read them there
    walks, socles = [], []
    real_length, real_socle = radical._length, R.socle_spaces

    def length(filt, i, j, values):
        if sys._getframe(1).f_code.co_name == "canonical_r":
            walks.append((id(filt), i, j))
        return real_length(filt, i, j, values)

    monkeypatch.setattr(radical, "_length", length)
    for module in (artrans, R):
        monkeypatch.setattr(module, "socle_spaces", lambda M: socles.append(M) or real_socle(M))
    for pres, _ in samples(name):
        del walks[:], socles[:]
        filt = ar_quiver(pres).filtration
        T.check_all(filt)
        assert sorted(set(walks)) == sorted(walks)
        assert len(walks) == len(pres.quiver.vertices)
        assert len({id(M) for M in socles}) == len(socles)
        assert {id(M) for M in socles} == {id(filt.reps[filt.injective_index(a)])
                                           for a in pres.quiver.vertices}


def test_witness_rank_test_reaches_past_basis_and_pairwise_sums():
    # over one vertex, Hom(k, k^3) has basis e1, e2, e3; the target line is
    # spanned by e1 + e2 + e3, which is neither a basis element nor a
    # pairwise sum or difference, yet lies in the span of the values
    pres = parse_presentation("vertex 1\n")
    k, k3 = Representation(pres, {"1": 1}, {}), Representation(pres, {"1": 3}, {})
    basis = list(hom_space(k, k3).basis)
    assert len(basis) == 3
    line = (1, 1, 1)
    target = Subspace.from_vectors(3, [line])
    pairs = [op(x, y) for i, x in enumerate(basis) for y in basis[i + 1:]
             for op in (ModuleMorphism.__add__, ModuleMorphism.__sub__)]
    assert not any(target.contains_vector(phi.flatten()) for phi in basis + pairs)
    values = [phi.maps["1"].apply([1]) for phi in basis]  # phi(1), as for phi∘f
    assert T._spans_line(values, line)
    identity = ModuleMorphism.identity(k3).maps["1"]  # f(w) over w in k^3, as for f∘phi
    assert T._spans_line([identity.apply(w) for w in Subspace.full(3).basis], line)
    assert not T._spans_line(values[:2], line)
    assert not T._spans_line([[0, 0, 0]] * 3, line)
    assert not T._spans_line([], line)


def test_verification_failure_raises():
    with pytest.raises(InconsistencyError):
        T._verify_relation("r_a==r_b", 3, 5, "unit test")


def test_check_all_shapes(s2_pipeline):
    pres, ar, filt = s2_pipeline
    out = T.check_all(filt)
    assert set(out) == {"corollary", "A", "prop33", "B", "C", "D", "lemma32", "lemma_refe"}
    assert isinstance(out["D"], dict) and "inapplicable" in out["D"]
    assert out["B"].report.r_A == 15
