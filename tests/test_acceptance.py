"""Acceptance criteria, one test per criterion, all checks exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""
import sys

import pytest

from quivrad.errors import LimitsExceededError, MethodInapplicableError
from quivrad.linalg import Subspace
from quivrad.quiver import classify
from quivrad.radical import canonical_r, gate_method, nilpotency_index
from quivrad.rep import end_radical
from quivrad import theorems as T
from quivrad.artrans import EnumerationLimits, ar_quiver

from conftest import load, projective_pairs
from dense_oracle import hom, hom_pairs, is_epi, is_mono, morphism_length
from randgen import random_finite_monomial
from toupie_witness import build_toupie_witness


def _announce(number: int, name: str):
    print(f"ACCEPTANCE {number} ({name}): PASS")
    sys.stdout.flush()


@pytest.fixture(scope="module")
def random_pipelines():
    samples = []
    for text, pres, ar in random_finite_monomial(20):
        ar.filtration.ensure_complete()
        samples.append((text, pres, ar, ar.filtration))
    return samples


@pytest.fixture(scope="module")
def property_pipelines(random_pipelines, s2_pipeline, ex25_pipeline, s3_pipeline,
                       ex45_pipeline, final_pipeline, a2_pipeline, a3_pipeline,
                       a3_rel_pipeline):
    named = [s2_pipeline, ex25_pipeline, s3_pipeline, ex45_pipeline,
             final_pipeline, a2_pipeline, a3_pipeline, a3_rel_pipeline]
    out = [(pres, ar, ar.filtration) for pres, ar, _ in named]
    out.extend((pres, ar, filt) for _, pres, ar, filt in random_pipelines)
    return out


def test_criterion_1_cyclic_fixture(s2_pipeline):
    pres, ar, filt = s2_pipeline
    assert canonical_r(filt, "1") == 14
    assert canonical_r(filt, "2") == 14
    assert nilpotency_index(filt, "direct").r_A == 15
    p1 = filt.projective_index("1")
    i2 = filt.injective_index("2")
    assert hom(filt, p1, p1).dim == 2
    assert hom(filt, i2, i2).dim == 2
    _announce(1, "cyclic fixture r and End dimensions")


def test_criterion_2_ten_vertex_fixture(ex25_pipeline):
    pres, ar, filt = ex25_pipeline
    assert canonical_r(filt, "2") == 27
    assert canonical_r(filt, "9") == 27
    assert canonical_r(filt, "4") == 26
    assert nilpotency_index(filt, "direct").r_A == 28
    findings = {(f.a, f.b): f for f in
                (T.check_corollary_irred(filt, x.source, x.target)
                 for x in pres.quiver.arrows)}
    assert findings[("8", "9")].relation == "r_a<=r_b"      # r_8 <= r_9
    assert findings[("3", "6")].relation == "r_a<=r_b"      # r_3 <= r_6
    assert findings[("4", "8")].relation == "r_a==r_b"      # r_8 = r_4
    assert findings[("4", "5")].relation == "r_a==r_b"      # r_5 = r_4
    assert findings[("5", "3")].relation == "r_b<=r_a"      # r_3 <= r_5
    assert findings[("2", "3")].relation == "r_b<=r_a"      # r_3 <= r_2
    _announce(2, "ten-vertex fixture r values and comparison chain")


def test_criterion_3_four_vertex_cycle(s3_pipeline):
    pres, ar, filt = s3_pipeline
    assert canonical_r(filt, "2") == 12
    assert canonical_r(filt, "3") == 16
    with pytest.raises(MethodInapplicableError):
        T.check_theorem_C(filt)
    _announce(3, "four-vertex cycle r values and rule-C refusal")


def test_criterion_4_toupie_witnesses(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    shape = classify(pres).toupie
    for i in (1, 2):
        w = build_toupie_witness(filt, shape, i)
        assert w.rho_layer == 6 and w.expected_layer == 6
        assert not w.rho.is_zero()
        assert not (w.rho @ w.phi).is_zero()
        assert not (w.psi @ w.rho).is_zero()
        assert is_mono(w.phi) and is_epi(w.psi)
        assert w.end_dim == 2
        assert w.verified()
    r2 = canonical_r(filt, "2")
    r3 = canonical_r(filt, "3")
    assert r2 == r3
    direct = nilpotency_index(filt, "direct").r_A
    toupie = nilpotency_index(filt, "toupie").r_A
    assert toupie == direct == r2 + 1
    _announce(4, "toupie witness cycles of length six and rule-D equality")


def test_criterion_5_two_zero_relations(final_pipeline):
    pres, ar, filt = final_pipeline
    with pytest.raises(MethodInapplicableError):
        T.check_theorem_D(filt)
    values = {a: canonical_r(filt, a) for a in pres.quiver.vertices}
    peak = max(values.values())
    assert values["5"] == values["6"] == peak
    assert nilpotency_index(filt, "direct").r_A == peak + 1
    _announce(5, "two-zero-relation fixture: rule D refuses, peak at 5 and 6")


def _check_multiplicity_law(pres, ar, filt):
    for node in ar.nodes:
        for a in pres.quiver.vertices:
            ia = filt.injective_index(a)
            pa = filt.projective_index(a)
            into = hom(filt, node.index, ia)
            outof = hom(filt, pa, node.index)
            d = node.rep.dims[a]
            assert (into.dim if into else 0) == d
            assert (outof.dim if outof else 0) == d


def _check_mesh_identity(pres, ar, filt):
    arrows = ar.arrows()
    for node in ar.nodes:
        if node.index not in ar.tau:
            continue
        tau_rep = ar.nodes[ar.tau[node.index]].rep
        lhs = [x + y for x, y in zip(tau_rep.dim_vector(), node.rep.dim_vector())]
        rhs = [0] * len(lhs)
        for s, t, m in arrows:
            if t == node.index:
                rhs = [x + m * y for x, y in zip(rhs, ar.nodes[s].rep.dim_vector())]
        assert lhs == rhs, f"mesh fails at {node.label}"


def _check_trivial_valuation(filt):
    for (i, j) in hom_pairs(filt):
        assert filt.dim_irr(i, j) in (0, 1)


def _check_cross_method_agreement(pres, filt):
    direct = nilpotency_index(filt, "direct").r_A
    for method in ("v-set", "zero-relations", "one-per-relation", "toupie"):
        try:
            gate_method(pres, method)
        except MethodInapplicableError:
            continue
        assert nilpotency_index(filt, method).r_A == direct, method


def _check_length_additivity(pres, filt):
    for a in pres.quiver.vertices:
        ip = filt.projective_index(a)
        is_ = filt.aliases[f"S_{a}"]
        ii = filt.injective_index(a)
        p = hom(filt, ip, is_).basis[0]
        q = hom(filt, is_, ii).basis[0]
        n = morphism_length(p, filt)
        m = morphism_length(q, filt)
        assert morphism_length(q @ p, filt) == n + m


def _brute_force_layers_agree(filt):
    """Exhaustive n-fold composition of radical basis elements, every n.

    Layer one comes from the Hom bases and the endomorphism radicals, not
    from the filtration; spans out of each projective node, the rows the
    filtration keeps, are compared through evaluation at its generator,
    the coordinates of ``filt.subspace``.
    """
    pairs = hom_pairs(filt)
    rad1 = {}
    for (i, j) in pairs:
        hs = hom(filt, i, j)
        if i != j:
            rad1[(i, j)] = list(hs.basis)
        else:
            rad = end_radical(hs)
            if rad.dim:
                rad1[(i, j)] = [hs.element(row) for row in rad.basis]
    composites = {key: list(val) for key, val in rad1.items()}
    n = 1
    r_a = filt.nilpotency_index()
    while n < r_a:
        # compare spans of explicit composites with the iterative layer
        for (i, j) in projective_pairs(filt):
            iterative = filt.subspace(i, j, n)
            brute = Subspace.from_vectors(
                iterative.ambient,
                [filt.at_generators(i, f) for f in composites.get((i, j), ())])
            assert brute == iterative, f"layer {n} disagrees on pair {(i, j)}"
        nxt = {}
        for (i, k), chains in composites.items():
            for (k2, j), gs in rad1.items():
                if k2 != k:
                    continue
                for c in chains:
                    for g in gs:
                        comp = g @ c
                        if not comp.is_zero():
                            nxt.setdefault((i, j), []).append(comp)
        composites = nxt
        n += 1
    assert not composites  # nothing survives at the nilpotency index


def test_criterion_6_property_suites(property_pipelines):
    brute_checked = 0
    for pres, ar, filt in property_pipelines:
        _check_multiplicity_law(pres, ar, filt)
        _check_mesh_identity(pres, ar, filt)
        _check_trivial_valuation(filt)
        _check_cross_method_agreement(pres, filt)
        _check_length_additivity(pres, filt)
        if ar.node_count() <= 12:
            _brute_force_layers_agree(filt)
            brute_checked += 1
    assert brute_checked >= 3
    _announce(6, f"property suites on {len(property_pipelines)} presentations, "
                 f"brute-force oracle on {brute_checked}")


def test_criterion_7_termination_guard():
    kron = load("kronecker")
    with pytest.raises(LimitsExceededError):
        ar_quiver(kron, EnumerationLimits(max_modules=12, max_total_dim=300))
    _announce(7, "representation-infinite input hits the guard")
