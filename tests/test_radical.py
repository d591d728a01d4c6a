import ast
from pathlib import Path

import pytest

from quivrad import artrans, radical, theorems
from quivrad import rep as R
from quivrad.errors import InconsistencyError, MethodInapplicableError
from quivrad.linalg import RatMatrix, Subspace
from quivrad.radical import (
    NilpotencyReport,
    canonical_r,
    choose_method,
    gate_method,
    licensed_vertices,
    nilpotency_index,
)
from quivrad.rep import ModuleMorphism, are_isomorphic, projective
from quivrad import RadicalFiltration, ar_quiver, parse_presentation

from conftest import (DATA, FINITE_SAMPLES, knitted_socles, load, pipeline, projective_pairs,
                      relabelled_filtration, samples)
from dense_oracle import canonical_maps, hom, injective, morphism_length, simple
from randgen import random_finite_monomial, random_nakayama


def test_a2_second_layer_vanishes(a2_pipeline):
    pres, ar, filt = a2_pipeline
    assert filt.nilpotency_index() == 2
    for (i, j) in projective_pairs(filt):
        assert filt.subspace(i, j, 2).is_zero()


def test_s2_layers_die_at_fifteen(s2_pipeline):
    pres, ar, filt = s2_pipeline
    assert filt.nilpotency_index() == 15
    assert filt.layers_computed() == 14
    pairs = projective_pairs(filt)
    assert any(not filt.subspace(i, j, 14).is_zero() for (i, j) in pairs)
    assert all(filt.subspace(i, j, 15).is_zero() for (i, j) in pairs)


def test_layers_weakly_decrease(s3_pipeline):
    pres, ar, filt = s3_pipeline
    for (i, j) in projective_pairs(filt):
        n = 1
        while True:
            upper = filt.subspace(i, j, n)
            lower = filt.subspace(i, j, n + 1)
            if lower.is_zero():
                break
            assert upper + lower == upper
            n += 1


def test_layer_one_shape(s2_pipeline):
    # layer one is all of Hom(P_a, j) for j other than P_a and a hyperplane
    # of the local endomorphism ring of P_a, compared through evaluation at
    # the generator of P_a, which is injective on Hom(P_a, j)
    pres, ar, filt = s2_pipeline
    for (i, j) in projective_pairs(filt):
        hs = hom(filt, i, j)
        layer = filt.subspace(i, j, 1)
        values = Subspace.from_vectors(layer.ambient,
                                       [filt.at_generators(i, b) for b in hs.basis])
        assert values.dim == hs.dim
        if i != j:
            assert layer == values
        else:
            assert layer.dim == hs.dim - 1  # local endomorphism rings
            assert layer + values == values


def test_morphism_length_of_identity_is_zero(a2_pipeline):
    pres, ar, filt = a2_pipeline
    node = ar.nodes[0]
    assert morphism_length(ModuleMorphism.identity(node.rep), filt) == 0


def test_morphism_length_rejects_zero(a2_pipeline):
    pres, ar, filt = a2_pipeline
    node = ar.nodes[0]
    with pytest.raises(ValueError):
        morphism_length(ModuleMorphism.zero(node.rep, node.rep), filt)


def test_morphism_length_refuses_a_module_that_is_not_a_node(a2_pipeline):
    pres, ar, filt = a2_pipeline
    twice = R.direct_sum([ar.nodes[0].rep, ar.nodes[0].rep])  # decomposable
    with pytest.raises(ValueError, match="^representation is not a filtration node$"):
        morphism_length(ModuleMorphism.identity(twice), filt)


def test_morphism_length_refuses_a_map_that_does_not_intertwine(a2_pipeline):
    # unchecked maps: the identity at the source of a nonzero arrow between
    # two vertices, zero at its target
    pres, ar, filt = a2_pipeline
    node, arrow = next((node, a) for node in ar.nodes for a in pres.quiver.arrows
                       if a.source != a.target and not node.rep.matrices[a.name].is_zero())
    maps = {v: RatMatrix.identity(d) if v == arrow.source else RatMatrix.zeros(d, d)
            for v, d in node.rep.dims.items()}
    f = ModuleMorphism(node.rep, node.rep, maps, check=False)
    assert not f.is_zero()
    with pytest.raises(ValueError,
                       match=r"^morphism does not intertwine \(not in the Hom space\)$"):
        morphism_length(f, filt)


def test_irreducible_representative_has_length_one(s2_pipeline):
    # a Hom-basis element between the ends of an arrow that lies outside R²
    pres, ar, filt = s2_pipeline
    s, t, m = ar.arrows()[0]
    assert m == 1
    r2 = filt.subspace(s, t, 2)
    rep = next(b for b in hom(filt, s, t).basis
               if not r2.contains_vector(filt.at_generators(s, b)))
    assert morphism_length(rep, filt) == 1


def test_canonical_r_values(s2_pipeline, a2_pipeline, s3_pipeline):
    pres, ar, filt = s2_pipeline
    assert canonical_r(filt, "1") == 14
    assert canonical_r(filt, "2") == 14
    a2, ar2, filt2 = a2_pipeline
    assert canonical_r(filt2, "1") == 1
    s3, ar3, filt3 = s3_pipeline
    assert canonical_r(filt3, "2") == 12
    assert canonical_r(filt3, "3") == 16


def test_nilpotency_index_methods_agree_on_s2(s2_pipeline):
    pres, ar, filt = s2_pipeline
    results = {}
    for method in ("direct", "v-set", "zero-relations", "one-per-relation", "auto"):
        results[method] = nilpotency_index(filt, method).r_A
    assert set(results.values()) == {15}


def test_nilpotency_report_fields(s2_pipeline):
    pres, ar, filt = s2_pipeline
    report = nilpotency_index(filt, "v-set")
    data = report.to_json_dict()
    assert set(data) == {"method", "r_A", "per_vertex", "vertex_set", "layers_computed"}
    assert data["vertex_set"] == ["1", "2"]
    assert data["per_vertex"] == {"1": 14, "2": 14}
    assert data["layers_computed"] == 14


def test_single_vertex_algebra_has_index_one():
    pres = parse_presentation("vertex 1\n")
    report = nilpotency_index(ar_quiver(pres).filtration, "direct")
    assert report.r_A == 1


def test_v_set_refuses_when_empty(a2_pipeline):
    pres, ar, filt = a2_pipeline
    with pytest.raises(MethodInapplicableError):
        nilpotency_index(filt, "v-set")


def test_zero_relations_refuses_non_monomial(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    with pytest.raises(MethodInapplicableError):
        nilpotency_index(filt, "zero-relations")
    with pytest.raises(MethodInapplicableError):
        gate_method(pres, "zero-relations")


def test_one_per_relation_refuses_shared_vertices(s3_pipeline):
    pres, ar, filt = s3_pipeline
    with pytest.raises(MethodInapplicableError):
        nilpotency_index(filt, "one-per-relation")


def test_one_per_relation_refuses_a_relation_free_algebra(a3_pipeline):
    pres, ar, filt = a3_pipeline
    for method in ("one-per-relation", "zero-relations"):
        with pytest.raises(MethodInapplicableError,
                           match="^no vertices are involved in zero-relations; "):
            licensed_vertices(pres, method)


def test_toupie_method(ex45_pipeline):
    pres, ar, filt = ex45_pipeline
    report = nilpotency_index(filt, "toupie")
    assert report.r_A == nilpotency_index(filt, "direct").r_A
    assert len(report.vertex_set) == 1


def test_choose_method():
    assert choose_method(load("ex_4_5")) == "toupie"
    assert choose_method(load("s2_cyclic")) == "one-per-relation"
    assert choose_method(load("s3_cycle")) == "zero-relations"
    assert choose_method(load("a3")) == "v-set"
    assert choose_method(parse_presentation("vertex 1\n")) == "direct"


def test_auto_notes_selection(s2_pipeline):
    pres, ar, filt = s2_pipeline
    report = nilpotency_index(filt, "auto")
    assert report.method == "auto"
    assert any("one-per-relation" in note for note in report.notes)


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        NilpotencyReport("direct", 0, {}, (), 0)
    with pytest.raises(ValueError):
        NilpotencyReport("v-set", 3, {"1": 5}, ("1",), 2)


def test_length_additivity_on_canonical_composites():
    # on every finite fixture and randgen sample: composing the epi onto the
    # simple with the mono into the injective adds lengths, and canonical_r,
    # read off the socle line of I_a at a, is the length of that composite
    # built from Hom spaces
    for name in FINITE_SAMPLES:
        for pres, ar in samples(name):
            filt = ar.filtration
            for a in pres.quiver.vertices:
                p, q = canonical_maps(filt, a)
                n = morphism_length(p, filt)
                m = morphism_length(q, filt)
                assert morphism_length(q @ p, filt) == n + m == canonical_r(filt, a), (name, a)


def test_composite_of_irreducibles_has_length_at_least_two(s2_pipeline):
    # nonzero composites of two irreducible representatives sit in layer >= 2
    pres, ar, filt = s2_pipeline
    arrows = ar.arrows()
    checked = 0
    for (s1, t1, _) in arrows:
        for (s2, t2, _) in arrows:
            if t1 != s2:
                continue
            # the knitted pieces are irreducible maps s1 -> t1 and s2 -> t2
            first = next(g for k, g in filt.pieces(t1) if k == s1)
            second = next(g for k, g in filt.pieces(t2) if k == s2)
            assert morphism_length(first, filt) == morphism_length(second, filt) == 1
            composite = second @ first
            if not composite.is_zero():
                assert morphism_length(composite, filt) >= 2
                checked += 1
    assert checked > 0


def test_non_factoring_morphisms_are_shorter(s2_pipeline):
    # Hom-basis elements P_a -> I_a whose value at the generator is off the
    # socle line of I_a at a do not factor through S_a, and have length
    # strictly below r_a
    pres, ar, filt = s2_pipeline
    checked = 0
    for a in pres.quiver.vertices:
        ip, ii = filt.projective_index(a), filt.injective_index(a)
        hs = hom(filt, ip, ii)
        if hs is None:
            continue
        r_a = canonical_r(filt, a)
        line = filt.socle_line(a)
        through = Subspace.from_vectors(len(line), [line])
        for f in hs.basis:
            if not through.contains_vector(filt.at_generators(ip, f)):
                assert morphism_length(f, filt) < r_a
                checked += 1
    assert checked


LIST_FIXTURES = ("a2", "a3", "a3_rel", "s2_cyclic", "s3_cycle", "ex_4_5", "s4_final")
REDUCTIONS = ("toupie", "one-per-relation", "zero-relations", "v-set")  # auto's order


@pytest.mark.parametrize("name", LIST_FIXTURES)
def test_filtration_from_a_node_list_matches_the_ar_quiver(name):
    # the knitted nodes in reverse order, pieces and aliases renumbered
    pres, ar, filt = pipeline(name)
    last = ar.node_count() - 1
    fresh = relabelled_filtration(ar, range(last, -1, -1))
    assert fresh.nilpotency_index() == filt.nilpotency_index()
    for a in pres.quiver.vertices:
        assert fresh.projective_index(a) == last - filt.projective_index(a)
        assert canonical_r(fresh, a) == canonical_r(filt, a)
    for i, j, m in ar.arrows():
        assert fresh.dim_irr(last - i, last - j) == m


def _alias_input(name: str):
    """(presentation, AR quiver) of a fixture, ``random<i>`` or ``nakayama<i>``."""
    for family in ("random", "nakayama"):
        if name.startswith(family):
            return samples(family)[int(name[len(family):])]
    return samples(name)[0]


@pytest.mark.parametrize("name", [*LIST_FIXTURES, "ex_2_5", *(f"random{i}" for i in range(20)),
                                  *(f"nakayama{i}" for i in range(30))])
def test_aliases_are_the_nodes_isomorphic_to_p_i_s(name):
    # an exhaustive are_isomorphic scan over all nodes, independent of the
    # knitter's characterization of P_a, I_a and S_a: each key names the one
    # node isomorphic to its module, and the keys run P, I, S per vertex
    pres, ar = _alias_input(name)
    filt = ar.filtration
    keys = []
    for a in pres.quiver.vertices:
        for tag, build in (("P", projective), ("I", injective), ("S", simple)):
            module = build(pres, a)
            hits = [i for i, node in enumerate(ar.nodes) if are_isomorphic(node.rep, module)]
            assert hits == [filt.aliases[f"{tag}_{a}"]], (tag, a)
            keys.append(f"{tag}_{a}")
    assert list(filt.aliases) == keys
    for node in ar.nodes:
        assert node.aliases == tuple(k for k in keys if filt.aliases[k] == node.index)


@pytest.mark.parametrize("name", LIST_FIXTURES + ("ex_2_5",))
def test_seeds_and_alias_table_need_no_isomorphism_search(name, monkeypatch):
    # node i is the cached P at the i-th vertex, added without a match, and
    # the alias table is read off the walk without a Hom space
    pres = load(name)
    matched = []
    original_match = artrans._Knitter._match

    def match(self, module):
        matched.append(module)
        return original_match(self, module)

    monkeypatch.setattr(artrans._Knitter, "_match", match)
    knit = artrans._Knitter(pres, artrans.EnumerationLimits()).run()
    projectives = [projective(pres, a) for a in pres.quiver.vertices]
    assert all(knit.nodes[i].rep is P for i, P in enumerate(projectives))
    assert not any(module is P for module in matched for P in projectives)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (artrans, R):
        for fn in ("find_isomorphism", "hom_space"):
            monkeypatch.setattr(module, fn, counted(getattr(module, fn)))
    del matched[:]
    table = knit.alias_table()
    assert calls == [] and matched == []
    assert table == pipeline(name)[2].aliases


@pytest.mark.parametrize("name", [f"nakayama{i}" for i in range(30)])
def test_licensed_methods_agree_with_direct_on_nakayama_samples(name):
    # the cyclic samples knit by both routes; each reduction that applies
    # computes r_A over its licensed vertices and must meet the direct index
    pres, ar = _alias_input(name)
    direct = nilpotency_index(ar.filtration, "direct").r_A
    for method in REDUCTIONS:
        try:
            gate_method(pres, method)
        except MethodInapplicableError:
            continue
        assert nilpotency_index(ar.filtration, method).r_A == direct, method


def test_missing_alias_names_the_key(a2_pipeline):
    pres, ar, filt = a2_pipeline
    partial = relabelled_filtration(ar, range(ar.node_count()),
                                    {k: i for k, i in filt.aliases.items() if k != "I_2"})
    assert partial.projective_index("1") == filt.projective_index("1")
    with pytest.raises(ValueError, match="I_2 is not among the filtration nodes"):
        partial.injective_index("2")


def test_an_identity_piece_trips_the_termination_guard(s2_pipeline):
    # id: P -> P among the pieces into a projective P puts all of Hom(P, P)
    # into every layer, so the projective row never reaches zero
    pres, ar, filt = s2_pipeline
    j = filt.projective_index(pres.quiver.vertices[0])
    pieces = {i: list(filt.pieces(i)) for i in range(ar.node_count())}
    pieces[j].append((j, ModuleMorphism.identity(ar.nodes[j].rep)))
    bad = RadicalFiltration(pres, ar.reps, pieces, filt.aliases, knitted_socles(filt))
    with pytest.raises(InconsistencyError,
                       match="the pieces are not the right almost split maps of a complete"):
        bad.nilpotency_index()


def test_a_node_that_is_not_projective_has_no_row(s2_pipeline):
    # the filtration keeps the rows R^n(P_a, -) alone: a layer or a value at
    # the generator out of any other node is refused, and no row is built
    pres, ar, filt = s2_pipeline
    projective = {filt.projective_index(a) for a in pres.quiver.vertices}
    others = [i for i in range(ar.node_count()) if i not in projective]
    assert others
    for i in others:
        with pytest.raises(ValueError, match=f"^node {i} is not projective; "):
            filt.subspace(i, i, 1)
        with pytest.raises(ValueError, match=f"^node {i} is not projective; "):
            filt.at_generators(i, ModuleMorphism.identity(ar.nodes[i].rep))
    assert set(filt._rows) <= projective


def _fixture_method_pairs() -> list:
    pairs = []
    for name in LIST_FIXTURES + ("ex_2_5",):
        for method in REDUCTIONS:
            try:
                licensed_vertices(load(name), method)
            except MethodInapplicableError:
                continue
            pairs.append((name, method))
    return pairs


@pytest.mark.parametrize("name, method", _fixture_method_pairs())
def test_a_reduction_builds_only_its_licensed_projective_rows(name, method, monkeypatch):
    # each row depends on itself alone, so a reduction method builds the rows
    # of P_a for its licensed vertices a and no other (ex_4_5 by toupie: one
    # of six); the longest of them still reaches layer r_A - 1
    pres, ar, filt = pipeline(name)
    fresh = relabelled_filtration(ar, range(ar.node_count()))
    built = []
    build_row = RadicalFiltration._build_row

    def counted(self, i):
        built.append(i)
        return build_row(self, i)

    monkeypatch.setattr(RadicalFiltration, "_build_row", counted)
    report = nilpotency_index(fresh, method)
    vertices = licensed_vertices(pres, method)
    assert sorted(built) == sorted({fresh.projective_index(a) for a in vertices})
    assert report.layers_computed == report.r_A - 1
    monkeypatch.undo()
    assert report == nilpotency_index(filt, method)


def test_projective_rows_compute_no_hom_space(monkeypatch):
    # a row starts from all of node j at a (Yoneda), so completing the
    # filtration computes no Hom space, and neither does canonical_r, which
    # reads the socle line of I_a at a in the row of P_a; every name the
    # package binds to hom_space counts
    ars = [pipeline(name)[1] for name in LIST_FIXTURES + ("ex_2_5",)]
    ars += [ar for _, _, ar in random_finite_monomial(20) + random_nakayama()]
    calls = []
    real = R.hom_space

    def counted(M, N):
        calls.append((M, N))
        return real(M, N)

    for module in (R, artrans, theorems):
        monkeypatch.setattr(module, "hom_space", counted)
    for ar in ars:
        fresh = relabelled_filtration(ar, range(ar.node_count()))
        fresh.ensure_complete()
        for a in fresh.pres.quiver.vertices:
            assert canonical_r(fresh, a) == canonical_r(ar.filtration, a)
        assert calls == []


def test_radical_holds_no_hom_machinery(a2_pipeline):
    # the filtration is the rows and nothing else: no Hom table, and no
    # import of hom_space, HomSpace or a module object that reaches them
    assert not hasattr(radical, "_HomTable")
    assert not hasattr(a2_pipeline[2], "hom")
    tree = ast.parse(Path(radical.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name for alias in node.names}
            assert not {"hom_space", "HomSpace", "rep", "quivrad.rep"} & names, node.lineno


@pytest.mark.parametrize("dim", (0, 2))
def test_canonical_r_refuses_an_injective_alias_without_a_socle_line(dim):
    # a hand-built filtration skips the alias table's socle certificate: an
    # I_a alias on a node whose socle at a is not one line is an
    # inconsistency (exit 5), not a length
    for pres, ar in samples("random") + samples("nakayama"):
        filt = ar.filtration
        hits = [(a, k) for a in pres.quiver.vertices for k in range(ar.node_count())
                if R.socle_spaces(filt.reps[k])[a].dim == dim]
        if hits:
            break
    a, k = hits[0]
    bad = relabelled_filtration(ar, range(ar.node_count()), {**filt.aliases, f"I_{a}": k},
                                {k: R.socle_spaces(filt.reps[k])})
    for _ in range(2):  # a refused r_a is not kept: the check fires on every call
        with pytest.raises(InconsistencyError,
                           match=f"^the socle of I_{a} at {a} has dimension {dim}, not one$"):
            canonical_r(bad, a)


def _first_admitted(pres) -> str:
    for method in REDUCTIONS:
        try:
            gate_method(pres, method)
        except MethodInapplicableError:
            continue
        return method
    return "direct"


def test_choose_method_is_the_first_admitted_method():
    drawn = [(pipeline(name)[0], pipeline(name)[2]) for name in LIST_FIXTURES]
    drawn += [(pres, ar.filtration) for _, pres, ar in random_finite_monomial(20)]
    others = [load(path.stem) for path in sorted(DATA.glob("*.quiver"))]
    assert {choose_method(pres) for pres, _ in drawn} == {"direct", *REDUCTIONS}
    for pres in [p for p, _ in drawn] + others:
        assert choose_method(pres) == _first_admitted(pres)
    # each admitted method reports exactly its licensed vertex set
    for pres, filt in drawn:
        for method in REDUCTIONS:
            try:
                vertices = licensed_vertices(pres, method)
            except MethodInapplicableError:
                continue
            report = nilpotency_index(filt, method)
            assert report.vertex_set == vertices
            assert report.r_A == max(report.per_vertex.values()) + 1
