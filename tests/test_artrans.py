import hashlib
import json
import re
from collections import Counter

import pytest

from quivrad import artrans, rep
from quivrad.artrans import (
    EnumerationLimits,
    almost_split_middle,
    ar_quiver,
    ar_translate,
    ar_translate_inverse,
    transpose,
)
from quivrad.cli import main
from quivrad.errors import InconsistencyError, LimitsExceededError
from quivrad.linalg import RatMatrix, Subspace
from quivrad.quiver import Path, parse_presentation
from quivrad.rep import (
    ModuleMorphism,
    are_isomorphic,
    hom_space,
    morphism_ambient,
    projective,
    radical_submodule,
    socle_spaces,
)

from conftest import FINITE_SAMPLES, fixture_path, load, pipeline, samples
from dense_oracle import injective, is_epi, morphism_from_projective, simple
from randgen import random_finite_monomial, random_nakayama

# every representation-finite fixture but ex_2_5, which is slow to knit
FINITE_FIXTURES = ("a2", "a3", "a3_rel", "s2_cyclic", "s3_cycle", "ex_4_5", "s4_final")


@pytest.fixture(scope="module")
def a2():
    return load("a2")


def test_link_tau_refuses_a_second_claim_on_either_end(a2):
    knit = artrans._Knitter(a2, EnumerationLimits())
    knit.link_tau(0, 1)
    knit.link_tau(0, 1)  # the same link again is no conflict
    with pytest.raises(InconsistencyError, match="conflicting translate links"):
        knit.link_tau(0, 2)  # a second translate of node 0
    with pytest.raises(InconsistencyError, match="conflicting translate links"):
        knit.link_tau(2, 1)  # a second node with translate node 1
    assert knit.tau == {0: 1} and knit.tau_inverse == {1: 0}


def test_translate_of_projective_is_none(a2):
    for a in a2.quiver.vertices:
        assert ar_translate(projective(a2, a)) is None


def test_inverse_translate_of_injective_is_none(a2):
    for a in a2.quiver.vertices:
        assert ar_translate_inverse(injective(a2, a)) is None


def test_transpose_of_projective_is_zero(a2):
    assert transpose(projective(a2, "2")).is_zero()


def test_a2_translate_values(a2):
    # classical: the sequence 0 -> S_2 -> P_1 -> S_1 -> 0 is almost split
    tS1 = ar_translate(simple(a2, "1"))
    assert are_isomorphic(tS1, simple(a2, "2"))
    t_inv = ar_translate_inverse(projective(a2, "2"))
    assert are_isomorphic(t_inv, simple(a2, "1"))


def test_a3_translates():
    a3 = load("a3")
    assert are_isomorphic(ar_translate_inverse(projective(a3, "3")), simple(a3, "2"))
    t = ar_translate_inverse(projective(a3, "2"))
    assert t.dim_vector() == (1, 1, 0)
    assert ar_translate(projective(a3, "1")) is None  # P_1 = I_3


def _assert_translates_match_links(ar):
    # the walk derives each link from one end only; derive both ends here
    assert ar.tau_inverse == {x: y for y, x in ar.tau.items()}
    for node in ar.nodes:
        t = ar_translate(node.rep)
        t_inv = ar_translate_inverse(node.rep)
        if node.index in ar.tau:
            assert t is not None and are_isomorphic(t, ar.nodes[ar.tau[node.index]].rep)
        else:
            assert t is None, node.label
        if node.index in ar.tau_inverse:
            back = ar.nodes[ar.tau_inverse[node.index]].rep
            assert t_inv is not None and are_isomorphic(t_inv, back)
        else:
            assert t_inv is None, node.label


def test_translate_round_trip():
    for name in FINITE_FIXTURES:
        _assert_translates_match_links(pipeline(name)[1])


def test_translate_round_trip_on_random_samples():
    for _, _, ar in random_finite_monomial(20):
        _assert_translates_match_links(ar)


def _e_type(n: int):
    """Relation-free E_n: the chain 1 -> ... -> n-1, with n -> 3."""
    lines = ["vertex " + " ".join(str(i) for i in range(1, n + 1))]
    lines += [f"arrow x{i} {i} {i + 1}" for i in range(1, n - 1)] + [f"arrow y {n} 3"]
    return parse_presentation("\n".join(lines) + "\n")


def _presentations(name: str) -> list:
    if name == "random":
        return [pres for _, pres, _ in random_finite_monomial(20)]
    if name == "e_types":
        return [_e_type(n) for n in (6, 7, 8)]
    return [load(name)]


# inputs whose every mesh is knit by a cokernel, and every τ⁻¹ by a cokernel
# step: no cycle in the AR quiver holds a step back
NO_FALLBACK = ("a2", "a3", "a3_rel", "s4_final", "ex_2_5", "random", "e_types")


@pytest.mark.parametrize("name", FINITE_FIXTURES + ("ex_2_5", "random", "e_types"))
def test_each_translate_link_is_derived_once(name, monkeypatch):
    # τ⁻¹ comes from the cokernel step; Tr D and D Tr run only as the
    # fallback, which counts each call in its routes, takes each direction at
    # most once per node and never takes τ at a seed (the seeds are the only
    # projective nodes); off the AR-quiver cycles the fallback never runs
    presentations = _presentations(name)  # knit before the counters go in
    calls = []

    def counted(real):
        def wrapper(M):
            calls.append((real.__name__, M))
            return real(M)
        return wrapper

    for fn in ("ar_translate", "ar_translate_inverse", "projective_cover"):
        monkeypatch.setattr(artrans, fn, counted(getattr(artrans, fn)))
    for pres in presentations:
        calls.clear()
        knit = artrans._Knitter(pres, EnumerationLimits()).run()
        by_fn = {fn: [M for f, M in calls if f == fn]
                 for fn in ("ar_translate", "ar_translate_inverse", "projective_cover")}
        translates = len(by_fn["ar_translate"]) + len(by_fn["ar_translate_inverse"])
        assert translates == knit.routes["translate"]
        for fn in ("ar_translate", "ar_translate_inverse"):
            assert len({id(M) for M in by_fn[fn]}) == len(by_fn[fn]), fn
        seeds = knit.nodes[:len(pres.quiver.vertices)]
        assert not any(M is seed.rep for M in by_fn["ar_translate"] for seed in seeds)
        if name in NO_FALLBACK:
            assert translates == 0
        # one cover per transpose and per Ext-route mesh: the syzygy is
        # read off its top generators, never covered
        assert len(by_fn["projective_cover"]) == translates + knit.routes["extension"]


def _overlapping(pres) -> list:
    """The vertices a at which the arrow submodules αA of rad P_a, one per
    arrow α: a -> t, overlap: they span rad P_a, and their dimensions add
    up to more than its.  αA is the image of P_t -> P_a, generator to α."""
    model, quiver = pres.model(), pres.quiver
    out = []
    for a in quiver.vertices:
        P = projective(pres, a)
        dims = sum(morphism_from_projective(
            pres, alpha.target, P, model.reduce_path(Path(quiver, a, (alpha.name,)))).rank()
            for alpha in quiver.out_arrows(a))
        if dims > P.total_dim() - 1:
            out.append(a)
    return out


@pytest.mark.parametrize("name", FINITE_FIXTURES + ("ex_2_5", "random"))
def test_knitting_decomposes_each_right_almost_split_source_once(name, monkeypatch):
    # rad P is split by decompose only where its arrow submodules overlap,
    # and the Ext route's middle term always is; the cokernel route reads
    # its summands off the nodes, and successors need no step of their own
    # (a successor is a seed or the inverse translate of a predecessor)
    calls = Counter()

    def counted(fn):
        real = getattr(artrans, fn)

        def wrapper(*args):
            calls[fn] += 1
            return real(*args)
        return wrapper

    for fn in ("decompose", "almost_split_middle", "radical_submodule"):
        monkeypatch.setattr(artrans, fn, counted(fn))
    for pres in _presentations(name):
        overlapping = len(_overlapping(pres))
        calls.clear()
        knit = artrans._Knitter(pres, EnumerationLimits()).run()
        vertices = pres.quiver.vertices
        assert calls["radical_submodule"] == overlapping
        assert calls["decompose"] == overlapping + calls["almost_split_middle"]
        assert calls["almost_split_middle"] == knit.routes["extension"]
        assert knit.routes["projective"] == len(vertices)
        meshes = ("projective", "cokernel", "extension")
        assert sum(knit.routes[route] for route in meshes) == len(knit.nodes)
        if name in NO_FALLBACK:
            assert knit.routes["extension"] == 0


@pytest.mark.parametrize("name", FINITE_FIXTURES + ("ex_2_5", "kronecker"))
def test_projective_meshes_split_by_fitting_only_on_commutativity(name):
    # the arrow submodules overlap only at a commutativity relation: at one
    # projective each of ex_2_5 and ex_4_5, so the CLI still enters
    # radical_submodule and decompose on the fixtures
    assert len(_overlapping(load(name))) == {"ex_2_5": 1, "ex_4_5": 1}.get(name, 0)


def _fitting_only(monkeypatch, pres):
    """The AR quiver knit with every rad P split by ``decompose``."""
    with monkeypatch.context() as patch:
        patch.setattr(artrans._Knitter, "_knit_projective",
                      lambda self, p: self._knit(p, *radical_submodule(self.nodes[p].rep)))
        return ar_quiver(pres)


@pytest.mark.parametrize("name", FINITE_SAMPLES)
def test_arrow_and_fitting_routes_knit_the_same_projective_meshes(name, monkeypatch):
    # rad P_a read off the arrows out of a against its Fitting split, matched
    # to the nodes: the same dim Irr(k, P_a) for every node k, and the same
    # ar --json
    for pres, ar in samples(name):
        fitting = _fitting_only(monkeypatch, pres)
        assert fitting.to_json_dict() == ar.to_json_dict()
        for p, a in enumerate(pres.quiver.vertices):  # node p is P_a on both walks
            arrow_irr, fitting_irr = (Counter(knit.nodes[k].label for k, _ in
                                              knit.filtration.pieces(p)) for knit in (ar, fitting))
            assert arrow_irr == fitting_irr, a


def _mutate_first_mesh(monkeypatch, mutate) -> list:
    """Apply ``mutate`` to the first left almost split map the knitter reads
    with two or more components; the list gets the label of its source."""
    real = artrans._Knitter._left_almost_split
    hit = []

    def wrapped(self, x):
        components = real(self, x)
        if not hit and len(components) >= 2:
            hit.append(self.nodes[x].label)
            components = mutate(components)
        return components

    monkeypatch.setattr(artrans._Knitter, "_left_almost_split", wrapped)
    return hit


def test_cokernel_route_refuses_a_dropped_target(monkeypatch, capsys):
    # the map out of P_2 loses its target τ⁻¹P_3: its cokernel is too small
    # to be τ⁻¹P_2, and the knitting stalls at P_1 = I_3, whose left almost
    # split map then has a kernel of dimension 3, not its simple socle
    hit = _mutate_first_mesh(monkeypatch, lambda components: components[:-1])
    message = ("left almost split map out of P_1: kernel of dimension 3, where an "
               "injective's is its simple socle and any other node's is zero")
    with pytest.raises(InconsistencyError, match=re.escape(message)):
        ar_quiver(load("a3"))
    assert hit == ["P_2"]
    del hit[:]
    assert main(["ar", fixture_path("a3")]) == 5
    assert capsys.readouterr().err == f"internal inconsistency: {message}\n"


def test_cokernel_route_refuses_a_component_that_is_not_irreducible(monkeypatch):
    # a zero component keeps the middle term, but f is no longer left almost
    # split: its cokernel has the target as a summand, and the knitting
    # stalls at an injective whose map has too large a kernel
    def zero_first(components):
        (y, g), rest = components[0], components[1:]
        return [(y, g - g)] + rest

    hit = _mutate_first_mesh(monkeypatch, zero_first)
    with pytest.raises(InconsistencyError, match="left almost split map out of P_1: "
                                                 "kernel of dimension 2,"):
        ar_quiver(load("a3"))
    assert hit == ["P_2"]


def _seeded(name: str):
    """A knitter with its seeds added and their meshes knit, before any step."""
    pres = load(name)
    knit = artrans._Knitter(pres, EnumerationLimits())
    for a in pres.quiver.vertices:
        knit.add(projective(pres, a), f"P_{a}", 0)
    for p in knit.projectives:
        knit._knit(p, *radical_submodule(knit.nodes[p].rep))
    return knit


def test_injective_step_refuses_a_known_inverse_translate(monkeypatch):
    # the map out of a node whose τ⁻¹ the fallback has taken must be mono:
    # with its one component dropped, the map out of the simple P_3 has the
    # kernel of an injective
    knit = _seeded("a3")
    knit._expand_orbit(2)  # τ⁻¹P_3 by Tr D
    monkeypatch.setattr(artrans._Knitter, "_left_almost_split", lambda self, x: [])
    with pytest.raises(InconsistencyError, match="out of P_3: kernel of dimension 1,"):
        knit._step(2)


def test_cokernel_step_refuses_a_cokernel_that_is_not_the_known_translate(monkeypatch):
    # with τ⁻¹P_2 taken by Tr D first, the cokernel out of P_2 must be that
    # node; a zero component keeps f mono, but its cokernel gains the target
    # as a summand
    knit = _seeded("a3")
    knit._step(2)  # P_3: τ⁻¹P_3 and its mesh
    knit._expand_orbit(1)  # τ⁻¹P_2 by Tr D
    real = artrans._Knitter._left_almost_split

    def zero_first(self, x):
        (y, g), *rest = real(self, x)
        return [(y, g - g)] + rest

    monkeypatch.setattr(artrans._Knitter, "_left_almost_split", zero_first)
    with pytest.raises(InconsistencyError, match=re.escape(
            "the cokernel of the left almost split map out of P_2 is not its "
            "inverse translate")):
        knit._step(1)


def _walked(name: str):
    knit = artrans._Knitter(load(name), EnumerationLimits()).run()
    knit.alias_table()  # certified
    return knit


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_injective_certificate_refuses_a_lost_translate_link(name):
    # a non-injective node that lost its τ⁻¹ link counts as an injective:
    # one node too many, or two socles at one vertex
    knit = _walked(name)
    x = next(iter(knit.tau_inverse))
    del knit.tau_inverse[x]
    with pytest.raises(InconsistencyError, match="the nodes with no inverse translate "
                                                 "do not have simple socles at distinct"):
        knit.alias_table()


@pytest.mark.parametrize("name", ("a3", "s2_cyclic", "s3_cycle", "ex_4_5", "s4_final"))
def test_injective_certificate_refuses_a_wrong_total_dimension(name):
    # an injective node that is not projective, replaced by the simple module
    # at its socle, keeps the socles, but the injectives no longer add up to
    # dim A
    knit = _walked(name)
    vertices = knit.pres.quiver.vertices
    table = knit.alias_table()
    a, k = next((a, table[f"I_{a}"]) for a in vertices
                if table[f"I_{a}"] not in knit.projectives
                and knit.nodes[table[f"I_{a}"]].rep.total_dim() > 1)
    dim_a = sum(projective(knit.pres, b).total_dim() for b in vertices)
    lost = knit.nodes[k].rep.total_dim() - 1
    knit.nodes[k].rep = simple(knit.pres, a)
    with pytest.raises(InconsistencyError, match=re.escape(
            f"the injective nodes have total dimension {dim_a - lost}, "
            f"the projectives {dim_a}")):
        knit.alias_table()


@pytest.mark.parametrize("name", ("a3", "ex_4_5"))
def test_cokernel_route_accepts_any_basis_of_irr(name, monkeypatch):
    # each component scaled by 2: still a basis of Irr(X, -) per target, so
    # the route certifies it and knits the same AR quiver
    hit = _mutate_first_mesh(monkeypatch, lambda components: [(y, g.scaled(2))
                                                              for y, g in components])
    ar = ar_quiver(load(name))
    assert hit and ar.arrows() == pipeline(name)[1].arrows()


def test_transpose_twice_is_identity_on_non_projectives():
    # the cyclic inputs, where the Ext route covers Z and its kernel
    ars = [pipeline(name)[1] for name in ("s3_cycle", "ex_4_5")]
    ars += [ar for _, _, ar in random_nakayama()]
    for ar in ars:
        for y in ar.tau:
            M = ar.nodes[y].rep
            assert are_isomorphic(transpose(transpose(M)), M)


def test_enumerate_a2():
    reps = ar_quiver(load("a2")).reps
    assert sorted(r.dim_vector() for r in reps) == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_s2_cyclic_counts(s2_pipeline):
    _, ar, _ = s2_pipeline
    assert ar.node_count() == 24


def test_enumerate_finds_translate_periodic_modules(s3_pipeline):
    # the pure inverse-orbit walk reaches only 25 of these 30 classes; the
    # missing ones lie in translate-periodic orbits and enter through the
    # almost split middle terms
    _, ar, _ = s3_pipeline
    assert ar.node_count() == 30
    in_projective_orbit = {n.index for n in ar.nodes if n.orbit_root.startswith("P_")}
    assert len(in_projective_orbit) < ar.node_count()


def _uniserial_dim_vectors(pres) -> Counter:
    """Dimension vectors of the P_a / rad^k P_a (k ≥ 1) of a cyclic Nakayama
    algebra, read off its zero-relations alone."""
    vertices = pres.quiver.vertices
    n = len(vertices)
    zero = [(vertices.index(p.start), p.length) for rel in pres.relations for _, p in rel.terms]

    def nonzero(i, m):
        """Whether the path of length m from the i-th vertex avoids every relation."""
        return not any((i + o) % n == s for s, length in zero for o in range(m - length + 1))

    out = Counter()
    for i in range(n):
        dim_p = 1
        while nonzero(i, dim_p):
            dim_p += 1
        for k in range(1, dim_p + 1):  # composition factors at i, i+1, ..., i+k-1
            out[tuple(sum(1 for t in range(k) if (i + t) % n == v) for v in range(n))] += 1
    return out


def test_nakayama_nodes_are_the_uniserial_quotients_of_the_projectives():
    # every indecomposable over a cyclic Nakayama algebra is some P_a / rad^k P_a
    # and these are pairwise non-isomorphic, so there are Σ_a dim P_a nodes
    for _, pres, ar in random_nakayama():
        expected = _uniserial_dim_vectors(pres)
        assert ar.node_count() == sum(projective(pres, a).total_dim()
                                      for a in pres.quiver.vertices)
        assert ar.node_count() == sum(expected.values())
        assert Counter(n.rep.dim_vector() for n in ar.nodes) == expected


# sha256 of the ``ar --json`` dicts of the 30 ``random_nakayama`` samples,
# keys sorted, one per line, recorded before the cover, Tr D and the
# projective meshes shared one builder of maps out of projectives
NAKAYAMA_SHA256 = "3385c5b104a5f79aa272686632d6fa17f710b1460c9bb2af33c4c4f7e18bd077"


def test_nakayama_knitting_is_pinned():
    # the cyclic samples knit through Tr D, D Tr and the Ext route, which no
    # benchmark workload reaches: every node, arrow, label and translate
    # link of their 608 nodes stays as recorded
    draw = random_nakayama()
    assert sum(ar.node_count() for _, _, ar in draw) == 608
    lines = [json.dumps(ar.to_json_dict(), sort_keys=True) for _, _, ar in draw]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == NAKAYAMA_SHA256


def test_kronecker_exceeds_limits():
    kron = load("kronecker")
    with pytest.raises(LimitsExceededError):
        ar_quiver(kron, EnumerationLimits(max_modules=12, max_total_dim=200))
    with pytest.raises(LimitsExceededError):
        ar_quiver(kron, EnumerationLimits(max_modules=1000, max_total_dim=60))


def test_limits_validation():
    with pytest.raises(ValueError):
        EnumerationLimits(max_modules=0)


def test_nodes_pairwise_non_isomorphic(s2_pipeline):
    _, ar, _ = s2_pipeline
    reps = ar.reps
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i].dim_vector() == reps[j].dim_vector():
                assert not are_isomorphic(reps[i], reps[j])


def test_projective_and_injective_counts(s2_pipeline, s3_pipeline, ex45_pipeline):
    for pres, ar, _ in (s2_pipeline, s3_pipeline, ex45_pipeline):
        n = len(pres.quiver.vertices)
        projs = [x for x in ar.nodes if any(a.startswith("P_") for a in x.aliases)]
        injs = [x for x in ar.nodes if any(a.startswith("I_") for a in x.aliases)]
        assert len(projs) == n and len(injs) == n


def test_a2_ar_quiver_arrows(a2_pipeline):
    pres, ar, _ = a2_pipeline
    assert ar.node_count() == 3
    labels = {n.index: sorted(n.aliases) for n in ar.nodes}
    arrows = {(tuple(labels[s]), tuple(labels[t])): m for s, t, m in ar.arrows()}
    assert arrows == {
        (("P_2", "S_2"), ("I_2", "P_1")): 1,
        (("I_2", "P_1"), ("I_1", "S_1")): 1,
    }


def test_s2_orbit_of_p3(s2_pipeline):
    pres, ar, filt = s2_pipeline
    node = ar.nodes[filt.projective_index("3")]
    labels = [node.label]
    aliases = [node.aliases]
    while node.index in ar.tau_inverse:
        node = ar.nodes[ar.tau_inverse[node.index]]
        labels.append(node.label)
        aliases.append(node.aliases)
    assert len(labels) == 8
    assert aliases[2] == ("S_2",)
    assert aliases[3] == ("S_1",)
    assert aliases[-1] == ("I_1",)


def test_s2_translate_of_injective_tail(s2_pipeline):
    # I_3 is neither projective nor the orbit end; its translate is the module
    # two inverse-translate steps before it (frozen from the computed quiver)
    pres, ar, filt = s2_pipeline
    i3 = filt.injective_index("3")
    assert i3 in ar.tau
    t = ar.nodes[ar.tau[i3]]
    assert t.rep.dim_vector() == (2, 2, 1)
    assert ar.tau_inverse[ar.tau[i3]] == i3


def test_s2_out_arrows_of_p3(s2_pipeline):
    pres, ar, filt = s2_pipeline
    p3 = filt.projective_index("3")
    targets = [t for s, t, _ in ar.arrows() if s == p3]
    assert len(targets) == 1
    assert "P_2" in ar.nodes[targets[0]].aliases


def test_mesh_dimension_identity(s3_pipeline):
    pres, ar, _ = s3_pipeline
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
        assert lhs == rhs


def test_almost_split_middle_a2(a2):
    # 0 -> S_2 -> P_1 -> S_1 -> 0
    middle, _ = almost_split_middle(simple(a2, "1"), simple(a2, "2"))
    assert are_isomorphic(middle, projective(a2, "1"))


def test_almost_split_map_is_the_cokernel(s3_pipeline):
    # E -> Z is an epimorphism whose kernel has the dimension vector of τZ
    pres, ar, _ = s3_pipeline
    for node in ar.nodes:
        if node.index not in ar.tau:
            continue
        tau_rep = ar.nodes[ar.tau[node.index]].rep
        middle, g = almost_split_middle(node.rep, tau_rep)
        ModuleMorphism(middle, node.rep, g.maps)  # intertwines, checked on construction
        assert is_epi(g)
        kernel = [middle.dims[v] - node.rep.dims[v] for v in pres.quiver.vertices]
        assert kernel == list(tau_rep.dim_vector())


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_almost_split_map_is_right_almost_split(name):
    # π: E -> Z factors every map into Z that is not a split epimorphism:
    # the maps from every other node and the radical endomorphisms, which are
    # the trace-zero part of End(Z) since End(Z)/rad = Q; id_Z does not factor
    pres, ar, _ = pipeline(name)
    for j in ar.tau:
        Z = ar.nodes[j].rep
        E, pi = almost_split_middle(Z, ar.nodes[ar.tau[j]].rep)

        def through_pi(X):
            """π ∘ Hom(X, E), flattened like Hom(X, Z)."""
            return Subspace.from_vectors(morphism_ambient(X, Z),
                                         [(pi @ h).flatten() for h in hom_space(X, E).basis])

        for k, node in enumerate(ar.nodes):
            if k != j:
                image = through_pi(node.rep)
                assert image + hom_space(node.rep, Z).space == image
        end = hom_space(Z, Z)
        traces = [sum(b.maps[v].data[i][i] for v in pres.quiver.vertices
                      for i in range(Z.dims[v])) for b in end.basis]
        trace_zero = RatMatrix([traces], cols=end.dim).kernel()
        radical = Subspace.from_vectors(end.space.ambient, [end.element(c).flatten()
                                                            for c in trace_zero.basis])
        image = through_pi(Z)
        assert image + radical == image
        assert not image.contains_vector(ModuleMorphism.identity(Z).flatten())


def test_pieces_map_into_their_node(s2_pipeline):
    # each piece is a nonzero radical morphism node_k -> node_j, and the
    # pieces into j are the summands of the right almost split map
    pres, ar, filt = s2_pipeline
    for j, node in enumerate(ar.nodes):
        pieces = filt.pieces(j)
        source_dim = sum(ar.nodes[k].rep.total_dim() for k, _ in pieces)
        if j in ar.tau:  # the middle term of the almost split sequence
            assert source_dim == node.rep.total_dim() + ar.nodes[ar.tau[j]].rep.total_dim()
        else:  # rad P
            assert source_dim == radical_submodule(node.rep)[0].total_dim()
        for k, g in pieces:
            assert g.source is ar.nodes[k].rep and g.target is node.rep
            ModuleMorphism(g.source, g.target, g.maps)
            assert not g.is_zero() and not g.is_invertible()


def test_alias_lookups_share_one_error_contract(a2_pipeline):
    _, _, filt = a2_pipeline
    for lookup, key in ((filt.projective_index, "P_9"), (filt.injective_index, "I_9")):
        with pytest.raises(ValueError, match=f"^{key} is not among the filtration nodes$"):
            lookup("9")


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_socle_lines_read_the_socle_spaces_of_the_alias_table(name, monkeypatch):
    # the alias table reads each injective's socle spaces and hands them to
    # the filtration, so socle_line computes none of them again
    pres = load(name)
    filt = ar_quiver(pres).filtration
    computed = []
    monkeypatch.setattr(rep, "socle_spaces", lambda M: computed.append(M) or socle_spaces(M))
    for a in pres.quiver.vertices:
        filt.socle_line(a)
        i = filt.injective_index(a)
        assert filt.socle_spaces(i) == socle_spaces(filt.reps[i])
    assert computed == []


def test_dot_output_is_deterministic_and_labeled(s2_pipeline):
    _, ar, _ = s2_pipeline
    dot1 = ar.to_dot()
    dot2 = ar.to_dot()
    assert dot1 == dot2
    assert dot1.startswith("digraph ar_quiver {")
    assert '"P_3 [0,0,1]"' in dot1
    assert "style=dashed" in dot1


def test_json_output_shape(a2_pipeline):
    _, ar, _ = a2_pipeline
    data = ar.to_json_dict()
    assert {n["label"] for n in data["nodes"]} == {"P_1", "P_2", "τ^{-1}P_2"}
    assert data["tau"] == {"τ^{-1}P_2": "P_2"}
    assert all(len(a) == 3 for a in data["arrows"])
