import json
import random
from collections import Counter

import pytest

from quivrad.errors import ShapeError
from quivrad.linalg import RatMatrix
from quivrad import rep as R
from quivrad.rep import (
    HomSpace,
    ModuleMorphism,
    Representation,
    are_isomorphic,
    composition_multiplicity,
    decompose,
    direct_sum,
    end_radical,
    find_isomorphism,
    hom_space,
    injective,
    is_indecomposable,
    minimal_presentation,
    projective,
    projective_cover,
    radical_submodule,
    simple,
    socle,
    top,
)

from conftest import load, pipeline
from randgen import random_finite_monomial


@pytest.fixture(scope="module")
def s2():
    return load("s2_cyclic")


def test_projective_dims_s2(s2):
    # oracle: surviving words from each start vertex (see test_quiver); from 1
    # these are e_1, alpha, beta*alpha (rtl), gamma*alpha (rtl)
    assert projective(s2, "1").dim_vector() == (2, 1, 1)
    assert projective(s2, "2").dim_vector() == (2, 2, 2)
    assert projective(s2, "3").dim_vector() == (0, 0, 1)


def test_injective_dims_s2(s2):
    assert injective(s2, "1").dim_vector() == (2, 2, 0)
    assert injective(s2, "2").dim_vector() == (1, 2, 0)
    assert injective(s2, "3").dim_vector() == (1, 2, 1)


def test_simple_dim_vector_is_indicator(s2):
    for i, a in enumerate(s2.quiver.vertices):
        vec = simple(s2, a).dim_vector()
        assert vec == tuple(1 if k == i else 0 for k in range(3))


def test_sink_projective_is_simple():
    pres = load("ex_4_5")
    P4 = projective(pres, "4")
    assert P4.dim_vector() == (0, 0, 0, 1, 0, 0)
    assert are_isomorphic(P4, simple(pres, "4"))


def test_representations_satisfy_relations(s2):
    for a in s2.quiver.vertices:
        assert projective(s2, a).relation_defect() is None
        assert injective(s2, a).relation_defect() is None


def test_representation_rejects_bad_shape(s2):
    with pytest.raises(ShapeError):
        Representation(s2, {"1": 1, "2": 1}, {"alpha": RatMatrix([[1, 2]])})


def test_representation_rejects_broken_relation(s2):
    dims = {"1": 1, "2": 1, "3": 0}
    mats = {"alpha": RatMatrix([[1]]), "beta": RatMatrix([[1]])}
    with pytest.raises(ValueError):
        Representation(s2, dims, mats)  # alpha*beta*alpha acts by 1, not 0


def test_hom_space_dims(s2):
    P1 = projective(s2, "1")
    assert hom_space(P1, P1).dim == 2
    I2 = injective(s2, "2")
    assert hom_space(I2, I2).dim == 2
    for a in s2.quiver.vertices:
        for b in s2.quiver.vertices:
            expect = 1 if a == b else 0
            assert hom_space(simple(s2, a), simple(s2, b)).dim == expect


def test_hom_basis_intertwines_exactly(s2):
    P1, I3 = projective(s2, "1"), injective(s2, "3")
    for f in hom_space(P1, I3).basis:
        assert f._intertwines()


def test_end_radical_of_local_end(s2):
    end = hom_space(projective(s2, "1"), projective(s2, "1"))
    assert end_radical(end).dim == 1


def test_radical_top_socle(s2):
    for a in s2.quiver.vertices:
        P = projective(s2, a)
        t, _ = top(P)
        assert are_isomorphic(t, simple(s2, a))
        I = injective(s2, a)
        s, _ = socle(I)
        assert are_isomorphic(s, simple(s2, a))
        rad, incl = radical_submodule(P)
        assert incl.is_mono()
        assert all(rad.dims[v] + t.dims[v] == P.dims[v] for v in s2.quiver.vertices)


def test_composition_multiplicity(s2):
    P1 = projective(s2, "1")
    assert composition_multiplicity(P1, "1") == 2
    for a in s2.quiver.vertices:
        assert composition_multiplicity(projective(s2, a), a) >= 1
    # multiplicity equals dim Hom(M, I_a)
    for a in s2.quiver.vertices:
        assert hom_space(P1, injective(s2, a)).dim == composition_multiplicity(P1, a)


def test_projective_cover_of_simple_and_projective(s2):
    for a in s2.quiver.vertices:
        P, epi = projective_cover(simple(s2, a))
        assert are_isomorphic(P, projective(s2, a))
        assert epi.is_epi()
        P2, epi2 = projective_cover(projective(s2, a))
        assert are_isomorphic(P2, projective(s2, a))
        assert epi2.is_epi() and epi2.is_mono()


def test_minimal_presentation_of_s1(s2):
    mp = minimal_presentation(simple(s2, "1"))
    assert mp.p0_summands == ("1",)
    assert mp.p1_summands == ("2",)
    # exactness: image of f1 equals the kernel of the cover, vertexwise
    K, _ = R.kernel_submodule(mp.epi)
    for v in s2.quiver.vertices:
        assert mp.f1.maps[v].image().dim == K.dims[v]


def _assert_minimal_cover(epi, summands, M):
    """epi: ⊕ P_a -> M is onto, has one summand P_a per top basis vector at
    a, and its kernel lies in the radical of its source."""
    P = epi.source
    assert Counter(summands) == Counter({a: d for a, d in top(M)[0].dims.items() if d})
    assert epi.is_epi()
    _, rad_incl = radical_submodule(P)
    for v in M.pres.quiver.vertices:
        assert rad_incl.maps[v].image().contains(epi.maps[v].kernel())


def _assert_minimal_presentation(M):
    pp = minimal_presentation(M)
    _assert_minimal_cover(pp.epi, pp.p0_summands, M)
    K, _ = R.kernel_submodule(pp.epi)
    if K.is_zero():
        assert pp.p1.is_zero() and pp.p1_summands == ()
        return
    for v in M.pres.quiver.vertices:
        assert pp.f1.maps[v].image() == pp.epi.maps[v].kernel()
    # one step down: f1, read in the kernel's basis, is a minimal cover of it
    maps = {}
    for v in M.pres.quiver.vertices:
        space = pp.epi.maps[v].kernel()
        cols = [space.coords(col) for col in zip(*pp.f1.maps[v].data)]
        maps[v] = RatMatrix(cols, cols=K.dims[v]).transpose() if cols else \
            RatMatrix.zeros(K.dims[v], pp.p1.dims[v])
    _assert_minimal_cover(R.ModuleMorphism(pp.p1, K, maps), pp.p1_summands, K)


@pytest.mark.parametrize("name", ["a2", "a3", "a3_rel", "ex_4_5", "s2_cyclic",
                                  "s3_cycle", "s4_final"])
def test_minimal_presentation_of_every_node_is_minimal(name):
    _, ar, _ = pipeline(name)
    for M in ar.reps:
        _assert_minimal_presentation(M)


def test_minimal_presentation_of_random_monomial_nodes_is_minimal():
    for _, _, ar in random_finite_monomial(20):
        for M in ar.reps:
            _assert_minimal_presentation(M)


def test_projective_cover_of_zero_fails(s2):
    with pytest.raises(ValueError):
        projective_cover(R.zero_representation(s2))


def test_is_indecomposable(s2):
    for a in s2.quiver.vertices:
        assert is_indecomposable(simple(s2, a))
        assert is_indecomposable(projective(s2, a))
    S1 = simple(s2, "1")
    assert not is_indecomposable(direct_sum([S1, S1]))
    with pytest.raises(ValueError):
        is_indecomposable(R.zero_representation(s2))


def test_are_isomorphic(s2):
    P1 = projective(s2, "1")
    assert are_isomorphic(P1, P1)
    assert not are_isomorphic(simple(s2, "1"), simple(s2, "2"))
    twisted = Representation(
        s2,
        dict(P1.dims),
        {name: m.scaled(1) for name, m in P1.matrices.items()},
    )
    assert are_isomorphic(P1, twisted)
    assert not are_isomorphic(direct_sum([simple(s2, "1"), simple(s2, "2")]),
                              direct_sum([simple(s2, "1"), simple(s2, "1")]))


def _assert_isomorphism_iff(M, N, expected):
    f = find_isomorphism(M, N)
    assert (f is not None) == expected == are_isomorphic(M, N)
    if f is not None:
        assert f.source is M and f.target is N and f.is_invertible()
        assert hom_space(M, N).coords(f) is not None  # f intertwines
        assert set(f.maps) == set(M.pres.quiver.vertices)


def test_find_isomorphism_returns_an_invertible_hom_element(s2):
    S1, S2, P1 = simple(s2, "1"), simple(s2, "2"), projective(s2, "1")
    twisted = Representation(s2, dict(P1.dims),
                             {name: m.scaled(1) for name, m in P1.matrices.items()})
    _assert_isomorphism_iff(P1, twisted, True)
    _assert_isomorphism_iff(S1, S2, False)
    # no single basis morphism of End(S1+S1) or Hom(S1+S2, S2+S1) is
    # invertible, so these isomorphisms are assembled from matched summands
    S11 = direct_sum([S1, S1])
    assert not any(b.is_invertible() for b in hom_space(S11, S11).basis)
    _assert_isomorphism_iff(S11, S11, True)
    S12, S21 = direct_sum([S1, S2]), direct_sum([S2, S1])
    assert not any(b.is_invertible() for b in hom_space(S12, S21).basis)
    _assert_isomorphism_iff(S12, S21, True)
    zero = R.zero_representation(s2)
    _assert_isomorphism_iff(zero, zero, True)


def test_find_isomorphism_refuses_equal_dimension_vectors():
    a2 = load("a2")
    S1, S2, P1 = simple(a2, "1"), simple(a2, "2"), projective(a2, "1")
    semisimple = direct_sum([S1, S2])
    assert semisimple.dim_vector() == P1.dim_vector()
    _assert_isomorphism_iff(semisimple, P1, False)
    # a three-dimensional Hom space with no invertible basis element: the
    # decompositions have two and three summands
    left, right = direct_sum([P1, S2]), direct_sum([S1, S2, S2])
    assert left.dim_vector() == right.dim_vector()
    assert hom_space(left, right).dim == 3
    _assert_isomorphism_iff(left, right, False)
    _assert_isomorphism_iff(P1, projective(load("a2"), "1"), False)  # other presentation


def _count_element_calls(monkeypatch):
    calls = []
    original = HomSpace.element

    def counted(self, coords):
        calls.append(coords)
        return original(self, coords)

    monkeypatch.setattr(HomSpace, "element", counted)
    return calls


@pytest.mark.parametrize("name,dim_vector", [
    ("s2_cyclic", (2, 2, 1)), ("s3_cycle", (2, 1, 1, 1)), ("s3_cycle", (2, 1, 2, 1)),
])
def test_find_isomorphism_refuses_distinct_nodes_without_combinations(
        name, dim_vector, monkeypatch):
    # two non-isomorphic indecomposable nodes with a two-dimensional Hom
    # space: the basis test is complete, and no combination is formed
    _, ar, _ = pipeline(name)
    nodes = [n.rep for n in ar.nodes if n.rep.dim_vector() == dim_vector]
    calls = _count_element_calls(monkeypatch)
    pairs = [(M, N) for M in nodes for N in nodes if M is not N
             and hom_space(M, N).dim == 2]
    assert pairs
    for M, N in pairs:
        assert find_isomorphism(M, N) is None
    assert calls == []


def test_find_isomorphism_of_decomposables_forms_no_combinations(monkeypatch):
    a2 = load("a2")
    S1, S2, P1 = simple(a2, "1"), simple(a2, "2"), projective(a2, "1")
    left, right = direct_sum([P1, S2]), direct_sum([S1, S2, S2])
    calls = _count_element_calls(monkeypatch)
    assert find_isomorphism(left, right) is None
    S12, S21 = direct_sum([S1, S2]), direct_sum([S2, S1])
    _assert_isomorphism_iff(S12, S21, True)
    assert calls == []


def test_unchecked_morphism_keeps_its_maps(s2):
    S1 = simple(s2, "1")
    maps = {v: RatMatrix.zeros(S1.dims[v], S1.dims[v]) for v in s2.quiver.vertices}
    assert ModuleMorphism(S1, S1, maps, check=False).maps is maps
    zero = ModuleMorphism.zero(S1, projective(s2, "1"))
    assert list(zero.maps) == list(s2.quiver.vertices) and zero.is_zero()
    checked = ModuleMorphism(S1, S1, {"1": RatMatrix([[1]])})
    assert list(checked.maps) == list(s2.quiver.vertices)  # missing maps filled
    with pytest.raises(ShapeError):
        ModuleMorphism(S1, S1, {"1": RatMatrix([[1, 0]])})


def test_decompose(s2):
    S1, P1 = simple(s2, "1"), projective(s2, "1")
    parts = decompose(direct_sum([S1, P1]))
    assert sorted(p.dim_vector() for p in parts) == sorted([S1.dim_vector(), P1.dim_vector()])
    assert decompose(R.zero_representation(s2)) == []
    only = decompose(P1)
    assert len(only) == 1 and are_isomorphic(only[0], P1)


def test_decompose_random_sum_recovers_summands(s2, s2_pipeline):
    _, ar, _ = s2_pipeline
    rng = random.Random(3)
    picks = [ar.nodes[rng.randrange(ar.node_count())].rep for _ in range(3)]
    total = direct_sum(picks)
    parts = decompose(total)
    assert len(parts) == 3
    unmatched = list(parts)
    for want in picks:
        hit = next(p for p in unmatched if are_isomorphic(p, want))
        unmatched.remove(hit)
    assert not unmatched
    assert sum(p.total_dim() for p in parts) == total.total_dim()
    for p in parts:
        assert is_indecomposable(p)


def test_decompose_inclusions_split_the_module(s2, s2_pipeline):
    _, ar, _ = s2_pipeline
    rng = random.Random(5)
    total = direct_sum([ar.nodes[rng.randrange(ar.node_count())].rep for _ in range(3)])
    pairs = decompose(total, True)
    plain = decompose(total)
    assert len(pairs) == len(plain)
    assert all(s.same_data(t) for (s, _), t in zip(pairs, plain))
    for summand, incl in pairs:
        # a module morphism into the sum (checked on construction), and injective
        ModuleMorphism(summand, total, incl.maps)
        assert incl.is_mono()
    # the images together span each vertex space: the sum is internal and direct
    for v in s2.quiver.vertices:
        cols = [col for _, incl in pairs for col in zip(*incl.maps[v].data)]
        assert len(cols) == total.dims[v]
        assert RatMatrix(cols, cols=total.dims[v]).rank() == total.dims[v]


def test_split_field_needed_is_reported():
    # Kronecker module (I, J) with J^2 = -1: End is the Gaussian rationals,
    # so indecomposability cannot be certified over the rationals
    from quivrad.errors import SplitFieldNeededError
    kron = load("kronecker")
    M = Representation(kron, {"1": 2, "2": 2},
                       {"a": RatMatrix.identity(2), "b": RatMatrix([[0, -1], [1, 0]])})
    assert hom_space(M, M).dim == 2
    with pytest.raises(SplitFieldNeededError):
        is_indecomposable(M)
    with pytest.raises(SplitFieldNeededError):
        decompose(M)


def test_split_across_number_fields_then_certification_fails():
    # the sum of two Kronecker modules over distinct quadratic fields splits
    # at the top level (End has the idempotent 1 ⊕ 0 in its basis),
    # but each summand has a two-dimensional endomorphism field, so the full
    # decomposition still reports the missing splitting field
    from quivrad.errors import SplitFieldNeededError
    from quivrad.rep import _fitting_power, subrepresentation
    kron = load("kronecker")
    M1 = Representation(kron, {"1": 2, "2": 2},
                        {"a": RatMatrix.identity(2), "b": RatMatrix([[0, -1], [1, 0]])})
    M2 = Representation(kron, {"1": 2, "2": 2},
                        {"a": RatMatrix.identity(2), "b": RatMatrix([[0, -2], [1, 0]])})
    total = direct_sum([M1, M2])
    f = _fitting_power(total)
    assert f is not None and (f @ f).rank() == f.rank()
    image, _ = subrepresentation(total, {v: f.maps[v].image() for v in total.dims})
    kernel, _ = subrepresentation(total, {v: f.maps[v].kernel() for v in total.dims})
    assert image.dim_vector() == kernel.dim_vector() == (2, 2)
    matches = sorted([are_isomorphic(image, M1), are_isomorphic(kernel, M1)])
    assert matches == [False, True]
    with pytest.raises(SplitFieldNeededError):
        decompose(total)


def _kronecker(kron, slopes, P=None):
    """⊕ of the Kronecker modules (1, slope), conjugated by P at both vertices."""
    n = len(slopes)
    P = RatMatrix.identity(n) if P is None else RatMatrix(P)
    diag = RatMatrix([[lam if i == j else 0 for j in range(n)] for i, lam in enumerate(slopes)])
    return Representation(kron, {"1": n, "2": n},
                          {"a": RatMatrix.identity(n), "b": P @ diag @ P.inverse()})


def _decomposable_modules():
    s2, kron = load("s2_cyclic"), load("kronecker")
    mods = [
        direct_sum([simple(s2, "1"), projective(s2, "1")]),
        direct_sum([projective(s2, "1"), projective(s2, "2")]),
        direct_sum([simple(s2, "2"), simple(s2, "2")]),
        _kronecker(kron, (0, 1, 5)),
        _kronecker(kron, (0, 1), P=((1, 0), (1, 1))),
    ]
    _, ar, _ = pipeline("s2_cyclic")
    rng = random.Random(8)
    for _ in range(3):
        mods.append(direct_sum([ar.nodes[rng.randrange(ar.node_count())].rep
                                for _ in range(3)]))
    return mods


def test_fitting_split_is_an_internal_direct_sum():
    from quivrad.rep import _fitting_power
    not_idempotent = 0
    for M in _decomposable_modules():
        f = _fitting_power(M)
        image = {v: f.maps[v].image() for v in M.dims}
        kernel = {v: f.maps[v].kernel() for v in M.dims}
        for v in M.dims:
            assert image[v].dim + kernel[v].dim == M.dims[v]
            assert (image[v] + kernel[v]).dim == M.dims[v]
        assert 0 < sum(s.dim for s in image.values()) < M.total_dim()
        not_idempotent += not ((f @ f) - f).is_zero()
        pairs = decompose(M, True)
        assert len(pairs) > 1
        for summand, incl in pairs:
            assert is_indecomposable(summand)
            ModuleMorphism(summand, M, incl.maps)  # intertwines
        for v in M.dims:
            cols = [col for _, incl in pairs for col in zip(*incl.maps[v].data)]
            assert len(cols) == M.dims[v]
            assert not cols or RatMatrix(cols, cols=M.dims[v]).rank() == M.dims[v]
    # the sheared Kronecker pair splits through c with c² = -c
    assert not_idempotent > 0


def test_split_needs_a_basis_element_that_is_neither_nilpotent_nor_invertible():
    # K_0 ⊕ K_1 conjugated by [[1, 1], [1, 2]] has the End basis {1, c} with
    # c of eigenvalues 1 and 2: both basis elements are invertible, so no
    # basis element splits it, and the decomposition is refused
    from quivrad.errors import SplitFieldNeededError
    kron = load("kronecker")
    M = _kronecker(kron, (0, 1), P=((1, 1), (1, 2)))
    one, c = hom_space(M, M).basis
    ident = ModuleMorphism.identity(M)
    assert one.maps == ident.maps and c.is_invertible()
    assert ((c - ident) @ (c - ident.scaled(2))).is_zero()
    with pytest.raises(SplitFieldNeededError):
        decompose(M)
    with pytest.raises(SplitFieldNeededError):
        is_indecomposable(M)
    # M is isomorphic to K_0 ⊕ K_1, but no basis element of the Hom space is
    # invertible, and matching summands needs M decomposed
    plain = _kronecker(kron, (0, 1))
    assert not any(b.is_invertible() for b in hom_space(M, plain).basis)
    with pytest.raises(SplitFieldNeededError):
        find_isomorphism(M, plain)
    with pytest.raises(SplitFieldNeededError):
        find_isomorphism(plain, M)


def test_decompose_splits_rational_eigenvalue_family():
    # Kronecker modules with distinct rational slopes have plain product
    # endomorphism rings and decompose fully
    kron = load("kronecker")
    mods = [Representation(kron, {"1": 1, "2": 1},
                           {"a": RatMatrix([[1]]), "b": RatMatrix([[lam]])})
            for lam in (0, 1, 5)]
    parts = decompose(direct_sum(mods))
    assert len(parts) == 3
    for want in mods:
        assert sum(1 for p in parts if are_isomorphic(p, want)) == 1


def test_json_round_trip(s2):
    P1 = projective(s2, "1")
    data = json.loads(json.dumps(P1.to_json_dict()))
    again = Representation.from_json_dict(s2, data)
    assert P1.same_data(again)
    # rational entries survive the string encoding
    M = Representation(s2, {"1": 1, "2": 1, "3": 0},
                       {"alpha": RatMatrix([["2/3"]])}, check=False)
    data = M.to_json_dict()
    assert data["matrices"]["alpha"] == [["2/3"]]
    assert Representation.from_json_dict(s2, data).same_data(M)


def test_dual_round_trip(s2):
    P1 = projective(s2, "1")
    assert P1.dual().dual().same_data(P1)
    assert P1.dual().pres is s2.opposite()


def test_morphism_algebra(s2):
    P1 = projective(s2, "1")
    ident = ModuleMorphism.identity(P1)
    assert (ident @ ident).maps == ident.maps
    zero = ModuleMorphism.zero(P1, P1)
    assert (ident - ident).is_zero()
    assert (zero + ident).maps == ident.maps
    assert ident.is_invertible()
    assert ident.inverse().maps == ident.maps
