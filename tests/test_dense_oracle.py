"""The sparse radical filtration against the dense all-pairs oracle."""
import pytest

from quivrad import ar_quiver, artrans
from quivrad.errors import InconsistencyError
from quivrad.linalg import Subspace
from quivrad.radical import canonical_r

from conftest import load, relabelled_filtration
from dense_oracle import DenseFiltration
from randgen import random_finite_monomial, random_nakayama

# every representation-finite fixture but ex_2_5, which is too slow for the oracle
FIXTURES = ("a2", "a3", "a3_rel", "s2_cyclic", "s3_cycle", "ex_4_5", "s4_final")


def _agrees_with_dense(filt, dense, arrows=None):
    # layer by layer from a fresh filtration: the same depth reached, the same
    # layers_computed, and the index one more than the longest chain
    d = 1
    while True:
        filt.ensure_depth(d)
        dense.ensure_depth(d)
        assert filt.layers_computed() == dense.layers_computed(), d
        if dense.complete:
            break
        d += 1
    depth = filt.layers_computed()
    assert filt.nilpotency_index() == 1 + depth
    # every chain, building the rows of the nodes that are not projective;
    # the oracle's Hom-basis coordinates are mapped to the filtration's by
    # evaluation at the top generators of the source, which is injective
    assert set(filt.hom) == set(dense.hom)
    for (i, j), hs in dense.hom.items():
        values = [filt.at_generators(i, b) for b in hs.basis]
        ambient = len(values[0])
        assert Subspace.from_vectors(ambient, values).dim == hs.dim, (i, j)
        chain = [Subspace.from_vectors(
                     ambient, [filt.at_generators(i, hs.element(row)) for row in sub.basis])
                 for sub in dense.chains.get((i, j), [])]
        got = [filt.subspace(i, j, n) for n in range(1, len(chain) + 2)]
        assert got[:len(chain)] == chain, (i, j)
        assert got[len(chain)].is_zero(), (i, j)
    assert filt.layers_computed() == depth  # the lazily built rows are no longer
    expected = sorted((i, j, dense.dim_irr(i, j)) for (i, j) in dense.hom
                      if dense.dim_irr(i, j))
    for (i, j) in dense.hom:
        assert filt.dim_irr(i, j) == dense.dim_irr(i, j), (i, j)
    if arrows is not None:
        assert arrows == expected


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_chains_match_the_dense_oracle(name):
    pres = load(name)
    ar = ar_quiver(pres)
    _agrees_with_dense(ar.filtration, DenseFiltration(ar.reps), ar.arrows())


@pytest.mark.parametrize("name", FIXTURES)
def test_node_list_chains_match_the_dense_oracle(name):
    # the knitted nodes in reverse order, pieces and aliases renumbered: the
    # chains depend on the node list and its pieces, not on the knitting order
    ar = ar_quiver(load(name))
    filt = relabelled_filtration(ar, range(ar.node_count() - 1, -1, -1))
    _agrees_with_dense(filt, DenseFiltration(filt.reps))


def test_random_monomial_chains_match_the_dense_oracle():
    for _, pres, ar in random_finite_monomial(20):
        _agrees_with_dense(ar.filtration, DenseFiltration(ar.reps), ar.arrows())


def _fallback_only(monkeypatch, pres, limits=None):
    """The AR quiver knit with no node ever ready for its cokernel step: every
    τ⁻¹ by Tr D, every τ by D Tr, every non-projective mesh by the Ext route."""
    with monkeypatch.context() as patch:
        patch.setattr(artrans._Knitter, "_ready", lambda self, x: False)
        return ar_quiver(pres, limits)


@pytest.mark.parametrize("name", FIXTURES + ("ex_2_5", "random", "nakayama"))
def test_cokernel_and_ext_routes_knit_the_same_quiver(name, monkeypatch):
    # the default knitting against the fallback alone; the cyclic fixtures and
    # the Nakayama samples mix both by default.  The two walks add the nodes
    # in different orders and bases, so they are compared by ``ar --json``
    # and each against the dense oracle (ex_2_5 is too slow for the oracle)
    if name in ("random", "nakayama"):
        draw = random_finite_monomial(20) if name == "random" else random_nakayama()
        inputs = [(pres, ar) for _, pres, ar in draw]
    else:
        inputs = [(load(name), None)]
    limits = artrans.EnumerationLimits(max_modules=400, max_total_dim=3000)
    for pres, ar in inputs:
        ar = ar or ar_quiver(pres, limits)
        fallback = _fallback_only(monkeypatch, pres, limits)
        assert fallback.to_json_dict() == ar.to_json_dict()
        if name == "ex_2_5":
            continue
        for knit in (ar, fallback):
            _agrees_with_dense(knit.filtration, DenseFiltration(knit.reps), knit.arrows())
        for a in pres.quiver.vertices:
            assert canonical_r(fallback.filtration, a) == canonical_r(ar.filtration, a)


@pytest.mark.parametrize("name", ("a3", "s2_cyclic", "s3_cycle", "ex_4_5", "s4_final", "ex_2_5"))
def test_cross_check_fails_when_a_component_of_f_is_dropped(name, monkeypatch):
    # one component dropped from the first left almost split map with two or
    # more: the default walk refuses the input or knits another quiver than
    # the fallback alone
    pres = load(name)
    fallback = _fallback_only(monkeypatch, pres).to_json_dict()
    real = artrans._Knitter._left_almost_split
    dropped = []

    def drop_last(self, x):
        components = real(self, x)
        if not dropped and len(components) >= 2:
            dropped.append(x)
            components = components[:-1]
        return components

    monkeypatch.setattr(artrans._Knitter, "_left_almost_split", drop_last)
    try:
        mutated = ar_quiver(pres).to_json_dict()
    except InconsistencyError:
        mutated = None
    assert dropped and mutated != fallback
