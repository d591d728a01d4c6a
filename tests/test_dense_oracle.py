"""The sparse radical filtration against the dense all-pairs oracle."""
import pytest

from quivrad import ar_quiver, artrans
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
    # every chain, building the rows of the nodes that are not projective
    assert set(filt.hom_pairs()) == set(dense.hom)
    for (i, j) in dense.hom:
        chain = dense.chains.get((i, j), [])
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


@pytest.mark.parametrize("name", FIXTURES + ("random", "nakayama"))
def test_cokernel_and_ext_routes_knit_the_same_quiver(name, monkeypatch):
    # the default knitting against one that builds every non-projective mesh
    # from an Ext class; the Nakayama samples mix both routes by default
    if name in ("random", "nakayama"):
        draw = random_finite_monomial(20) if name == "random" else random_nakayama()
        inputs = [(pres, ar) for _, pres, ar in draw]
    else:
        inputs = [(load(name), None)]
    limits = artrans.EnumerationLimits(max_modules=400, max_total_dim=3000)
    for pres, ar in inputs:
        ar = ar or ar_quiver(pres, limits)
        with monkeypatch.context() as patch:
            patch.setattr(artrans._Knitter, "_mesh_ready", lambda self, z: False)
            ext = ar_quiver(pres, limits)
        assert ([(n.label, n.rep.dim_vector()) for n in ext.nodes]
                == [(n.label, n.rep.dim_vector()) for n in ar.nodes])
        assert ext.arrows() == ar.arrows()
        # the oracle certifies the default route's chains; the Ext route's equal them
        _agrees_with_dense(ar.filtration, DenseFiltration(ar.reps), ar.arrows())
        depth = ar.filtration.layers_computed()
        assert set(ext.filtration.hom_pairs()) == set(ar.filtration.hom_pairs())
        for i, j in ar.filtration.hom_pairs():
            for n in range(1, depth + 2):
                assert ext.filtration.subspace(i, j, n) == ar.filtration.subspace(i, j, n)
        for a in pres.quiver.vertices:
            assert canonical_r(ext.filtration, a) == canonical_r(ar.filtration, a)
