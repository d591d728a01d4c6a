"""The quotient projection read off the reduced echelon rows, against the
unit-vector route in ``tests/dense_oracle.py``."""
import random
import sys
from fractions import Fraction

import pytest

from quivrad import artrans
from quivrad import rep as R
from quivrad.artrans import EnumerationLimits
from quivrad.linalg import Subspace

from conftest import FINITE_SAMPLES, samples
from dense_oracle import quotient_by_unit_vectors


def _normal(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _assert_same_quotient(M, spaces) -> bool:
    """The quotient and projection agree entry by entry with the oracle's and
    keep the ``RatMatrix`` invariant; returns whether a Fraction occurs."""
    quo, proj = R.quotient_representation(M, spaces)
    ref, ref_proj = quotient_by_unit_vectors(M, spaces)
    assert quo.dims == ref.dims
    mats = [(proj.maps[v], ref_proj.maps[v]) for v in M.pres.quiver.vertices]
    mats += [(quo.matrices[a], ref.matrices[a]) for a in ref.matrices]
    fractions = False
    for got, want in mats:
        assert got.shape == want.shape
        assert got.data == want.data
        assert all(map(_normal, (x for row in got.data for x in row)))
        fractions |= any(type(x) is Fraction for row in got.data for x in row)
    for v in M.pres.quiver.vertices:
        assert spaces[v].quotient_matrix() == ref_proj.maps[v]
    return fractions


@pytest.mark.parametrize("name", FINITE_SAMPLES)
def test_radical_and_socle_quotients_match_the_unit_vector_route(name):
    for _, ar in samples(name):
        for node in ar.nodes:
            _assert_same_quotient(node.rep, R.radical_spaces(node.rep))
            _assert_same_quotient(node.rep, R.socle_spaces(node.rep))


@pytest.mark.parametrize("name", FINITE_SAMPLES)
def test_knitting_quotients_match_the_unit_vector_route(name, monkeypatch):
    # every quotient the knitting takes: the cokernels of the left almost
    # split maps in _step, and those of Tr D and the Ext route
    calls = []
    real = artrans.quotient_representation

    def recorded(M, spaces):
        calls.append((sys._getframe(1).f_code.co_name, M, spaces))
        return real(M, spaces)

    monkeypatch.setattr(artrans, "quotient_representation", recorded)
    for pres, _ in samples(name):
        del calls[:]
        knit = artrans._Knitter(pres, EnumerationLimits()).run()
        assert sum(1 for caller, _, _ in calls if caller == "_step") == knit.routes["cokernel"]
        for _, M, spaces in calls:
            _assert_same_quotient(M, spaces)


def _random_submodule(M, rng):
    """Per-vertex spaces of the submodule generated by two random elements
    with integer entries up to 3 in size, so that pivots other than 1 occur."""
    quiver = M.pres.quiver
    vecs = {v: [] for v in quiver.vertices}
    queue = []
    for _ in range(2):
        v = rng.choice([v for v in quiver.vertices if M.dims[v]])
        queue.append((v, [rng.randint(-3, 3) for _ in range(M.dims[v])]))
    while queue:  # the module is nilpotent, so every path's image reaches zero
        v, vec = queue.pop()
        if not any(vec):
            continue
        vecs[v].append(vec)
        queue += [(a.target, M.matrices[a.name].apply(vec)) for a in quiver.out_arrows(v)]
    return {v: Subspace.from_vectors(M.dims[v], vecs[v]) for v in quiver.vertices}


@pytest.mark.parametrize("name", ("ex_4_5", "s3_cycle", "random", "nakayama"))
def test_random_submodule_quotients_match_the_unit_vector_route(name):
    rng = random.Random(19)
    fractions = 0
    for _, ar in samples(name):
        reps = [node.rep for node in ar.nodes]
        for _ in range(20):
            M = R.direct_sum(rng.sample(reps, min(3, len(reps))))
            fractions += _assert_same_quotient(M, _random_submodule(M, rng))
    assert fractions
