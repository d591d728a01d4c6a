"""The quotient projection read off the reduced echelon rows, block by block
from the summands, against the unit-vector route on their dense direct sum
in ``tests/dense_oracle.py``."""
import random
import sys
from collections import Counter
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


def _assert_same_quotient(summands, spaces) -> bool:
    """The quotient of the direct sum of ``summands`` and its projection agree
    entry by entry with the oracle's on the dense direct sum and keep the
    ``RatMatrix`` invariant; returns whether a Fraction occurs."""
    quo, proj = R.quotient_representation(summands, spaces)
    M = R.direct_sum(summands)
    ref, ref_proj = quotient_by_unit_vectors(M, spaces)
    assert quo.dims == ref.dims
    mats = [(proj[v], ref_proj.maps[v]) for v in M.pres.quiver.vertices]
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
            _assert_same_quotient([node.rep], R.radical_spaces(node.rep))
            _assert_same_quotient([node.rep], R.socle_spaces(node.rep))


def _record_knitting_quotients(pres, monkeypatch) -> tuple:
    """(knitter, [(caller, summands, spaces)]) for every quotient the knitting
    of pres takes: the cokernels of the left almost split maps in _step, and
    those of Tr D (transpose) and the Ext route (almost_split_middle)."""
    calls = []
    real = artrans.quotient_representation

    def recorded(summands, spaces):
        calls.append((sys._getframe(1).f_code.co_name, list(summands), spaces))
        return real(summands, spaces)

    monkeypatch.setattr(artrans, "quotient_representation", recorded)
    knit = artrans._Knitter(pres, EnumerationLimits()).run()
    monkeypatch.undo()
    return knit, calls


@pytest.mark.parametrize("name", FINITE_SAMPLES)
def test_knitting_quotients_match_the_unit_vector_route(name, monkeypatch):
    for pres, _ in samples(name):
        knit, calls = _record_knitting_quotients(pres, monkeypatch)
        assert sum(caller == "_step" for caller, _, _ in calls) == knit.routes["cokernel"]
        assert {caller for caller, _, _ in calls} <= {"_step", "transpose", "almost_split_middle"}
        assert all(len(summands) == 1 for caller, summands, _ in calls if caller == "transpose")
        for _, summands, spaces in calls:
            _assert_same_quotient(summands, spaces)


def test_every_knitting_quotient_takes_its_summands(monkeypatch):
    # an AR-quiver cycle: the walk takes cokernel steps, Tr D and the Ext route
    pres, _ = samples("s2_cyclic")[0]
    knit, calls = _record_knitting_quotients(pres, monkeypatch)
    assert all(knit.routes[r] for r in ("cokernel", "translate", "extension"))
    callers = Counter(caller for caller, _, _ in calls)
    assert callers["_step"] == knit.routes["cokernel"]
    assert callers["almost_split_middle"] == knit.routes["extension"]
    assert callers["transpose"]
    assert any(len(summands) > 1 for caller, summands, _ in calls if caller == "_step")
    assert all(len(summands) == 2 for caller, summands, _ in calls
               if caller == "almost_split_middle")


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
            summands = rng.sample(reps, min(3, len(reps)))
            spaces = _random_submodule(R.direct_sum(summands), rng)
            fractions += _assert_same_quotient(summands, spaces)
    assert fractions
