import functools

import pytest
from pathlib import Path

from quivrad import RadicalFiltration, ar_quiver, parse_presentation
from dense_oracle import hom
from randgen import random_finite_monomial, random_nakayama

DATA = Path(__file__).parent / "data"

# every name ``samples`` takes: the representation-finite fixtures, ex_2_5
# (the heavy one) last, then the two randgen draws
FINITE_SAMPLES = ("a2", "a3", "a3_rel", "s2_cyclic", "s3_cycle", "ex_4_5", "s4_final", "ex_2_5",
                  "random", "nakayama")

_PIPELINES = {}


def fixture_text(name: str) -> str:
    return (DATA / f"{name}.quiver").read_text()


def fixture_path(name: str) -> str:
    return str(DATA / f"{name}.quiver")


def load(name: str):
    return parse_presentation(fixture_text(name))


def pipeline(name: str):
    """(presentation, AR quiver, completed filtration), computed once per session."""
    if name not in _PIPELINES:
        pres = load(name)
        ar = ar_quiver(pres)
        ar.filtration.ensure_complete()
        _PIPELINES[name] = (pres, ar, ar.filtration)
    return _PIPELINES[name]


@functools.lru_cache(maxsize=None)
def samples(name: str) -> list:
    """[(presentation, AR quiver)]: one for a fixture, or the ``random``
    (``random_finite_monomial``) or ``nakayama`` draw, computed once per session."""
    if name in ("random", "nakayama"):
        draw = random_finite_monomial() if name == "random" else random_nakayama()
        return [(pres, ar) for _, pres, ar in draw]
    pres, ar, _ = pipeline(name)
    return [(pres, ar)]


def projective_pairs(filt) -> list:
    """(i, j) per nonzero Hom(node_i, node_j) with node i projective: the
    pairs the filtration keeps layers for."""
    projective = sorted({filt.projective_index(a) for a in filt.pres.quiver.vertices})
    return [(i, j) for i in projective for j in range(len(filt.reps)) if hom(filt, i, j)]


def knitted_socles(filt) -> dict:
    """Node -> socle spaces of every injective node, as the knitting read them."""
    return {i: filt.socle_spaces(i) for key, i in filt.aliases.items() if key[0] == "I"}


def relabelled_filtration(ar, order, aliases=None, socles=None):
    """A fresh filtration over the AR quiver's nodes listed in ``order`` (old
    indices), with the knitted pieces, the alias table (or ``aliases``) and
    the knitted socle spaces (with ``socles`` added) renumbered to match."""
    new = {old: k for k, old in enumerate(order)}
    filt = ar.filtration
    pieces = {new[j]: [(new[k], g) for k, g in filt.pieces(j)] for j in order}
    table = filt.aliases if aliases is None else aliases
    spaces = {**knitted_socles(filt), **(socles or {})}
    return RadicalFiltration(filt.pres, [ar.nodes[i].rep for i in order], pieces,
                             {key: new[i] for key, i in table.items()},
                             {new[i]: s for i, s in spaces.items() if i in new})


@pytest.fixture(scope="session")
def s2_pipeline():
    return pipeline("s2_cyclic")


@pytest.fixture(scope="session")
def ex25_pipeline():
    return pipeline("ex_2_5")


@pytest.fixture(scope="session")
def s3_pipeline():
    return pipeline("s3_cycle")


@pytest.fixture(scope="session")
def ex45_pipeline():
    return pipeline("ex_4_5")


@pytest.fixture(scope="session")
def final_pipeline():
    return pipeline("s4_final")


@pytest.fixture(scope="session")
def a2_pipeline():
    return pipeline("a2")


@pytest.fixture(scope="session")
def a3_pipeline():
    return pipeline("a3")


@pytest.fixture(scope="session")
def a3_rel_pipeline():
    return pipeline("a3_rel")
