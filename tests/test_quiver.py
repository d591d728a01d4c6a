from fractions import Fraction
from math import gcd

import pytest

from quivrad.errors import NotAdmissibleError, ParseError
from quivrad.quiver import (
    Path,
    classify,
    parse_presentation,
    path_basis,
    sinks_and_sources,
    validate_admissible,
    zero_relation_vertices,
)

from quivrad.artrans import ar_translate
from quivrad.rep import projective

from conftest import load
from dense_oracle import simple


def brute_force_nonzero_paths(pres, max_len=12):
    """Oracle for monomial ideals: composable words avoiding relation subwords."""
    rel_words = [tuple(r.terms[0][1].arrows) for r in pres.relations]
    assert all(r.is_zero_relation() for r in pres.relations)
    out = {(v, ()) for v in pres.quiver.vertices}
    frontier = [(v, ()) for v in pres.quiver.vertices]
    for _ in range(max_len):
        nxt = []
        for (start, word) in frontier:
            at = start
            for name in word:
                at = pres.quiver.arrow(name).target
            for arr in pres.quiver.out_arrows(at):
                w = word + (arr.name,)
                if any(w[k:k + len(r)] == r for r in rel_words for k in range(len(w) - len(r) + 1)):
                    continue
                nxt.append((start, w))
        out.update(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


def test_s2_parse_shape():
    pres = load("s2_cyclic")
    assert len(pres.quiver.vertices) == 3
    assert len(pres.quiver.arrows) == 3
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    assert rel.is_zero_relation()
    assert rel.terms[0][1].length == 3


def test_vertices_only_is_semisimple():
    pres = parse_presentation("vertex 1 2 3\n")
    rep = validate_admissible(pres)
    assert rep.algebra_dim == 3
    assert rep.nilpotency_degree == 1
    assert rep.longest_path_length == 0


def test_ex25_parse_shape():
    pres = load("ex_2_5")
    assert len(pres.quiver.vertices) == 10
    comm = [r for r in pres.relations if len(r.terms) == 2]
    zeros = [r for r in pres.relations if r.is_zero_relation()]
    assert len(comm) == 1 and len(zeros) == 2
    c1, c2 = (c for c, _ in comm[0].terms)
    assert c1 + c2 == 0


def test_rational_coefficients_parse():
    pres = parse_presentation(
        "vertex 1 2 3\narrow p 1 2\narrow q 2 3\narrow r 1 3\n"
        "relation 3/2*p*q - r  # mixed lengths\n")
    (ca, pa), (cb, pb) = pres.relations[0].terms
    assert ca == Fraction(3, 2) and cb == -1
    assert pa.arrows == ("p", "q") and pb.arrows == ("r",)


@pytest.mark.parametrize("text,fragment", [
    ("vertex 1\nvertex 1\n", "duplicate vertex"),
    ("vertex 1 2\narrow a 1 2\narrow a 1 2\n", "duplicate arrow"),
    ("vertex 1 2\narrow a 1 3\n", "unknown vertex"),
    ("vertex 1 2\narrow a 1 2\nrelation a*b\n", "unknown arrow"),
    ("vertex 1 2\narrow a 1 2\nrelation a*a\n", "compose"),
    ("vertex 1 2 3\narrow a 1 2\narrow b 1 3\nrelation a - b\n", "parallel"),
    ("vertex 1 2\narrow a 1 2\nrelation 2*\n", "path"),
    ("vertex 1 2\narrow a 1 2\nrelation a ?\n", "unexpected character"),
    ("vertex 1 2\nbogus a\n", "unknown statement"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_presentation("vertex 1 2\narrow a 1 2\nrelation a ?\n")
    assert err.value.line == 3
    assert err.value.column is not None


def test_s2_admissibility_profile():
    # oracle: enumerate composable words without the relation subword by hand
    pres = load("s2_cyclic")
    words = brute_force_nonzero_paths(pres)
    longest = max(len(w) for _, w in words)
    assert longest == 3
    report = validate_admissible(pres)
    assert report.longest_path_length == longest
    assert report.nilpotency_degree == longest + 1
    assert report.algebra_dim == len(words)  # monomial: surviving words are a basis


def test_single_arrow_relation_not_admissible():
    with pytest.raises(NotAdmissibleError):
        validate_admissible(load("bad_length1"))


def test_loop_without_relation_not_admissible():
    pres = parse_presentation("vertex 1\narrow rho 1 1\n")
    with pytest.raises(NotAdmissibleError):
        validate_admissible(pres, max_len=16)


def test_path_basis_s2():
    pres = load("s2_cyclic")
    basis11 = path_basis(pres, "1", "1")
    assert [str(p) for p in basis11] == ["e_1", "alpha*beta"]
    assert path_basis(pres, "3", "1") == []


def test_path_basis_ex25_identifies_parallel_paths():
    pres = load("ex_2_5")
    assert len(path_basis(pres, "1", "4")) == 1
    # the two parallel routes 1 -> 3 are identified by the commutativity relation
    assert len(path_basis(pres, "1", "3")) == 1


def test_path_basis_dims_sum_to_algebra_dim():
    for name in ("s2_cyclic", "ex_2_5", "s3_cycle", "ex_4_5"):
        pres = load(name)
        report = validate_admissible(pres)
        total = sum(len(path_basis(pres, i, j))
                    for i in pres.quiver.vertices for j in pres.quiver.vertices)
        assert total == report.algebra_dim


@pytest.mark.parametrize("name", ["a2", "a3", "a3_rel", "ex_2_5", "ex_4_5", "kronecker",
                                  "s2_cyclic", "s3_cycle", "s4_final"])
def test_registered_paths_minus_their_coordinates_lie_in_the_relations(name):
    """p − Σ c_k b_k, for the coordinates c of p over the basis paths b,
    reduces to zero against the echelonized relation multiples."""
    model = load(name).model()
    for pair, paths in model.pair_paths.items():
        elim = model.elims.get(pair)
        for p in paths:
            vec = {model.path_index[p.key()]: Fraction(1)}
            for c, b in zip(model.reduce_path(p), model.basis(*pair)):
                k = model.path_index[b.key()]
                vec[k] = vec.get(k, 0) - c
            den = 1
            for x in vec.values():
                den = den * x.denominator // gcd(den, x.denominator)
            ivec = {k: int(x * den) for k, x in vec.items() if x}
            assert (elim.reduce_int(ivec) if elim else ivec) == {}, (name, str(p))


def test_sinks_and_sources():
    sinks, sources, middle = sinks_and_sources(load("ex_2_5").quiver)
    assert set(sinks) == {"7", "10"}
    assert set(sources) == {"1"}
    assert set(middle) == {"2", "3", "4", "5", "6", "8", "9"}

    single = parse_presentation("vertex 1\n").quiver
    sinks, sources, middle = sinks_and_sources(single)
    assert sinks == ("1",) and sources == ("1",) and middle == ()

    sinks, sources, middle = sinks_and_sources(load("s2_cyclic").quiver)
    assert set(middle) == {"1", "2"} and sinks == ("3",) and sources == ()


def test_zero_relation_vertices():
    assert zero_relation_vertices(load("s2_cyclic")) == ("1", "2")
    assert set(zero_relation_vertices(load("ex_2_5"))) == {"6", "9"}
    assert set(zero_relation_vertices(load("s3_cycle"))) == {"1", "2", "3"}
    only_comm = parse_presentation(
        "vertex 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 1 3\nrelation a*b - c\n")
    assert zero_relation_vertices(only_comm) == ()


def test_classify_ex45_grafo():
    cls = classify(load("ex_4_5"))
    assert not cls.is_monomial
    shape = cls.toupie
    assert shape is not None and shape.grafo is not None
    g = shape.grafo
    zero_branch = shape.branches[g.zero_branch]
    assert zero_branch.vertices == ("2", "3")
    assert g.n3 == 2 and (g.j, g.t) == (1, 2)
    assert sorted((g.n1, g.n2)) == [1, 1]


def test_classify_s2_monomial_not_toupie():
    cls = classify(load("s2_cyclic"))
    assert cls.is_monomial
    assert cls.toupie is None


def test_classify_ex25_neither():
    cls = classify(load("ex_2_5"))
    assert not cls.is_monomial
    assert cls.toupie is None


def test_classify_final_toupie_without_grafo():
    cls = classify(load("s4_final"))
    assert cls.toupie is not None
    assert cls.toupie.grafo is None  # three relations: not the one-zero-relation pattern


def test_classify_linear_quiver_is_not_toupie():
    assert classify(load("a3")).toupie is None


def test_path_display_orders():
    quiver = load("s2_cyclic").quiver
    p = Path(quiver, "1", ("alpha", "beta"))
    assert str(p) == "alpha*beta"      # traversal order


def _path_quiver(n: int):
    """A_n as a path v0 -> v1 -> ... -> v(n-1), with no relations."""
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"arrow a{i} v{i} v{i + 1}" for i in range(n - 1)]
    return parse_presentation("\n".join(lines) + "\n")


def test_a_cap_above_the_default_carries_to_modules_and_the_opposite_side():
    # A66's longest path has length 65: the default cap refuses it, 100 certifies it,
    # and the modules and the translate (built on the opposite side) use that model
    pres = _path_quiver(66)
    with pytest.raises(NotAdmissibleError, match="^paths of length 64 still survive"):
        validate_admissible(pres)
    assert validate_admissible(pres, 100).longest_path_length == 65
    assert projective(pres, "v0").total_dim() == 66
    assert ar_translate(simple(pres, "v1")) is not None
    assert pres.opposite().model().max_len == 100


def test_a_certified_model_still_refuses_a_smaller_cap():
    pres = _path_quiver(66)
    validate_admissible(pres, 66)
    for cap in (64, 65):
        with pytest.raises(NotAdmissibleError,
                           match=f"^paths of length {cap} still survive: ideal not certified"):
            validate_admissible(pres, cap)
    assert validate_admissible(pres, 80).algebra_dim == 66 * 67 // 2
