import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from quivrad.errors import NotAdmissibleError, ParseError
from quivrad.quiver import (
    AlgebraPresentation,
    Path,
    Quiver,
    Relation,
    classify,
    parse_presentation,
    path_basis,
    sinks_and_sources,
    validate_admissible,
    zero_relation_vertices,
)

from quivrad.artrans import ar_quiver, ar_translate
from quivrad.rep import projective

from conftest import fixture_text, load
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


# Every reachable parse error with the exact message, line and column the
# parser reports; the relation lines follow QUIVER_TEXT, on line 5.  A
# token error's column is where its failed match began, so ``relation a ?``
# points at the space before ``?``; the errors Relation raises point just
# before the relation's text; and a relation text found inside the word
# ``relation`` is placed there, as ``relation o`` shows.
QUIVER_TEXT = "vertex 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 1 3\n"

PARSE_ERRORS = [
    # relation tokens
    (QUIVER_TEXT + 'relation a ?\n', "line 5, column 11: unexpected character '?'", 5, 11),
    (QUIVER_TEXT + 'relation ?a\n', "line 5, column 10: unexpected character '?'", 5, 10),
    (QUIVER_TEXT + 'relation a*b+ 1/\n', "line 5, column 16: unexpected character '/'", 5, 16),
    (QUIVER_TEXT + 'relation a*b + é\n', "line 5, column 15: unexpected character 'é'", 5, 15),
    (QUIVER_TEXT + 'relation d*a + ?\n', "line 5, column 15: unexpected character '?'", 5, 15),
    (QUIVER_TEXT + 'relation\n', 'line 5, column 8: relation without terms', 5, 8),
    (QUIVER_TEXT + '  relation  # no terms\n', 'line 5, column 10: relation without terms', 5, 10),
    (QUIVER_TEXT + 'relation 1/0*a*b\n', 'line 5, column 10: coefficient 1/0 has denominator zero', 5, 10),
    (QUIVER_TEXT + 'relation 2 a*b\n', "line 5, column 10: coefficient must be followed by '*'", 5, 10),
    (QUIVER_TEXT + 'relation a*b - 2\n', "line 5, column 16: coefficient must be followed by '*'", 5, 16),
    (QUIVER_TEXT + 'relation 2*\n', 'line 5, column 10: coefficient without a path', 5, 10),
    (QUIVER_TEXT + 'relation 2*3\n', "line 5, column 12: expected arrow name, got '3'", 5, 12),
    (QUIVER_TEXT + 'relation *a\n', "line 5, column 10: expected arrow name, got '*'", 5, 10),
    (QUIVER_TEXT + 'relation a*b + -c\n', "line 5, column 16: expected arrow name, got '-'", 5, 16),
    (QUIVER_TEXT + 'relation a*d\n', "line 5, column 10: unknown arrow 'd'", 5, 10),
    (QUIVER_TEXT + 'relation d*a\n', "line 5, column 10: unknown arrow 'd'", 5, 10),
    (QUIVER_TEXT + 'relation a*b + a*d -\n', "line 5, column 16: unknown arrow 'd'", 5, 16),
    (QUIVER_TEXT + 'relation o\n', "line 5, column 7: unknown arrow 'o'", 5, 7),
    (QUIVER_TEXT + 'relation a*a\n', "line 5, column 10: arrows do not compose at 'a'", 5, 10),
    (QUIVER_TEXT + 'relation -\n', 'line 5, column 10: dangling sign in relation', 5, 10),
    (QUIVER_TEXT + 'relation a*b -\n', 'line 5, column 14: dangling sign in relation', 5, 14),
    (QUIVER_TEXT + 'relation a*b c\n', "line 5, column 14: expected '+' or '-', got 'c'", 5, 14),
    (QUIVER_TEXT + 'relation a*b*\n', "line 5, column 13: expected '+' or '-', got '*'", 5, 13),
    (QUIVER_TEXT + 'relation a*b 2*c\n', "line 5, column 14: expected '+' or '-', got '2'", 5, 14),
    # errors Relation raises, re-raised at the relation's column
    (QUIVER_TEXT + 'relation 0*a*b\n', 'line 5, column 9: relation term with zero coefficient', 5, 9),
    (QUIVER_TEXT + '\trelation 0/4*a*b - c\n',
     'line 5, column 10: relation term with zero coefficient', 5, 10),
    (QUIVER_TEXT + 'relation a*b - a\n', 'line 5, column 9: relation terms are not parallel', 5, 9),
    (QUIVER_TEXT + 'relation a*b - 2*a*b\n', 'line 5, column 9: relation repeats a path', 5, 9),
    # statement errors
    ('vertex\n', 'line 1, column 1: vertex statement without ids', 1, 1),
    ('vertex 1 x.y\n', "line 1, column 1: bad vertex id 'x.y'", 1, 1),
    ('  vertex 1 2 1\n', "line 1, column 3: duplicate vertex '1'", 1, 3),
    ('vertex 1 2\narrow a 1\n', 'line 2, column 1: arrow statement needs: name source target', 2, 1),
    ('vertex 1 2\narrow 1a 1 2\n', "line 2, column 1: arrow name '1a' must be an identifier", 2, 1),
    ('vertex 1 2\narrow a 1 2\n arrow a 2 1\n', "line 3, column 2: duplicate arrow 'a'", 3, 2),
    ('vertex 1 2\narrow a 3 2\n', "line 2, column 1: unknown vertex '3'", 2, 1),
    ('vertex 1 2\narrow a 1 3\n', "line 2, column 1: unknown vertex '3'", 2, 1),
    ('vertex 1 2\nbogus a\n', "line 2, column 1: unknown statement 'bogus'", 2, 1),
]


@pytest.mark.parametrize("text,message,line,column", PARSE_ERRORS)
def test_parse_error_message_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


CORPUS_ARROWS = (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                 ("d", "1", "3"), ("e", "2", "4"), ("f", "1", "4"))
CORPUS_PATHS = (("a", "b", "c"), ("d", "c"), ("a", "e"), ("f",), ("a", "b"), ("d",), ("b", "c"))
CORPUS_TOKENS = ("a", "b", "c", "d", "e", "f", "g", "x1", "aé", "0", "1", "2", "3/2", "1/0",
                 "0/4", "2a", "+", "-", "*", "*", "?", "/", ".", "é", "#", "relation")
CORPUS_WORDS = ("vertex", "arrow", "relation", "rel", "1", "4", "9", "a", "a1", "1a", "x.y",
                "a*b", "#", "")


def _corpus_relation(rng):
    """A relation over CORPUS_ARROWS: one to three well-formed terms, and
    half the time each token kept, dropped or replaced, with a few inserted."""
    tokens = []
    for k in range(rng.randint(1, 3)):
        if k or rng.random() < 0.3:
            tokens.append(rng.choice("+-"))
        if rng.random() < 0.3:
            tokens += [rng.choice(("2", "3/2", "1/3", "0")), "*"]
        path = rng.choice(CORPUS_PATHS)
        tokens.append(path[0])
        for name in path[1:]:
            tokens += ["*", name]
    if rng.random() < 0.5:
        mutated = []
        for tok in tokens:
            roll = rng.random()
            if roll >= 0.1:
                mutated.append(rng.choice(CORPUS_TOKENS) if roll < 0.2 else tok)
            if rng.random() < 0.05:
                mutated.append(rng.choice(CORPUS_TOKENS))
        tokens = mutated
    return "".join(rng.choice(("", "", " ", "  ", "\t")) + tok for tok in tokens)


def _corpus_text(rng) -> str:
    """The statements of CORPUS_ARROWS and one or two relations; half the
    time one statement line is doubled or has a word dropped, replaced or
    inserted, and some lines take an indent or a trailing comment."""
    lines = ["vertex 1 2 3 4"] + [f"arrow {n} {s} {t}" for n, s, t in CORPUS_ARROWS]
    lines += ["relation " + _corpus_relation(rng) for _ in range(rng.randint(1, 2))]
    k = rng.randrange(len(lines))
    words = lines[k].split(" ")
    roll = rng.random()
    if roll < 0.1:
        lines.insert(k, lines[k])
    elif roll < 0.2:
        del words[rng.randrange(len(words))]
    elif roll < 0.35:
        words[rng.randrange(len(words))] = rng.choice(CORPUS_WORDS)
    elif roll < 0.5:
        words.insert(rng.randrange(len(words) + 1), rng.choice(CORPUS_WORDS))
    if 0.1 <= roll < 0.5:
        lines[k] = " ".join(words)
    if rng.random() < 0.3:
        k = rng.randrange(len(lines))
        lines[k] = rng.choice(("  ", "\t")) + lines[k]
    if rng.random() < 0.3:
        k = rng.randrange(len(lines))
        lines[k] += rng.choice(("  # note", "#", " #x?"))
    return "\n".join(lines) + "\n"


def _parse_outcome(text: str) -> str:
    """The parsed presentation, or the error's class, message, line and column."""
    try:
        pres = parse_presentation(text)
    except ParseError as exc:
        return repr((type(exc).__name__, str(exc), exc.line, exc.column))
    relations = [[(str(c), p.start, p.arrows) for c, p in rel.terms] for rel in pres.relations]
    return repr((pres.quiver.vertices, pres.quiver.arrows, relations))


# sha256 of the outcomes of the 10,000 corpus texts drawn from seed 20261021
PARSE_CORPUS_SHA256 = "9437020bdbc0b79a5dd0b1487163067c9547302234bcf491fab54facc3d00307"


def test_parse_outcomes_of_a_seeded_corpus():
    rng = random.Random(20261021)
    digest = hashlib.sha256()
    for _ in range(10_000):
        digest.update(_parse_outcome(_corpus_text(rng)).encode() + b"\n")
    assert digest.hexdigest() == PARSE_CORPUS_SHA256


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


MODEL_FIXTURES = ["a2", "a3", "a3_rel", "ex_2_5", "ex_4_5", "kronecker", "late_multiple",
                  "s2_cyclic", "s3_cycle", "s4_final"]


@pytest.mark.parametrize("name", MODEL_FIXTURES)
def test_registered_paths_minus_their_coordinates_lie_in_the_relations(name):
    """p − Σ c_k b_k, for the coordinates c of p over the basis paths b,
    reduces to zero against the echelonized relation multiples, where the
    path with index k sits at column −k."""
    model = load(name).model()
    for pair, paths in model.pair_paths.items():
        elim = model.elims.get(pair)
        for p in paths:
            vec = {-model.path_index[p.key()]: Fraction(1)}
            for c, b in zip(model.reduce_path(p), model.basis(*pair)):
                k = -model.path_index[b.key()]
                vec[k] = vec.get(k, 0) - c
            den = 1
            for x in vec.values():
                den = den * x.denominator // gcd(den, x.denominator)
            ivec = {k: int(x * den) for k, x in vec.items() if x}
            assert (elim.reduce(ivec) if elim else ivec) == {}, (name, str(p))


@pytest.mark.parametrize("name", MODEL_FIXTURES)
def test_path_coordinates_lie_on_basis_paths_registered_no_later(name):
    """The basis is the standard monomials: each relation row is led by its
    longest path, the one registered last in its pair, so every registered
    path is a combination of basis paths registered no later than it."""
    model = load(name).model()
    for pair, paths in model.pair_paths.items():
        basis = model.basis(*pair)
        for p in paths:
            i = model.path_index[p.key()]
            later = [str(b) for c, b in zip(model.reduce_path(p), basis)
                     if c and model.path_index[b.key()] > i]
            assert not later, (name, str(p), later)


def _paths(quiver, start, end):
    """Every path start -> end of an acyclic quiver, as a tuple of arrow names."""
    if start == end:
        return [()]
    return [(a.name,) + rest for a in quiver.out_arrows(start)
            for rest in _paths(quiver, a.target, end)]


def _rank(vectors):
    """Rank of rational vectors by Gaussian elimination on Fractions."""
    rows, rank = [list(v) for v in vectors], 0
    while rows:
        pivot = rows.pop()
        col = next((c for c, x in enumerate(pivot) if x), None)
        if col is None:
            continue
        rank += 1
        rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] for r in rows]
    return rank


def _random_acyclic(rng):
    """2–5 vertices, arrows (parallel ones too) from lower to higher vertices,
    and one to three relations of one to three parallel paths of length at
    least two, with rational coefficients; a relation of two or three terms
    takes a pair of vertices with paths of unequal lengths where one exists."""
    n = rng.randint(2, 5)
    vertices = [str(v) for v in range(n)]
    arrows = []
    for k in range(rng.randint(n - 1, 3 * n)):
        s = rng.randrange(n - 1)
        t = s + 1 if rng.random() < 0.5 else rng.randrange(s + 1, n)  # chains and shortcuts
        arrows.append((f"x{k}", vertices[s], vertices[t]))
    quiver = Quiver(vertices, arrows)
    long = {}
    for i in vertices:
        for j in vertices:
            words = [w for w in _paths(quiver, i, j) if len(w) >= 2]
            if words:
                long[i, j] = words
    mixed = sorted(pair for pair, words in long.items() if len({len(w) for w in words}) > 1)
    relations = []
    for _ in range(rng.randint(1, 3) if long else 0):
        terms = rng.randint(1, 3)
        i, j = rng.choice(mixed if terms > 1 and mixed else sorted(long))
        words = rng.sample(long[i, j], min(terms, len(long[i, j])))
        relations.append(Relation([(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)),
                                    Path(quiver, i, w)) for w in words]))
    return AlgebraPresentation(quiver, relations)


def test_path_classes_match_brute_force_on_random_acyclic_presentations():
    """dim e_i A e_j is the number of paths i -> j less the rank of every
    multiple p·r·q of a relation r inside them, computed from the paths alone
    and set against the size of the model's basis, pair by pair."""
    rng = random.Random(20261021)
    for _ in range(200):
        pres = _random_acyclic(rng)
        quiver, model = pres.quiver, pres.model()
        for i in quiver.vertices:
            for j in quiver.vertices:
                paths = _paths(quiver, i, j)
                column = {w: k for k, w in enumerate(paths)}
                multiples = []
                for rel in pres.relations:
                    for p in _paths(quiver, i, rel.source):
                        for q in _paths(quiver, rel.target, j):
                            vec = [Fraction(0)] * len(paths)
                            for c, term in rel.terms:
                                vec[column[p + term.arrows + q]] += c
                            multiples.append(vec)
                assert len(model.basis(i, j)) == len(paths) - _rank(multiples), \
                    (i, j, [str(r) for r in pres.relations])


def _zero_class(model, path) -> bool:
    return not any(model.reduce_path(path))


def test_late_multiple_fixture_matches_its_monomial_form():
    """x*y dies only by the multiple x*y - u*v*w*z, generated after the
    enumeration stops at length 3; it gives the algebra of relation x*y."""
    pres = load("late_multiple")
    text = fixture_text("late_multiple").replace("relation x*y - u*v*w*z", "relation x*y")
    monomial = parse_presentation(text)
    assert pres.model().stop_len == 3
    for v in (pres, monomial):
        report = validate_admissible(v)
        assert (report.algebra_dim, report.nilpotency_degree) == (15, 3)
    for i in pres.quiver.vertices:
        for j in pres.quiver.vertices:
            assert ([str(p) for p in path_basis(pres, i, j)]
                    == [str(p) for p in path_basis(monomial, i, j)]), (i, j)
    assert ar_quiver(pres).to_json_dict() == ar_quiver(monomial).to_json_dict()


PXY = ("vertex 0 1 2 3 4 5 6\narrow p 0 1\narrow x 1 2\narrow y 2 6\narrow u 1 3\n"
       "arrow v 3 4\narrow w 4 5\narrow z 5 6\nrelation u*v\nrelation x*y - u*v*w*z\n")


def test_a_late_multiple_kills_a_path_through_a_late_zero():
    """x*y is zero by a multiple of total length 4; p*x*y, registered at
    length 3, is zero by the late multiple p·(x*y - u*v*w*z) alone."""
    pres = parse_presentation(PXY)
    model = pres.model()
    assert _zero_class(model, Path(pres.quiver, "1", ("x", "y")))
    assert _zero_class(model, Path(pres.quiver, "0", ("p", "x", "y")))
    assert model.dim_algebra() == 19


def test_a_registered_path_with_a_zero_subword_has_zero_class():
    """The relation multiples alone close the ideal under multiplication:
    no pass kills the paths through a zero subword."""
    rng = random.Random(20261021)
    drawn = [_random_acyclic(rng) for _ in range(200)]
    for pres in [load(name) for name in MODEL_FIXTURES] + [parse_presentation(PXY)] + drawn:
        quiver, model = pres.quiver, pres.model()
        zero = {p.key() for paths in model.pair_paths.values() for p in paths
                if _zero_class(model, p)}
        for paths in model.pair_paths.values():
            for p in paths:
                at = [p.start] + [quiver.arrow(a).target for a in p.arrows]
                inner = {(at[k], p.arrows[k:m]) for k in range(p.length)
                         for m in range(k + 1, p.length + 1)}
                assert not inner & zero or p.key() in zero, str(p)


def test_path_coordinates_are_normal():
    """Every coordinate is an int or a Fraction that is not an integer."""
    pres = parse_presentation("vertex 1 2 3 4\narrow a 1 2\narrow b 2 4\narrow c 1 3\n"
                              "arrow d 3 4\nrelation 3/2*a*b - c*d\n")
    model = pres.model()
    assert model.reduce_path(Path(pres.quiver, "1", ("c", "d"))) == [Fraction(3, 2)]
    assert model.reduce_path(Path(pres.quiver, "1", ("a", "b"))) == [1]
    for pres in [pres] + [load(name) for name in MODEL_FIXTURES]:
        model = pres.model()
        for paths in model.pair_paths.values():
            for p in paths:
                for x in model.reduce_path(p):
                    assert type(x) is int or x.denominator != 1, (str(p), x)


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
    assert len(zero_branch.vertices) == 2 and (g.j, g.t) == (1, 2)
    assert sorted(len(shape.branches[i].vertices) for i in g.commutative_pair) == [1, 1]


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
