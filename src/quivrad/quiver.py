"""Quivers, paths, relations and bound-quiver presentations.

A presentation is a quiver plus admissible relations over the rationals.
Path order convention: a :class:`Path` stores its arrows in traversal order
(first-traversed arrow first), the reverse of the classical right-to-left
notation.  The DSL is traversal-ordered: ``alpha*beta`` means "alpha, then
beta".
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import InconsistencyError, NotAdmissibleError, ParseError
from .linalg import Echelon

DEFAULT_LENGTH_CAP = 64
DEFAULT_PATH_CAP = 200_000


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Quiver:
    """Finite quiver: vertex ids and named arrows, in declaration order."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ParseError("duplicate vertex id")
        self.arrows = tuple(Arrow(str(a[0]), str(a[1]), str(a[2])) for a in arrows)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ParseError("duplicate arrow id")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ParseError(f"arrow {a.name}: unknown vertex")
        self._by_name = {a.name: a for a in self.arrows}
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._out[a.source].append(a)
            self._in[a.target].append(a)

    def arrow(self, name: str) -> Arrow:
        return self._by_name[name]

    def has_arrow(self, name: str) -> bool:
        return name in self._by_name

    def out_arrows(self, v: str) -> list:
        return list(self._out[v])

    def in_arrows(self, v: str) -> list:
        return list(self._in[v])

    def out_degree(self, v: str) -> int:
        return len(self._out[v])

    def in_degree(self, v: str) -> int:
        return len(self._in[v])

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, [Arrow(a.name, a.target, a.source) for a in self.arrows])

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Path:
    """Composable arrow sequence, possibly trivial, stored in traversal order."""

    __slots__ = ("quiver", "start", "arrows", "end")

    def __init__(self, quiver: Quiver, start: str, arrows: Sequence[str] = ()):
        self.quiver = quiver
        self.start = str(start)
        self.arrows = tuple(arrows)
        if self.start not in quiver._vindex:
            raise ParseError(f"unknown vertex {self.start!r}")
        at = self.start
        for name in self.arrows:
            if not quiver.has_arrow(name):
                raise ParseError(f"unknown arrow {name!r}")
            a = quiver.arrow(name)
            if a.source != at:
                raise ParseError(f"arrows do not compose at {name!r}")
            at = a.target
        self.end = at

    @property
    def length(self) -> int:
        return len(self.arrows)

    def extend(self, arrow_name: str) -> "Path":
        return Path(self.quiver, self.start, self.arrows + (arrow_name,))

    def interior_vertices(self) -> tuple:
        """Vertices strictly between start and end, in traversal order."""
        out = []
        at = self.start
        for name in self.arrows[:-1]:
            at = self.quiver.arrow(name).target
            out.append(at)
        return tuple(out)

    def key(self):
        return (self.start, self.arrows)

    def __eq__(self, other):
        return isinstance(other, Path) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        return f"e_{self.start}" if not self.arrows else "*".join(self.arrows)

    def __repr__(self):
        return f"Path({self})"


class Relation:
    """Rational combination of parallel paths; one term = zero-relation."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence):
        ts = []
        for coeff, path in terms:
            c = Fraction(coeff)
            if c == 0:
                raise ParseError("relation term with zero coefficient")
            if path.length < 1:
                raise ParseError("relation term must contain at least one arrow")
            ts.append((c, path))
        if not ts:
            raise ParseError("relation with no terms")
        src, tgt = ts[0][1].start, ts[0][1].end
        for _, p in ts[1:]:
            if p.start != src or p.end != tgt:
                raise ParseError("relation terms are not parallel")
        if len({p.key() for _, p in ts}) != len(ts):
            raise ParseError("relation repeats a path")
        self.terms = tuple(ts)

    @property
    def source(self) -> str:
        return self.terms[0][1].start

    @property
    def target(self) -> str:
        return self.terms[0][1].end

    def is_zero_relation(self) -> bool:
        return len(self.terms) == 1

    def max_term_length(self) -> int:
        return max(p.length for _, p in self.terms)

    def min_term_length(self) -> int:
        return min(p.length for _, p in self.terms)

    def __str__(self):
        bits = []
        for i, (c, p) in enumerate(self.terms):
            sign = "-" if c < 0 else ("+" if i else "")
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            bits.append(f"{sign} {coef}{p}".strip())
        return " ".join(bits)

    def __repr__(self):
        return f"Relation({self})"


class AlgebraPresentation:
    """Bound quiver algebra kQ/I over the rationals."""

    def __init__(self, quiver: Quiver, relations: Sequence[Relation]):
        self.quiver = quiver
        self.relations = tuple(relations)
        self._model: Optional[_QuotientModel] = None
        self._opposite: Optional[AlgebraPresentation] = None
        self._cache: dict = {}

    def opposite(self) -> "AlgebraPresentation":
        if self._opposite is None:
            q = self.quiver.opposite()
            rels = []
            for r in self.relations:
                terms = []
                for c, p in r.terms:
                    terms.append((c, Path(q, p.end, tuple(reversed(p.arrows)))))
                rels.append(Relation(terms))
            op = AlgebraPresentation(q, rels)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def model(self, max_len: Optional[int] = None) -> "_QuotientModel":
        """The path-class model, built once; ``max_len`` only certifies it.

        A cap raises NotAdmissibleError when paths of that length survive.
        With no cap, a model built before is returned as it is, and a new one
        is built at the cap of the opposite side's model, else at
        DEFAULT_LENGTH_CAP.
        """
        model = self._model
        if model is None:
            if max_len is None:
                twin = self._opposite._model if self._opposite is not None else None
                max_len = twin.max_len if twin is not None else DEFAULT_LENGTH_CAP
            model = self._model = _QuotientModel(self, max_len)
        elif max_len is not None and model.stop_len > max_len:
            raise _survivors(max_len)
        return model

    def __repr__(self):
        return f"AlgebraPresentation({self.quiver!r}, {len(self.relations)} relations)"


# ---------------------------------------------------------------------------
# DSL parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<id>[A-Za-z_]\w*)|(?P<op>[*+-])|(?P<bad>\S))")
_NAME_RE = re.compile(r"^\w+$")
_END = ("end", None, None)


def _parse_relation_expr(text: str, quiver: Quiver, lineno: int, col0: int) -> Relation:
    """Parse ``[sign] [coefficient *] arrow * ... * arrow`` terms joined by
    signs.  A token's column is col0 plus its offset, counted from 1; an
    unexpected character is placed where its failed token match began."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}",
                             lineno, col0 + m.start() + 1)
        tokens.append((kind, m.group(kind), col0 + m.start(kind) + 1))
    if not tokens:
        raise ParseError("relation without terms", lineno, col0)
    tokens.append(_END)
    terms = []
    i = 0
    while tokens[i] is not _END:
        kind, val, col = tokens[i]
        coeff = Fraction(1)
        if kind == "op" and val in "+-":
            i += 1
            if tokens[i] is _END:
                raise ParseError("dangling sign in relation", lineno, col)
            coeff = Fraction(-1 if val == "-" else 1)
            kind, val, col = tokens[i]
        elif terms:
            raise ParseError(f"expected '+' or '-', got {val!r}", lineno, col)
        if kind == "num":
            try:
                coeff *= Fraction(val)
            except ZeroDivisionError:
                raise ParseError(f"coefficient {val} has denominator zero", lineno, col) from None
            if tokens[i + 1][:2] != ("op", "*"):
                raise ParseError("coefficient must be followed by '*'", lineno, col)
            if tokens[i + 2] is _END:
                raise ParseError("coefficient without a path", lineno, col)
            i += 2
            kind, val, col = tokens[i]
        if kind != "id":
            raise ParseError(f"expected arrow name, got {val!r}", lineno, col)
        names = [val]
        i += 1
        while tokens[i][:2] == ("op", "*") and tokens[i + 1][0] == "id":
            names.append(tokens[i + 1][1])
            i += 2
        for name in names:
            if not quiver.has_arrow(name):
                raise ParseError(f"unknown arrow {name!r}", lineno, col)
        try:
            terms.append((coeff, Path(quiver, quiver.arrow(names[0]).source, names)))
        except ParseError as exc:
            raise ParseError(str(exc), lineno, col) from None
    try:
        return Relation(terms)
    except ParseError as exc:
        raise ParseError(str(exc), lineno, col0) from None


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse DSL source into a presentation.

    Grammar (one statement per line, ``#`` starts a comment)::

        vertex 1 2 3
        arrow alpha 1 2
        relation alpha*beta*alpha            # zero-relation
        relation b1*b2 - g1*g2               # commutativity
        relation 3/2*p - q                   # rational coefficients

    Paths are written in traversal order; arrow names are identifiers,
    vertex ids are any word tokens.
    """
    vertices: list = []
    arrows: list = []
    pending_relations: list = []  # (lineno, col, text) parsed after the quiver is known
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        parts = stripped.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if keyword == "vertex":
            names = rest.split()
            if not names:
                raise ParseError("vertex statement without ids", lineno, indent + 1)
            for n in names:
                if not _NAME_RE.match(n):
                    raise ParseError(f"bad vertex id {n!r}", lineno, indent + 1)
                if n in vertices:
                    raise ParseError(f"duplicate vertex {n!r}", lineno, indent + 1)
                vertices.append(n)
        elif keyword == "arrow":
            names = rest.split()
            if len(names) != 3:
                raise ParseError("arrow statement needs: name source target", lineno, indent + 1)
            name, src, tgt = names
            if not re.match(r"^[A-Za-z_]\w*$", name):
                raise ParseError(f"arrow name {name!r} must be an identifier", lineno, indent + 1)
            if any(a[0] == name for a in arrows):
                raise ParseError(f"duplicate arrow {name!r}", lineno, indent + 1)
            if src not in vertices:
                raise ParseError(f"unknown vertex {src!r}", lineno, indent + 1)
            if tgt not in vertices:
                raise ParseError(f"unknown vertex {tgt!r}", lineno, indent + 1)
            arrows.append(Arrow(name, src, tgt))
        elif keyword == "relation":
            col0 = line.find(rest, indent) if rest else indent + len(keyword)
            pending_relations.append((lineno, col0, rest))
        else:
            raise ParseError(f"unknown statement {keyword!r}", lineno, indent + 1)
    quiver = Quiver(vertices, arrows)
    relations = [
        _parse_relation_expr(rtext, quiver, lineno, col)
        for lineno, col, rtext in pending_relations
    ]
    return AlgebraPresentation(quiver, relations)


# ---------------------------------------------------------------------------
# Quotient model: path classes modulo the relation ideal

def _survivors(max_len: int) -> NotAdmissibleError:
    return NotAdmissibleError(
        f"paths of length {max_len} still survive: ideal not "
        f"certified admissible within the cap (possibly infinite-dimensional)")


class _QuotientModel:
    """Path classes of kQ/I by bounded enumeration and echelonized multiples.

    The paths of each pair of vertices are registered in length-major order,
    and the one with index k is column −k of the pair's ``Echelon`` of
    relation multiples, so each row is led by its longest path, the one
    registered last.  A path is extended only while its class is nonzero, so
    an unregistered path has a zero prefix and a zero class.

    The multiples p·r·q are the one kill rule: each is restricted to the
    registered paths and added to its pair's ``Echelon``, those of total
    length n when the paths of length n are registered, and after the
    enumeration the late ones up to ``stop_len`` plus the largest spread of
    term lengths in a relation.  Their span then holds every registered path
    of the ideal; CHANGES.md gives the proof, and the ``late_multiple``
    fixture needs the late ones.  The rows are reduced once; a pair's basis
    is its paths that lead no row (the standard monomials), and
    ``reduce_path`` reads a leading path's class off its row.

    ``stop_len`` is the first length at which no path survives; a cap at or
    above it certifies the model.
    """

    def __init__(self, pres: AlgebraPresentation, max_len: int = DEFAULT_LENGTH_CAP):
        self.pres = pres
        self.max_len = max_len
        self.pair_paths: dict = {}   # (i, j) -> [Path, ...] discovery (length-major) order
        self.path_index: dict = {}   # (start, arrows) -> index within its pair
        self.elims: dict = {}        # (i, j) -> Echelon, path index k at column -k
        self._by_len_end: dict = {}  # (length, end vertex) -> [Path]
        self._by_len_start: dict = {}
        self.nilpotency_degree = None
        self.stop_len = None
        self._basis: dict = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _register(self, path: Path) -> None:
        pair = (path.start, path.end)
        lst = self.pair_paths.setdefault(pair, [])
        self.path_index[path.key()] = len(lst)
        lst.append(path)
        self._by_len_end.setdefault((path.length, path.end), []).append(path)
        self._by_len_start.setdefault((path.length, path.start), []).append(path)

    def _generate_multiples(self, total: int) -> None:
        """Add all q·r·p with len(p)+len(q)+max_term(r) == total."""
        for rel in self.pres.relations:
            m = rel.max_term_length()
            src, tgt = rel.source, rel.target
            d = lcm(*(c.denominator for c, _ in rel.terms))
            coeffs = [int(c * d) for c, _ in rel.terms]  # cleared to integers
            for lp in range(0, total - m + 1):
                lq = total - m - lp
                ps = self._by_len_end.get((lp, src), ())
                qs = self._by_len_start.get((lq, tgt), ())
                if not ps or not qs:
                    continue
                for p in ps:
                    for q in qs:
                        ivec: dict = {}
                        for c, (_, tpath) in zip(coeffs, rel.terms):
                            key = (p.start, p.arrows + tpath.arrows + q.arrows)  # p·tpath·q
                            idx = self.path_index.get(key)
                            if idx is not None:
                                ivec[-idx] = ivec.get(-idx, 0) + c
                        if any(ivec.values()):
                            pair = (p.start, q.end)
                            self.elims.setdefault(pair, Echelon()).add(ivec)

    def _class_nonzero(self, path: Path) -> bool:
        pair = (path.start, path.end)
        elim = self.elims.get(pair)
        if elim is None:
            return True
        idx = self.path_index[path.key()]
        return bool(elim.reduce({-idx: 1}))

    def _build(self) -> None:
        for rel in self.pres.relations:
            for _, p in rel.terms:
                if p.length < 2:
                    raise NotAdmissibleError(
                        f"relation term {p} has length {p.length} < 2; "
                        "the ideal is not inside the square of the arrow ideal")
        frontier = []
        for v in self.pres.quiver.vertices:
            p = Path(self.pres.quiver, v)
            self._register(p)
            frontier.append(p)
        length = 0
        spread = max((r.max_term_length() - r.min_term_length() for r in self.pres.relations),
                     default=0)
        while True:
            length += 1
            if length > self.max_len:
                raise _survivors(self.max_len)
            new = []
            for p in frontier:
                for a in self.pres.quiver.out_arrows(p.end):
                    q = p.extend(a.name)
                    self._register(q)
                    new.append(q)
            if len(self.path_index) > DEFAULT_PATH_CAP:
                raise NotAdmissibleError("path enumeration exceeded the path cap")
            self._generate_multiples(length)
            frontier = [p for p in new if self._class_nonzero(p)]
            if not frontier:
                break
        self.stop_len = length
        for extra in range(length + 1, length + spread + 1):
            self._generate_multiples(extra)
        for elim in self.elims.values():
            elim.reduced()
        # late multiples may kill more; a path dead at its check stays dead
        self.nilpotency_degree = 1 + max(
            (p.length for paths in self.pair_paths.values() for p in paths
             if self._class_nonzero(p)), default=0)
        for pair, paths in self.pair_paths.items():
            elim = self.elims.get(pair)
            pivots = elim.rows if elim else {}
            self._basis[pair] = [p for i, p in enumerate(paths) if -i not in pivots]

    # -- queries -------------------------------------------------------------

    def basis(self, i: str, j: str) -> list:
        return list(self._basis.get((str(i), str(j)), ()))

    def dim_algebra(self) -> int:
        return sum(len(b) for b in self._basis.values())

    def longest_path_length(self) -> int:
        return self.nilpotency_degree - 1

    def reduce_path(self, path: Path) -> list:
        """Coordinates of a path's class over basis(start, end); [] if dead pair."""
        pair = (path.start, path.end)
        basis = self._basis.get(pair, [])
        coords = [0] * len(basis)
        idx = self.path_index.get(path.key())
        if idx is None:
            # an unregistered path has a dead prefix, hence zero class
            return coords
        elim = self.elims.get(pair)
        residue = elim.solved(-idx) if elim and -idx in elim.rows else {-idx: 1}
        pos = {-self.path_index[p.key()]: k for k, p in enumerate(basis)}
        for c, v in residue.items():
            if c not in pos:
                raise InconsistencyError("path residue escaped the quotient basis")
            coords[pos[c]] = v
        return coords


# ---------------------------------------------------------------------------
# Operations

@dataclass(frozen=True)
class AdmissibilityReport:
    nilpotency_degree: int       # least N with all length-N path classes zero
    longest_path_length: int
    algebra_dim: int
    relation_count: int


def validate_admissible(pres: AlgebraPresentation, max_len: int = DEFAULT_LENGTH_CAP) -> AdmissibilityReport:
    """Certify the ideal admissible by bounded enumeration.

    Raises NotAdmissibleError when a relation term is shorter than two arrows
    or when paths of length ``max_len`` still have nonzero classes.
    """
    model = pres.model(max_len)
    return AdmissibilityReport(
        nilpotency_degree=model.nilpotency_degree,
        longest_path_length=model.longest_path_length(),
        algebra_dim=model.dim_algebra(),
        relation_count=len(pres.relations),
    )


def path_basis(pres: AlgebraPresentation, i: str, j: str,
               max_len: Optional[int] = None) -> list:
    """Basis of paths i -> j modulo the ideal (standard monomials)."""
    return pres.model(max_len).basis(str(i), str(j))


def sinks_and_sources(quiver: Quiver):
    """(sinks, sources, complement) in declaration order."""
    sinks = tuple(v for v in quiver.vertices if quiver.out_degree(v) == 0)
    sources = tuple(v for v in quiver.vertices if quiver.in_degree(v) == 0)
    skip = set(sinks) | set(sources)
    middle = tuple(v for v in quiver.vertices if v not in skip)
    return sinks, sources, middle


def zero_relation_interiors(pres: AlgebraPresentation) -> list:
    """[(k, interior vertices)] per zero-relation, k its index among the relations."""
    return [(k, rel.terms[0][1].interior_vertices())
            for k, rel in enumerate(pres.relations) if rel.is_zero_relation()]


def zero_relation_vertices(pres: AlgebraPresentation) -> tuple:
    """Vertices involved in zero-relations: interior start vertices s(α_i), i ≥ 2."""
    involved = {v for _, inner in zero_relation_interiors(pres) for v in inner}
    return tuple(v for v in pres.quiver.vertices if v in involved)


@dataclass(frozen=True)
class Branch:
    vertices: tuple      # interior vertices, source/sink excluded
    arrows: tuple        # arrow names source -> ... -> sink


@dataclass(frozen=True)
class GrafoPattern:
    """The three-branch shape with one zero-relation and one commutativity pair."""
    zero_branch: int         # index into ToupieShape.branches
    commutative_pair: tuple  # the two other branch indices
    j: int                   # zero-relation is arrows j .. j+t of the zero branch (1-based)
    t: int

    @property
    def involved_vertices(self):
        return tuple(range(self.j, self.j + self.t))  # z-indices j .. j+t-1


@dataclass(frozen=True)
class ToupieShape:
    branches: tuple          # of Branch
    grafo: Optional[GrafoPattern]


@dataclass(frozen=True)
class Classification:
    is_monomial: bool
    toupie: Optional[ToupieShape]


def _toupie_branches(quiver: Quiver) -> Optional[tuple]:
    """The branches of a toupie quiver, one per arrow out of its source, or None."""
    sinks, sources, _ = sinks_and_sources(quiver)
    if len(sinks) != 1 or len(sources) != 1 or sinks[0] == sources[0]:
        return None
    a, b = sources[0], sinks[0]
    for v in quiver.vertices:
        if v in (a, b):
            continue
        if quiver.in_degree(v) != 1 or quiver.out_degree(v) != 1:
            return None
    branches = []
    for first in quiver.out_arrows(a):
        names = [first.name]
        interior = []
        at = first.target
        while at != b:
            interior.append(at)
            nxt = quiver.out_arrows(at)
            if len(nxt) != 1:
                return None
            names.append(nxt[0].name)
            at = nxt[0].target
        branches.append(Branch(tuple(interior), tuple(names)))
    covered = {a, b} | {v for br in branches for v in br.vertices}
    if covered != set(quiver.vertices):
        return None
    if len(branches) < 2:
        return None  # linear quivers are not toupie
    return tuple(branches)


def _match_grafo(pres: AlgebraPresentation, branches: tuple) -> Optional[GrafoPattern]:
    if len(branches) != 3 or len(pres.relations) != 2:
        return None
    comm = [r for r in pres.relations if len(r.terms) == 2]
    zero = [r for r in pres.relations if r.is_zero_relation()]
    if len(comm) != 1 or len(zero) != 1:
        return None
    # the commutativity relation must equate two full branch paths
    (c1, p1), (c2, p2) = comm[0].terms
    if c1 + c2 != 0:
        return None
    full = {br.arrows: i for i, br in enumerate(branches)}
    i1 = full.get(p1.arrows)
    i2 = full.get(p2.arrows)
    if i1 is None or i2 is None or i1 == i2:
        return None
    # the zero-relation must be a consecutive subpath of the remaining branch
    rest = ({0, 1, 2} - {i1, i2}).pop()
    arrows = branches[rest].arrows
    zarrows = zero[0].terms[0][1].arrows
    for off in range(len(arrows) - len(zarrows) + 1):
        if arrows[off:off + len(zarrows)] == zarrows:
            return GrafoPattern(zero_branch=rest, commutative_pair=(i1, i2), j=off + 1,
                                t=len(zarrows) - 1)
    return None


def classify(pres: AlgebraPresentation) -> Classification:
    """Monomial test plus toupie-shape detection (grafo fields when they apply)."""
    monomial = all(r.is_zero_relation() for r in pres.relations)
    branches = _toupie_branches(pres.quiver)
    shape = None if branches is None else ToupieShape(branches, _match_grafo(pres, branches))
    return Classification(is_monomial=monomial, toupie=shape)
