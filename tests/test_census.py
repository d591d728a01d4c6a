"""Census of the package: every function in ``src/quivrad`` is entered by a
CLI call, or listed in ``KEEP`` with the reason it stays.

The census runs ``quivrad.cli.main`` in this process under ``sys.setprofile``
on the fixtures in ``tests/data``: every subcommand in each output format,
``index`` with every method (an unlicensed one is refused before any
knitting), and three refusals (a missing file, a malformed file, and a
length cap that does not certify admissibility).  ``ex_2_5`` is left out:
it enters no function that the smaller fixtures miss, and under the profiler
it takes as long as all of them together.

A function is a ``def`` in the package source, methods and nested functions
included; lambdas and comprehensions count as part of the function around
them.  It is entered when a frame of its code starts.  Every function must be
entered or listed in ``KEEP``, and every ``KEEP`` entry must name a function
that exists and is not entered.  So a helper no CLI call reaches, added or
left behind, fails this test until it is deleted, moved under ``tests/`` or
given a reason here.
"""
import ast
import contextlib
import inspect
import io
import os
import sys
from pathlib import Path

import quivrad
from quivrad.cli import main

from conftest import DATA

_PERFBENCH = "read by perfbench/child.py"
_TRACED = "wrapped by perfbench/tracing.py, which reports a missing name as absent (span 0)"
_CHECKED = "runs only with check=True, which validates input built outside the package"
_VALUE = "operator of a value type"
_PREDICATE = "predicate of a value type, like Representation.is_zero on the CLI path"
_REPR = "repr of a value type, for debugging and test failures"
_FROZEN = "guard of an immutable value type: refuses attribute assignment"

# "module.qualified name" -> why the function stays although no CLI call enters it
KEEP = {
    "artrans.ARQuiver.reps": _PERFBENCH + " (artrans.total_dim)",
    "linalg.RatMatrix.__add__": _VALUE,
    "linalg.RatMatrix.__eq__": _VALUE,
    "linalg.RatMatrix.__hash__": _VALUE,
    "linalg.RatMatrix.__neg__": _VALUE,
    "linalg.RatMatrix.__repr__": _REPR,
    "linalg.RatMatrix.__setattr__": _FROZEN,
    "linalg.RatMatrix.__sub__": _VALUE,
    "linalg.RatMatrix.is_zero": _PREDICATE,
    "linalg.Subspace.__add__": _VALUE,
    "linalg.Subspace.__hash__": _VALUE,
    "linalg.Subspace.__repr__": _REPR,
    "linalg.Subspace.__setattr__": _FROZEN,
    "quiver.AlgebraPresentation.__repr__": _REPR,
    "quiver.Path.__eq__": _VALUE,
    "quiver.Path.__hash__": _VALUE,
    "quiver.Path.__repr__": _REPR,
    "quiver.Quiver.__repr__": _REPR,
    "quiver.Relation.__repr__": _REPR,
    "radical.RadicalFiltration.ensure_depth": _TRACED,
    "rep.HomSpace.__repr__": _REPR,
    "rep.ModuleMorphism.__add__": _VALUE,
    "rep.ModuleMorphism.__repr__": _REPR,
    "rep.ModuleMorphism.__sub__": _VALUE,
    "rep.ModuleMorphism._intertwines": _CHECKED,
    "rep.ModuleMorphism.is_zero": _PREDICATE,
    "rep.ModuleMorphism.zero": "returned by HomSpace.element at zero coordinates and "
                               "by find_isomorphism between zero modules",
    "rep.Representation.__repr__": _REPR,
    "rep.Representation.path_matrix": _CHECKED,
    "rep.Representation.relation_defect": _CHECKED,
    "rep.are_isomorphic": _TRACED,
    "theorems._each_arrow": "called at import to build CHECKERS, before the census starts",
}

_METHODS = ("direct", "v-set", "zero-relations", "one-per-relation", "toupie")
COMMANDS = (
    ("validate",), ("validate", "--format", "json"),
    ("ar",), ("ar", "--dot", "-", "--json", "-"),
    ("index",), ("check",), ("check", "--format", "json"),
    *(("index", "--method", m, "--format", "json", "--no-verify") for m in _METHODS),
)
EXTRA_ARGS = {"kronecker": ("--max-total-dim", "400")}  # a short refusal
SKIPPED = ("ex_2_5",)


def package_functions() -> dict:
    """(real source path, qualified name) -> "module.qualified name" for every def."""
    out = {}
    for path in sorted(Path(quivrad.__file__).parent.glob("*.py")):
        real = os.path.realpath(path)
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_qualname"):
                    stack.append(const)
                    # a class body is walked for its methods but is no function
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        out[(real, const.co_qualname)] = f"{path.stem}.{const.co_qualname}"
    return out


def census_argvs(tmp_path) -> list:
    argvs = []
    for path in sorted(DATA.glob("*.quiver")):
        if path.stem in SKIPPED:
            continue
        for command in COMMANDS:
            extra = () if command[0] == "validate" else EXTRA_ARGS.get(path.stem, ())
            argvs.append([command[0], str(path), *command[1:], *extra])
    malformed = tmp_path / "malformed.quiver"
    malformed.write_text("vertex 1\nbogus\n")
    argvs += [["validate", str(tmp_path / "missing.quiver")], ["validate", str(malformed)],
              ["validate", str(DATA / "s2_cyclic.quiver"), "--max-len", "2"]]
    return argvs


def run_census(argvs) -> set:
    """The code objects whose frames start while ``main`` runs each argv.

    The package's ``lru_cache`` functions, at module level or on a class
    (under ``classmethod`` or ``staticmethod``), are cleared first: one that
    an earlier run filled would otherwise answer without being entered.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("quivrad."):
            for value in vars(module).values():
                own_class = isinstance(value, type) and value.__module__ == name
                for member in (value, *(vars(value).values() if own_class else ())):
                    member = getattr(member, "__func__", member)  # classmethod, staticmethod
                    if hasattr(member, "cache_clear"):
                        member.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                main(argv)
    finally:
        sys.setprofile(None)
    return seen


def entered_functions(argvs) -> set:
    """The "module.qualified name" of every package function the census enters."""
    functions = package_functions()
    entered = {(os.path.realpath(c.co_filename), c.co_qualname) for c in run_census(argvs)}
    return {functions[key] for key in entered if key in functions}


def test_every_package_function_is_entered_or_kept(tmp_path):
    names = set(package_functions().values())
    entered_names = entered_functions(census_argvs(tmp_path))
    unreached = sorted(names - entered_names - set(KEEP))
    assert not unreached, f"no CLI call enters these; delete, move or KEEP them: {unreached}"
    gone = sorted(set(KEEP) - names)
    assert not gone, f"KEEP names functions that no longer exist: {gone}"
    reached = sorted(set(KEEP) & entered_names)
    assert not reached, f"KEEP names functions the CLI enters: {reached}"
    assert all(KEEP.values())


def test_census_clears_every_cache_it_would_answer_from():
    # the class-level caches are cleared before each run, whatever filled
    # them (an earlier test or the run before), so two runs enter the same
    # functions, the cached ones among them
    argvs = [["ar", str(DATA / "a2.quiver")], ["index", str(DATA / "a3_rel.quiver")]]
    first = entered_functions(argvs)
    assert entered_functions(argvs) == first
    assert {"linalg.RatMatrix.zeros", "linalg.RatMatrix.identity",
            "linalg.Subspace.zero", "linalg.Subspace.full"} <= first


LINALG_NAMES = {"Echelon", "RatMatrix", "Subspace"}


def test_elimination_stays_behind_linalg():
    """Outside ``linalg.py`` the package imports from linalg only the names
    in ``LINALG_NAMES``: its integer elimination steps stay private to it."""
    for path in sorted(Path(quivrad.__file__).parent.glob("*.py")):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = {alias.name for alias in node.names}
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and node.level:
                module = ".".join(filter(None, ("quivrad", module)))
            if module == "quivrad.linalg":
                assert names <= LINALG_NAMES, (path.name, sorted(names - LINALG_NAMES))
            else:  # no module object that would reach the rest of linalg
                assert not {"linalg", "quivrad.linalg"} & names, (path.name, node.lineno)
