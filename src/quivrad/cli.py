"""Batch front end: validate, enumerate, compute, check, emit.

Exit codes: 0 ok, 1 I/O, 2 invalid presentation, 3 limits exceeded,
4 method inapplicable, 5 internal inconsistency (a verified rule was
contradicted; must never happen on valid input).
"""
from __future__ import annotations

import argparse
import json
import sys

from .artrans import EnumerationLimits, ar_quiver
from .errors import (
    InconsistencyError,
    LimitsExceededError,
    MethodInapplicableError,
    NotAdmissibleError,
    ParseError,
    QuivradError,
)
from .quiver import DEFAULT_LENGTH_CAP, parse_presentation, validate_admissible
from .radical import METHODS, gate_method, nilpotency_index
from . import theorems

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_LIMITS = 3
EXIT_INAPPLICABLE = 4
EXIT_INCONSISTENT = 5

VERIFY_SIZE_THRESHOLD = 64  # vertices + arrows; below this, --verify defaults on


def _read_presentation(args):
    """Parse ``args.file`` and certify it admissible at ``args.max_len``:
    (presentation, admissibility report)."""
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {args.file}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {args.file}: {exc}")
    pres = parse_presentation(text)
    return pres, validate_admissible(pres, max_len=args.max_len)


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _emit(text: str, path: str | None) -> None:
    """Write text, ending in a newline, to stdout (path None or "-") or to path."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliFailure(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}")


def _limits(args) -> EnumerationLimits:
    return EnumerationLimits(max_modules=args.max_modules,
                             max_total_dim=args.max_total_dim)


def cmd_validate(args) -> int:
    pres, report = _read_presentation(args)
    payload = {
        "admissible": True,
        "vertices": len(pres.quiver.vertices),
        "arrows": len(pres.quiver.arrows),
        "relations": report.relation_count,
        "algebra_dim": report.algebra_dim,
        "nilpotency_degree": report.nilpotency_degree,
        "longest_path_length": report.longest_path_length,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        lines = [f"{k}: {payload[k]}" for k in payload]
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_ar(args) -> int:
    if args.output is not None and (args.dot is not None or args.json is not None):
        raise _CliFailure(EXIT_INVALID, "-o/--output is for the text summary; "
                                        "give the DOT or JSON path to --dot or --json")
    pres, _ = _read_presentation(args)
    ar = ar_quiver(pres, _limits(args))
    wrote = False
    if args.dot is not None:
        _emit(ar.to_dot(), args.dot)
        wrote = True
    if args.json is not None:
        _emit(json.dumps(ar.to_json_dict(), indent=2, sort_keys=True), args.json)
        wrote = True
    if not wrote:
        arrows = ar.arrows()
        taus = len(ar.tau)
        _emit(f"indecomposables: {ar.node_count()}\narrows: {len(arrows)}\n"
              f"translate pairs: {taus}", args.output)
    return EXIT_OK


def cmd_index(args) -> int:
    pres, _ = _read_presentation(args)
    gate_method(pres, args.method)  # cheap preconditions before enumeration
    ar = ar_quiver(pres, _limits(args))
    report = nilpotency_index(ar.filtration, args.method)
    payload = report.to_json_dict()
    verify = args.verify
    if verify is None:
        verify = len(pres.quiver.vertices) + len(pres.quiver.arrows) <= VERIFY_SIZE_THRESHOLD
    if verify and args.method != "direct":
        direct = nilpotency_index(ar.filtration, "direct")
        payload["direct_r_A"] = direct.r_A
        if direct.r_A != report.r_A:
            raise _CliFailure(
                EXIT_INCONSISTENT,
                f"method {args.method} gave {report.r_A} but direct gives {direct.r_A}")
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        lines = [f"method: {payload['method']}", f"r_A: {payload['r_A']}"]
        if payload.get("per_vertex"):
            per = ", ".join(f"r_{a}={payload['per_vertex'][a]}"
                            for a in sorted(payload["per_vertex"]))
            lines.append(f"per-vertex: {per}")
        if "direct_r_A" in payload:
            lines.append(f"direct r_A: {payload['direct_r_A']} (agrees)")
        for note in report.notes:
            lines.append(f"note: {note}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def _findings_json(obj):
    if isinstance(obj, list):
        return [_findings_json(x) for x in obj]
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    return obj


def _findings_text(name: str, obj) -> list:
    lines = [f"[{name}]"]
    if isinstance(obj, dict) and "inapplicable" in obj:
        lines.append(f"  inapplicable: {obj['inapplicable']}")
        return lines
    if isinstance(obj, list):
        for item in obj:
            if isinstance(item, theorems.ComparisonFinding):
                lines.append(
                    f"  arrow {item.arrow} ({item.a}->{item.b}): {item.relation}"
                    f"  [r_{item.a}={item.r_a}, r_{item.b}={item.r_b}]")
            else:
                lines.append(f"  {json.dumps(item, sort_keys=True)}")
        return lines
    if isinstance(obj, theorems.ReductionCheck):
        rep = obj.report
        lines.append(f"  r_A = {rep.r_A} via {rep.method}; direct = {obj.direct_r_A}")
        for cert in obj.certificates:
            vals = ", ".join(f"r_{v}={cert.r_values[v]}" for v in cert.vertices)
            lines.append(f"  {cert.zero_relation}: {vals}")
        if obj.fallback:
            lines.append(f"  note: {obj.fallback}")
        return lines
    lines.append(f"  {obj}")
    return lines


def cmd_check(args) -> int:
    pres, _ = _read_presentation(args)
    filt = ar_quiver(pres, _limits(args)).filtration
    if args.theorem == "all":
        results = theorems.check_all(filt)
    else:  # an inapplicable rule propagates: exit 4
        results = {name: theorems.CHECKERS[name](filt)
                   for name in theorems.GROUPS.get(args.theorem, (args.theorem,))}
    if args.format == "json":
        payload = {k: _findings_json(v) for k, v in results.items()}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        lines = []
        for name in results:
            lines.extend(_findings_text(name, results[name]))
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type for a positive integer option (a guard limit or the
    length cap).  A non-integer gets argparse's own ``type=int`` wording."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivrad",
        description="Nilpotency index of the radical of the module category "
                    "of a representation-finite bound quiver algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, limits=True, formats=True):
        p.add_argument("file", help="presentation in the quiver DSL")
        if formats:
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument("--max-len", type=_positive_int, default=DEFAULT_LENGTH_CAP,
                       help="admissibility enumeration cap")
        if limits:
            p.add_argument("--max-modules", type=_positive_int, default=10_000)
            p.add_argument("--max-total-dim", type=_positive_int, default=10_000)

    p_val = sub.add_parser("validate", help="parse and certify admissibility")
    common(p_val, limits=False)
    p_val.set_defaults(fn=cmd_validate)

    p_ar = sub.add_parser("ar", help="enumerate indecomposables and emit the AR quiver")
    common(p_ar, formats=False)  # --dot and --json pick the format
    p_ar.add_argument("--dot", nargs="?", const="-", default=None,
                      help="write DOT (to stdout with no argument)")
    p_ar.add_argument("--json", nargs="?", const="-", default=None, dest="json",
                      help="write JSON (to stdout with no argument)")
    p_ar.set_defaults(fn=cmd_ar)

    p_idx = sub.add_parser("index", help="compute the nilpotency index")
    common(p_idx)
    p_idx.add_argument("--method", choices=METHODS, default="auto")
    verify = p_idx.add_mutually_exclusive_group()
    verify.add_argument("--verify", dest="verify", action="store_true", default=None,
                        help="cross-check the method against the direct index")
    verify.add_argument("--no-verify", dest="verify", action="store_false")
    p_idx.set_defaults(fn=cmd_index)

    p_chk = sub.add_parser("check", help="run the reduction-rule checkers")
    common(p_chk)
    p_chk.add_argument("--theorem", choices=("A", "corollary", "prop33", "B", "C", "D",
                                             "lemmas", "all"), default="all")
    p_chk.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliFailure as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"invalid presentation: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotAdmissibleError as exc:
        print(f"NotAdmissible: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LimitsExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_LIMITS
    except MethodInapplicableError as exc:
        print(f"MethodInapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except QuivradError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
