"""Digest of the CLI output on every fixture in tests/data.

Runs ``validate --format json``, ``ar --json``, ``ar --dot``, the text
``ar``, ``index --format json``, the text ``index``,
``check --theorem all --format json`` and the text ``check`` on each
``tests/data/*.quiver``, one fresh interpreter per call, and prints one line
per call:

    <fixture> <command> exit=<code> sha256=<hex digest of stdout> err=<hex digest of stderr>

Two checkouts produce identical output exactly when every call gives the
same exit code and byte-identical stdout and stderr, so diffing the output
of two runs checks that a change left the CLI's results alone, its refusal
and error messages included.  The Kronecker fixture is
representation-infinite and its knitting commands run at
``--max-total-dim 400``, a smaller guard than the default, so that its
refusals stay short.  ``validate`` knits nothing and takes no guard options.

Usage, from anywhere:

    python3 tools/fixture_digest.py > digest.txt

``tools/fixture_digest.expected`` is the committed listing for the current
code; from the root of the checkout,

    python3 tools/fixture_digest.py | diff tools/fixture_digest.expected -

prints nothing exactly when every result is unchanged.

It imports quivrad from the ``src/`` directory of the checkout that holds
this script, and uses only the standard library.  The whole run takes about
30 seconds on a 2-core machine; ``tests/test_fixture_digest.py`` runs it.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
COMMANDS = (
    ("validate", ["validate", "--format", "json"]),
    ("ar", ["ar", "--json"]),
    ("ar-dot", ["ar", "--dot"]),
    ("ar-text", ["ar"]),
    ("index", ["index", "--format", "json"]),
    ("index-text", ["index"]),
    ("check", ["check", "--theorem", "all", "--format", "json"]),
    ("check-text", ["check"]),
)
EXTRA_ARGS = {"kronecker.quiver": ["--max-total-dim", "400"]}
RUNNER = "import sys; from quivrad.cli import main; sys.exit(main(sys.argv[1:]))"


def digest(fixture: Path, argv: list) -> tuple:
    """(exit code, sha256 of stdout, sha256 of stderr) of one CLI call in a
    fresh process."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    extra = [] if argv[0] == "validate" else EXTRA_ARGS.get(fixture.name, [])
    args = [argv[0], str(fixture)] + argv[1:] + extra
    proc = subprocess.run([sys.executable, "-c", RUNNER] + args, cwd=ROOT, env=env,
                          capture_output=True, check=False)
    return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest())


def main() -> int:
    fixtures = sorted(DATA.glob("*.quiver"))
    if not fixtures:
        print(f"no fixtures under {DATA}", file=sys.stderr)
        return 2
    for fixture in fixtures:
        for name, argv in COMMANDS:
            code, out, err = digest(fixture, argv)
            print(f"{fixture.name} {name} exit={code} sha256={out} err={err}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
