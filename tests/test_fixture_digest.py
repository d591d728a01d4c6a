"""The CLI output on every fixture against the committed digest listing."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fixture_digest_matches_the_committed_listing():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "fixture_digest.py")],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    expected = (ROOT / "tools" / "fixture_digest.expected").read_text()
    assert done.stdout.splitlines() == expected.splitlines()
