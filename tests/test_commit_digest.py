"""The digest that ``scripts/commit_digest.py`` prints, pinned.

The digest covers every result, verdict and op of a few thousand random
commits, so a change to what ``commit`` does changes it. Such a change
updates the pinned value here on purpose and says why.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The digest's NaN bound is one float object throughout, as ``json`` reads
# every NaN. A value equals another when identical or ``==``, so a column now
# matches itself with that bound instead of conflicting with itself. Before
# that rule, the digest was 34bc9ffd..., from the same 103 raised cases.
PINNED = "0f5ec3937d1eb842d7d2c8387dd07039e04968970391d35547831c11f2d1f141"


def test_commit_digest_is_pinned():
    script = ROOT / "scripts" / "commit_digest.py"
    argv = [sys.executable, str(script), "--src", str(ROOT / "src"), "--seed", "1", "--cases", "500"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"digest {PINNED}", "raised 103 of 500"]
