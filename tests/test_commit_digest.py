"""The digest that ``scripts/commit_digest.py`` prints, pinned.

The digest covers every result, verdict and op of a few thousand random
commits, so a change to what ``commit`` does changes it. Such a change
updates the pinned value here on purpose and says why.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = "34bc9ffdb57ce53a18142f219623268be3190ab3b87fb355e286871367654b5b"


def test_commit_digest_is_pinned():
    script = ROOT / "scripts" / "commit_digest.py"
    argv = [sys.executable, str(script), "--src", str(ROOT / "src"), "--seed", "1", "--cases", "500"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"digest {PINNED}", "raised 103 of 500"]
