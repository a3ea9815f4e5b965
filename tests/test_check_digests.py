"""tools/check_digests.py: a seed the reference does not hold is refused
before any run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_seed_absent_from_the_reference_exits_2_before_any_run():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "check_digests.py"),
                           "--seeds", "0,100000"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.strip() == "error: seeds [100000] are not in reference.json"
    assert proc.stdout == ""
