"""Each demo prints what its checked-in golden file holds, byte for byte.

The demos print at most 12 decimals, so their output does not depend on
the last bits of a float.  To refresh a golden file after a deliberate
change, run the demo and write its stdout to ``tests/golden/<demo>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.txt"))
    assert golden == [d.stem for d in DEMOS] and len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_golden_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text()
