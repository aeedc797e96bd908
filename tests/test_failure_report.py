"""A failing property test is reported as a failure under the strict flags
the suite runs with, not as a crash of the test run."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5
'''


def test_a_failing_given_test_is_reported_as_a_failure(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_fail.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(TESTS.parent / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-W", "error",
         "-p", "no:cacheprovider", "test_fail.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_fail.py::test_fails - assert 5 < 5" in out
