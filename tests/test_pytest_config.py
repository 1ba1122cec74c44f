"""The test harness itself: a failing property test fails one test.

``pyproject.toml`` turns every warning into an error.  A warning that a
pytest plugin raises while it reports a failure would then abort the whole
session with INTERNALERROR, naming no test and running none of the rest.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_passing_test():
    assert True
'''


def test_a_failing_property_test_fails_one_test_and_the_session_runs_on(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "-rf", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_property.py::test_a_failing_property" in out
    assert "1 failed, 1 passed" in out
