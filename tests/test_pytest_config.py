"""The test configuration itself: a failing property must not end the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_passing_test():
    pass
'''


def test_a_failing_property_leaves_the_other_tests_running(tmp_path):
    """Under the project's warning filters, hypothesis's failure reporter imports libcst,
    whose import of mypy_extensions warns; as an error that ended the session."""
    (tmp_path / "test_probe.py").write_text(_PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
    assert run.returncode == 1
