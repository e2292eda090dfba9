"""The repository's pytest settings: a failing test ends as one failure, not the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_lets_the_next_test_run(tmp_path):
    # on a failure the hypothesis plugin imports libcst to write a patch, and libcst's
    # mypy_extensions.TypedDict DeprecationWarning must not become an INTERNALERROR under
    # filterwarnings = ["error"], which would stop the session before test_passes
    (tmp_path / "test_session.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
         "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1], done.stdout
