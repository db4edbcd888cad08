"""The repository's pytest settings let a failing Hypothesis test report."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_a_failing_given_test_prints_its_example_and_the_run_goes_on(tmp_path):
    # the warning filters turn DeprecationWarning into an error; one raised
    # inside Hypothesis's report hook would end the session with INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout, proc.stdout
    assert "Falsifying example: test_fails(" in proc.stdout, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
