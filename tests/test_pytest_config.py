"""The repository's pytest configuration keeps failure reports readable.

``pyproject.toml`` turns every warning into an error, with one narrow
exception: Hypothesis's failure report touches the deprecated
``mypy_extensions.TypedDict``, and as an error that warning ends the run
in an INTERNALERROR before the falsifying example is printed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 5


def test_deprecation():
    warnings.warn("still an error", DeprecationWarning)
'''


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    # Every other warning is still an error.
    assert "2 failed" in result.stdout
    assert result.returncode == 1
