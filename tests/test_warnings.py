"""The warning filters of pyproject.toml: numpy deprecations fail a test, and a falsified example is still reported."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from diswot import rankstats

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class _DeprecatedAsarray:
    """numpy, except that asarray goes through np.row_stack, an alias numpy deprecates."""

    def __getattr__(self, name):
        return getattr(np, name)

    def asarray(self, x, dtype=None):
        return np.row_stack([np.asarray(x, dtype=dtype)])[0]


def test_numpy_deprecation_in_package_code_is_an_error(monkeypatch):
    # The ignore entry names only the libcst import's message, so a numpy
    # DeprecationWarning raised while diswot code runs still fails the test.
    monkeypatch.setattr(rankstats, "np", _DeprecatedAsarray())
    with pytest.raises(DeprecationWarning, match="row_stack"):
        rankstats.kendall_tau([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])


def test_falsified_example_is_reported(tmp_path):
    # Hypothesis writes a failing test's patch through libcst, whose import
    # warns DeprecationWarning; under the filters the session must still
    # print the falsifying example and run the tests after it.
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("without libcst hypothesis writes no patch")
    (tmp_path / "test_inner.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers(0, 100))
        def test_fails(n):
            assert n < 50

        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
