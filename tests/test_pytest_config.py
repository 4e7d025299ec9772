"""The suite's own pytest settings report a falsified hypothesis example as
one failure and go on to the next test."""

import shutil
import subprocess
import sys
from pathlib import Path

PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_falsified_example_is_reported_and_the_session_goes_on(tmp_path):
    # the repository's [tool.pytest.ini_options], run where .hypothesis/ and
    # .pytest_cache/ land in tmp_path
    shutil.copy(Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output
