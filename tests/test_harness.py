"""The test harness itself: a failing property test reports its example."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_plain_passes():
    pass
'''


def test_failing_property_prints_its_example_under_warnings_as_errors(tmp_path):
    # the tier-1 command's interpreter flags, on a suite of one failing
    # property test and one passing test next to this directory's conftest
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-rA",
         "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "PASSED test_property.py::test_plain_passes" in output
    assert "INTERNALERROR" not in output
