import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_b_passing():
    pass
'''


def test_failing_property_does_not_stop_later_tests(tmp_path):
    # hypothesis's failure report imports libcst, which warns; the project's
    # warnings-as-errors setting must still let pytest report every test.
    path = tmp_path / "test_probe.py"
    path.write_text(FAILING_PROPERTY_THEN_PASSING_TEST, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout + result.stderr
