"""Smoke tests: the fast examples must run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

# Each fast example and a line its stdout must contain.  The temporal one
# prints "temporal violations  : 1" by design: one imputed record falls to
# the per-record fallback tier, which drops the temporal rules.
EXPECTED = {
    "quickstart.py": "compliant: True",
    "temporal_sequences.py": "per-record violations: 0",
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert EXPECTED[script] in result.stdout
