"""The quick demos run to completion.

`weighted_vs_bruteforce.py` takes several seconds and is left out to
keep the suite short.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("quickstart.py", "separability_diagnostic.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
