"""Every script under ``examples/`` runs to completion from a clean directory.

Each runs in a subprocess whose working directory is a fresh temporary
directory (``quickstart.py`` writes its PDB there), with ``src/`` on the
path the way the README runs them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert [path.name for path in EXAMPLES] == [
        "accelerator_speedup.py",
        "long_protein_memory.py",
        "quickstart.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
