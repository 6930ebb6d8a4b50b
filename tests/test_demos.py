"""Every script under demos/ runs to completion in a fresh interpreter,
and README's quick start prints what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclomag

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(cyclomag.__file__).resolve().parents[1])


def run_python(args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    done = run_python([str(demo)])
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_prints_its_comments():
    # The full-line comments of the block are its expected output.
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    done = run_python(["-c", block])
    assert done.returncode == 0, done.stderr
    assert expected and done.stdout.splitlines() == expected
