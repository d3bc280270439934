"""Every demo script runs to completion and prints its report."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cli_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=cli_env(), timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.strip()
