"""The exact layers load without numpy; pga.dynamics loads on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pga

SRC = Path(__file__).resolve().parents[1] / "src"


def test_exact_layers_and_cli_do_not_import_numpy():
    code = "import pga, pga.cli, sys; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_dynamics_names_resolve_lazily():
    assert pga.build_hamiltonian is pga.dynamics.build_hamiltonian
    from pga import step_kernel

    assert step_kernel is pga.dynamics.step_kernel
    with pytest.raises(AttributeError):
        pga.no_such_name
