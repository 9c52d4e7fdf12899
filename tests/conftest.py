import os
import subprocess
import sys
from pathlib import Path

import pytest

import hessneumann


@pytest.fixture
def fresh_python():
    """run(*args): ``python *args`` in a new interpreter that imports this hessneumann; returns the CompletedProcess.

    pytest's own warning filter (error::scipy.sparse.SparseEfficiencyWarning)
    imports scipy.sparse into the test process, and records warnings instead
    of printing them.  So which modules a command loads, and what it writes to
    stderr, can only be seen in a fresh interpreter.
    """
    src = str(Path(hessneumann.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    return run
