"""What importing the package costs: numpy, and no scipy."""

import os
import subprocess
import sys
from pathlib import Path

import ringflow


def test_import_loads_no_scipy():
    # a fresh interpreter, because the test helpers import scipy here
    src = str(Path(ringflow.__file__).resolve().parents[1])
    code = ("import ringflow, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
