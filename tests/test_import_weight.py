"""Import weight: importing the package loads no heavy optional module.

``scipy.optimize`` takes about half a second to import and serves only the
min-max LP baseline, which imports it when it solves.  A module-level import
anywhere on the package's import graph would make every process pay for it:
benchmark set-up, the controller daemon, every runner worker and test
process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import sys
import repro
import repro.experiments.scenarios
print(sorted(name for name in sys.modules if name.startswith("scipy.optimize")))
"""


def test_importing_repro_does_not_load_scipy_optimize():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert completed.stdout.strip() == "[]", completed.stdout
