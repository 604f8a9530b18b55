"""Import weight: importing the package or its services loads no scipy.

``scipy.optimize`` takes about half a second to import and serves only the
min-max LP baseline, which imports it when it solves; ``scipy.sparse``
costs about 20 MB of resident memory.  A module-level scipy import anywhere
on the package's import graph would make every process pay for it:
benchmark set-up, the controller daemon and its bus, every runner worker
and test process.
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
import repro.service.daemon
import repro.service.bus
import repro.runner
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_importing_repro_loads_no_scipy():
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
