"""Reference kernel: a fixed piece of CPU work timed beside the operations.

The machine this benchmark is meant for is shared: its speed drifts by 10-20%
over minutes as other tenants come and go, and a 20-second run cannot average
that out. Each operation's wall time is therefore also reported divided by
the kernel's time measured next to it (in the same process for the warm
workloads), which cancels most of the drift. The kernel mixes numpy complex
exponentials on an 801-point grid with float formatting in the interpreter,
like eltsim's hot paths, and does not touch eltsim, so a change to eltsim
cannot move it.

A cold operation is mostly interpreter start-up and imports read from the
file cache, which drift unlike that kernel; for those the reference is
``start_seconds``, a fresh interpreter that imports numpy and exits.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_GRID = np.linspace(-1.0, 1.0, 801)


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(50):
        wave = np.exp((-1.0 + 3.0j) * _GRID * _GRID + 0.1j * i)
        total += len(",".join("%.16e" % v for v in np.abs(wave)[::20].tolist()))
    return time.perf_counter() - start


def start_seconds(cwd: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, check=True, timeout=60)
    return time.perf_counter() - start
