"""Host-speed calibration.

On a shared host the same pass can run 40% slower for a minute at a time,
because the CPU itself slows down: process CPU time grows with wall time.
A fixed piece of work that resembles the timed items slows down with it.
The benchmark times such a piece between the timed items and scales every
measured time by reference_s / (calibration time around it), which gives
the time at a fixed reference speed.  The calibration work does not touch
the package, so a change to the package moves the scaled times as much as
the raw ones.

Two calibrations, one per kind of item:

- LOOP, for in-process items: a pure-Python loop doing what the package
  does (dicts keyed by exponent tuples, Fraction and integer arithmetic).
- PROCESS, for CLI items: a fresh interpreter that imports a fixed set of
  standard modules.  Process start and exit slow down less than Python
  code does, and a CLI call is about half of each.
"""

import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

_A = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(9) for j in range(9)}
_B = {(j, i, 1): 7 * i - j + 1 for i in range(8) for j in range(8)}
_IMPORTS = (
    "import argparse, dataclasses, decimal, email.parser, enum, fractions, json, "
    "logging, pathlib, re, typing"
)


def _loop():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb


def _fresh_interpreter():
    subprocess.run([sys.executable, "-I", "-c", _IMPORTS], check=True)


@dataclass(frozen=True)
class Calibration:
    work: Callable[[], None]
    # About the work's time on the host the benchmark was defined on (a
    # 2-vCPU Intel Xeon VM, Python 3.11.7) in a quiet spell.  It only fixes
    # the unit of the scaled times; any constant would do.
    reference_s: float
    # Calibrate after at least this much timed work, and after the last item.
    interval_s: float
    # A long item averages the host's speed over seconds, one run of the
    # work samples it over milliseconds: run it once plus once per half
    # second of the timed work before it, up to this many times.
    max_repeats: int

    def measure(self, repeats: int = 1) -> float:
        """Seconds for one run of the work, the mean of `repeats` runs."""
        t0 = time.perf_counter()
        for _ in range(repeats):
            self.work()
        return (time.perf_counter() - t0) / repeats

    def after(self, seconds: float) -> float:
        """Calibrate after `seconds` of timed work."""
        return self.measure(min(self.max_repeats, 1 + int(seconds / 0.5)))

    def scale(self, before: float, after: float) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        return self.reference_s / ((before + after) / 2)

    def warm_up(self):
        self.measure(3)


LOOP = Calibration(_loop, reference_s=0.015, interval_s=0.2, max_repeats=5)
PROCESS = Calibration(_fresh_interpreter, reference_s=0.070, interval_s=0.5, max_repeats=1)
