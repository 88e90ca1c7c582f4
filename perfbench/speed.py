"""Machine-speed correction for the benchmark's timings.

On a shared VM the same operation can take anywhere from 1x to 2x its
fastest time, and the level drifts over seconds and minutes, so raw wall
times of two runs of the same code disagree by more than any useful bound.
The benchmark therefore times a fixed kernel next to the operations it
measures, and scales each operation's wall time by

    kernel.reference_s / (kernel time measured around the operation)

which gives the operation's time at the reference speed: the speed at
which the kernel takes ``reference_s``.  On the reference VM that is about
its median speed, so corrected times read close to its typical wall times.
Neither kernel runs qeuler code, so no change to qeuler can move them.

Two kernels, for two kinds of work:

- ``PYTHON`` times plain Python work in this process (``Fraction``
  arithmetic, dicts, tuples, sorting), with the garbage collector off so
  the program's heap size does not leak into the machine's speed.  It
  corrects work done in this process and in set-up probes.
- ``START`` times a fresh interpreter that does nothing.  It corrects
  commands run as child processes, whose cost is dominated by starting a
  process, which the in-process kernel does not track.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple

# An untraced loop times its kernel again once this much operation time
# has passed since the last kernel sample.
CALIBRATE_EVERY_S = 0.05


class Kernel(NamedTuple):
    seconds: Callable[[], float]
    reference_s: float  # kernel time at the reference speed


def _python_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 17 + 1, i + 1)
        key = (i % 23, i % 7)
        table[key] = table.get(key, 0) + i * i
        sorted(str(x) for x in range(i % 11))
    return acc, len(table)


_python_work()


def python_seconds() -> float:
    """Best wall time of two runs of the Python kernel, with the collector
    off; the better of two ignores a single interruption."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            start = perf_counter()
            _python_work()
            times.append(perf_counter() - start)
        return min(times)
    finally:
        if enabled:
            gc.enable()


def start_seconds() -> float:
    """Wall time of one fresh interpreter running ``pass``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60,
                   capture_output=True)
    return perf_counter() - start


PYTHON = Kernel(python_seconds, 0.002)
START = Kernel(start_seconds, 0.05)


def corrected(seconds: float, before: float, after: float,
              kernel: Kernel = PYTHON) -> float:
    """``seconds`` at the reference speed, given the kernel's times taken
    just before and just after it."""
    return seconds * 2 * kernel.reference_s / (before + after)
