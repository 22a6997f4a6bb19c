"""Wall times converted to seconds at a fixed reference machine speed.

On a shared host the same work can take 50 % longer for minutes at a time
when neighbours are busy, and CPU time slows down with wall time, so raw
medians from runs a minute apart disagree by more than any useful bound.
A run therefore interleaves short slices of a fixed reference workload with
its items, and divides each wall time by the machine's slowness around the
time it was measured: the median, over the slices taken just before and
after, of slice time over the slice's reference time.  The host switches
between a fast and a slow state (about 1.7 x apart) every few seconds to
minutes, so the conversion has to use slices near each measurement, not
the median of a whole run.

There are two reference workloads, each like the work it converts and
neither using crnkit, so a change to crnkit moves converted times just as
it moves raw ones.  `COMPUTE` is exact `Fraction` elimination on a fixed
small matrix (small rationals, lists, gcd), for work inside one process.
`SPAWN` starts a fresh interpreter that imports the standard modules crnkit
imports, for work that starts processes.  On a 2-vCPU host, during a busy
spell, spreads between 15-second windows were: in-process analysis 0.26
raw and 0.06 converted by `COMPUTE`; a cold ``crn analyze`` process 0.13
raw, 0.13 converted by `COMPUTE` and 0.04 converted by `SPAWN`.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

# Time spent in slices, as a share of the time spent in the work converted.
SLICE_SHARE = 0.1
# A measured interval is converted with the slices taken within NEAR_S of
# it, or with the NEAREST slices when fewer are that close.
NEAR_S = 0.5
NEAREST = 3

_MATRIX = [[(3 * i + 5 * j * j + i * j) % 13 - 6 for j in range(14)] for i in range(12)]


def _eliminate() -> None:
    """Fraction row reduction of a fixed 12 x 14 integer matrix, 4 times."""
    for _ in range(4):
        rows = [[Fraction(v) for v in row] for row in _MATRIX]
        r = 0
        for c in range(len(rows[0])):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            lead = rows[r][c]
            rows[r] = [x / lead for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
            if r == len(rows):
                break


def _spawn() -> None:
    subprocess.run(
        [sys.executable, "-c", "import argparse, dataclasses, fractions, json, math, os, re"],
        check=True, capture_output=True, timeout=60,
    )


@dataclass(frozen=True)
class Reference:
    name: str
    work: Callable[[], None]
    # About the time of one slice on the reference host, a 2-vCPU Intel
    # Xeon VM running Python 3.11.7, in its faster state.
    seconds: float


COMPUTE = Reference("compute", _eliminate, 0.02)
SPAWN = Reference("spawn", _spawn, 0.06)


class Clock:
    """Takes reference slices between measured work and converts its times.

    With several references, each slice runs every one of them and its
    slowness is the geometric mean of theirs: for work that is part process
    start and part computation, such as a cold ``crn analyze``.
    """

    def __init__(self, *references: Reference) -> None:
        self.references = references
        self.samples: list[tuple[float, float]] = []  # (time, slowness) per slice
        self._work_s = 0.0
        self._slice_s = 0.0

    def slice(self) -> None:
        ratios = []
        begin = perf_counter()
        for reference in self.references:
            start = perf_counter()
            reference.work()
            ratios.append((perf_counter() - start) / reference.seconds)
        end = perf_counter()
        self._slice_s += end - begin
        self.samples.append(((begin + end) / 2, math.prod(ratios) ** (1 / len(ratios))))

    def keep_up(self, work_s: float) -> None:
        """Count ``work_s`` of measured work, then slice until the slices
        have taken `SLICE_SHARE` of all the work counted."""
        self._work_s += work_s
        while self._slice_s < SLICE_SHARE * self._work_s:
            self.slice()

    def slowness(self, start: float, end: float) -> float:
        """Median slowness of the slices near the interval: within `NEAR_S`
        of it, or else the `NEAREST` closest to its middle.  1.0 means the
        machine ran at reference speed."""
        near = [r for t, r in self.samples if start - NEAR_S <= t <= end + NEAR_S]
        if len(near) < NEAREST:
            middle = (start + end) / 2
            closest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            near = [r for _, r in closest[:NEAREST]]
        return statistics.median(near)

    def convert(self, wall_s: float, start: float, end: float) -> float:
        """A wall time measured in [start, end], at reference speed."""
        return wall_s / self.slowness(start, end)

    def describe(self) -> str:
        names = "+".join(r.name for r in self.references)
        overall = statistics.median(r for _, r in self.samples)
        return f"{len(self.samples)} {names} slices, median {overall:.3f} x reference time"
