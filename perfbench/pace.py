"""A reference clock for timing on a shared machine.

The small virtual machines this benchmark runs on change speed by up to
1.5× over stretches of a minute or more, which no statistic taken inside
one 30-second run can remove. So every timed operation is bracketed by a
fixed pure-Python reference loop (recursion, tuple and dict building, no
genrep code), and its time is scaled by how slow that loop ran around it:

    paced seconds = measured seconds × REF_S ÷ (reference time now)

where "now" is the mean of the reference times just before and just after
the operation. A paced time is what the operation would take at the speed
at which the reference loop takes ``REF_S``; a change to genrep moves it
as it moves the measured time, but a slow spell of the host moves both the
operation and the reference and so cancels. The reference loop is part of
the benchmark, not of genrep, so no change to the program can speed it up.
"""

from __future__ import annotations

import os
import time

# About the reference loop's time (the best of CHUNKS runs) on the 2-vCPU
# machine the baseline was taken on, so paced times read close to real ones.
REF_S = 0.002
CHUNKS = 3


def _nest(n: int):
    return None if n == 0 else (_nest(n - 1), n)


def _loop() -> float:
    t0 = time.perf_counter()
    for _ in range(100):
        table = {}
        _nest(100)
        for j in range(100):
            table[j] = (j, str(j))
    return time.perf_counter() - t0


def pin() -> None:
    """Keep this process and the children it starts on one CPU.

    The virtual CPUs of a shared host run at different speeds at the same
    moment, so the reference loop only says how fast an operation ran if
    both ran on the same one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference() -> float:
    """The reference loop's time now, in seconds: the best of CHUNKS runs."""
    return min(_loop() for _ in range(CHUNKS))


class Pacer:
    """Turns measured seconds into paced seconds.

    Call ``pace`` right after each timed operation; the previous call's
    closing reference is this operation's opening one, unless ``begin`` took
    a fresh one because something untimed ran in between.
    """

    def __init__(self) -> None:
        self.references: list[float] = []
        self.begin()

    def begin(self) -> None:
        self.before = reference()
        self.references.append(self.before)

    def pace(self, seconds: float) -> float:
        after = reference()
        now = (self.before + after) / 2
        self.before = after
        self.references.append(after)
        return seconds * REF_S / now

    def speed(self) -> float:
        """How fast the machine ran, as REF_S ÷ the median reference time."""
        refs = sorted(self.references)
        return REF_S / refs[len(refs) // 2]
