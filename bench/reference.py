"""A fixed pure-Python task that gauges how fast the machine runs right now.

On a shared machine the speed of one core drifts with its neighbours' load:
on a 2-core shared virtual machine the ``Fraction`` and dict part of this task
took anywhere from 0.069 to 0.154 s within ten minutes, and smallq calls
drifted with it. No bound of 25% or less holds over such drift. The
benchmark therefore times this task next to every measured call and reports
times rescaled to a machine on which the task takes ``NOMINAL_S``:
``t * NOMINAL_S / reference_time``. The task exercises what
smallq spends its time on: ``Fraction`` arithmetic, products of short integer
coefficient lists reduced by their gcd (as in ``CycloElem``), small lists and
dicts. Over 288 alternating frobenius-check calls on that machine, blocks of
16 calls rescaled with the ``Fraction`` and dict part alone spread by 0.042
(quartile distance over median); with the coefficient-list part added, by
0.025.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

NOMINAL_S = 0.2


def _task():
    acc = 0
    for _ in range(1500):
        s = Fraction(0)
        for x in [Fraction(i, (i % 7) + 1) for i in range(12)]:
            if x:
                s = s + x * x
        acc += s.numerator % 7
    d = {}
    for i in range(100000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    for r in range(5500):
        a = [(i * 7919 + r) % 1000 - 500 for i in range(8)]
        b = [(i * 104729 + r) % 997 - 498 for i in range(8)]
        t = [0] * 15
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        t[i + j] += x * y
        g = 0
        for c in t:
            g = math.gcd(g, c)
        acc += g + len({k: v for k, v in enumerate(t) if v})
    return acc + len(d)


def reference_time():
    """Seconds the reference task takes now."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0


def rescale(seconds, ref):
    """``seconds`` measured when the task took ``ref``, at nominal speed."""
    return seconds * NOMINAL_S / ref
