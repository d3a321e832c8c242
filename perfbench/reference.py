"""The reference loop: fixed work that stands for the host's speed.

The host's speed drifts by up to 2x in spells of seconds to an hour, so
seconds as measured spread between runs of the same code by more than a
regression worth catching.  The benchmark times reference() next to
every op and every set-up and scales their seconds by REF_S over the
reference time, that is, to what they would be on a host that runs
reference() in REF_S seconds.  reference() calls no ctrz code, so no
change to the program moves it.
"""

from __future__ import annotations

import gc
import statistics
import time

# reference()'s median time on the 2-core 2.0 GHz Xeon VM the baseline
# figures were taken on
REF_S = 0.0028
CALIBRATION_CALLS = 25
MERSENNE_127 = 2 ** 127 - 1


def reference() -> int:
    """Fixed work that stands for the host's speed: permutation
    composition on a list and integer arithmetic, the kinds of work ctrz
    does, without calling it.  Its loop allocates no container, so its
    time does not depend on how many objects the program keeps alive."""
    p = list(range(1, 48)) + [0]
    q = p[:]
    acc = 1
    for i in range(1100):
        for j in range(48):
            q[j] = p[q[j]]
        acc = (acc * 1000003 + q[i % 48]) % MERSENNE_127
    return acc


def timed_reference() -> float:
    """Seconds of one reference() call, with the collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference_seconds(calls: int = CALIBRATION_CALLS) -> float:
    """Median time of reference() over several calls in a row."""
    return statistics.median(timed_reference() for _ in range(calls))
