"""Host-speed probe: a fixed piece of work that uses none of ``repro``.

Shared virtual machines change speed by tens of percent over minutes
(other tenants, shared caches), and every repeat of a run
shares that state, so medians over repeats cannot remove it.  Each
repeat therefore times this probe right before and right after its
body.  ``run.py`` scales the median times of a run by ``REFERENCE_S``
over the run's median probe time, to report times at a fixed host speed.  The probe
does the three kinds of work the workloads do -- interpreted object and
dict traffic, small numpy array operations, and a compiled pass over a
large array -- and nothing a change to ``repro`` can affect.
"""

from __future__ import annotations

import time

import numpy as np

# probe time on a 2-vCPU 2.0 GHz Xeon VM (the median of many probes);
# only a scale, so normalized times read as seconds
REFERENCE_S = 0.15


class _Point:
    __slots__ = ("a", "b")


def _probe_once() -> float:
    start = time.perf_counter()
    points = [_Point() for _ in range(2000)]
    table: dict = {}
    acc = 0
    for k in range(300):
        for i, p in enumerate(points):
            p.a = i + k
            acc += p.a & 7
            table[i & 511] = acc
    rng = np.random.default_rng(0)
    arr = rng.random(4096)
    for _ in range(1500):
        arr = np.sqrt(arr * 1.0001 + 0.5)
        np.nonzero(arr > 0.9)
    for _ in range(20):
        np.sort(rng.random(200_000))
    return time.perf_counter() - start


def probe_seconds(samples: int = 2) -> float:
    """Fastest of ``samples`` probe runs, in seconds."""
    return min(_probe_once() for _ in range(samples))
