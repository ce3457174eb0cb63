"""A fixed reference computation that measures the host's current speed.

The benchmark runs on a shared host whose speed flips between two speeds
about 2x apart every few seconds, with the share of time at each changing
over minutes, so the plain wall time of a run depends on when it ran.  A
run therefore times this reference between its jobs and scales each job's
wall time by NOMINAL_S / (the reference's time around that job): the result
is the time the job would take on a host running at the nominal speed.

The reference does the kinds of work the program does, none of it through
the program: CSV parsing into tuples counted in a dict, as `read_csv` does,
and a scan of every pair of stages for the best merge, with numpy
log-likelihoods of small count vectors, as the searches do.  A host's slow
states slow some code more than other code, so the scaling tracks the host
to within several percent, not exactly.  The reference's code must never
change, or metrics before and after the change stop being comparable.
"""
from __future__ import annotations

import csv
import io
import itertools
import statistics
import time

import numpy as np

# median time of one reference_work() call on the machine the baseline ran
# on; only the scale of the scaled metrics depends on it
NOMINAL_S = 0.0145
CALLS = 3

_TEXT = "".join(
    ",".join(str((7 * r + 3 * c + r // 5) % 3) for c in range(8)) + "\n" for r in range(1200))
_TABLE = (np.arange(48 * 3, dtype=np.float64).reshape(48, 3) * 5.0 % 11.0)


def _loglik(c: np.ndarray) -> float:
    nz = c[c > 0]
    return float((nz * np.log(nz / nz.sum())).sum())


def reference_work() -> float:
    tally: dict[tuple[str, ...], int] = {}
    for row in csv.reader(io.StringIO(_TEXT)):
        key = tuple(v.strip() for v in row)
        tally[key] = tally.get(key, 0) + 1
    counts = {s: row.copy() for s, row in enumerate(_TABLE)}
    loglik = {s: _loglik(c) for s, c in counts.items()}
    best = None
    for s1, s2 in itertools.combinations(sorted(counts), 2):
        key = (_loglik(counts[s1] + counts[s2]) - loglik[s1] - loglik[s2], (s1, s2))
        if best is None or key < best:
            best = key
    return best[0] + len(tally)


def reference_s() -> float:
    """Median wall seconds of CALLS reference_work() calls."""
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
