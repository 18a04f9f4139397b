"""The workload process: the timed loop and the traced pass.

    python3 loop.py WORKLOAD SEED SECONDS TRACE OUT

``run.py`` starts this as a fresh interpreter with the package's ``src/`` on
``PYTHONPATH`` and waits for it.  It makes the workload's inputs from the
seed, runs the closed loop for SECONDS (and with TRACE 1 one traced pass),
and pickles a ``Run`` to OUT.  It imports the package, numpy and the input
generators only, so its peak resident set is the program's at work: the
harness's references and checks live in the parent.
"""

from __future__ import annotations

import gc
import logging
import math
import os
import pickle
import resource
import statistics
import sys
import time
from array import array
from typing import NamedTuple

WARMUP_OPS = 32
WINDOW_OPS = 1000            # least ops per latency window
MAX_EXTRAS = 4096            # later-pass answers that differ from the first pass
                             # and are checked on their own


class Window(NamedTuple):
    """Latency summary of whole passes over the input pool."""

    ops: int
    op_ns: int          # summed op time
    p50_ns: int
    p99_ns: int


class Run(NamedTuple):
    attempted: int
    windows: list
    first: list         # first-pass answer of every input
    extras: list        # (input, answer) of later answers that differ
    unchecked: int      # differing answers beyond MAX_EXTRAS
    peak_rss_mb: float  # ru_maxrss right after the timed loop
    traced: tuple       # (tracer, traced ns, answers) of the traced pass, or None


def _nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _window(lat):
    srt = sorted(lat)
    return Window(len(srt), sum(srt), statistics.median_low(srt), _nearest_rank(srt, 0.99))


def timed_loop(wl, seconds):
    """Closed loop over the input pool for ``seconds``, and at least one
    whole pass, so every input is run and checked whatever the run length.

    Latencies are summarized per window of whole passes over the pool, at
    least WINDOW_OPS ops long, so every window runs the same inputs and has
    ten ops beyond its p99.  Returns the op count, the windows (a shorter
    run is one partial window), the first-pass answer of every input, the
    later answers that differ from it (checked on their own), and how many
    differing answers were left unchecked.
    """
    n = len(wl.items)
    per_window = math.ceil(WINDOW_OPS / n) * n
    op = wl.op
    clock = time.perf_counter_ns
    buf = array("q", bytes(8 * per_window))
    windows = []
    first = [None] * n
    extras = []
    unchecked = 0
    end = clock() + int(seconds * 1e9)
    k = j = 0
    while True:
        i = k % n
        t0 = clock()
        r = op(i)
        t1 = clock()
        buf[j] = t1 - t0
        j += 1
        if j == per_window:
            windows.append(_window(buf))
            j = 0
        if k < n:
            first[i] = r
        elif r != first[i]:
            if len(extras) < MAX_EXTRAS:
                extras.append((i, r))
            else:
                unchecked += 1
        k += 1
        if t1 >= end and k >= n:
            if not windows:
                windows.append(_window(buf[:j]))
            return k, windows, first, extras, unchecked


def traced_pass(wl):
    import spans
    tracer = spans.Tracer()
    clock = time.perf_counter_ns
    results = []
    total = 0
    tracer.install()
    try:
        for i in range(len(wl.items)):
            t0 = clock()
            results.append(tracer.run_op(i, wl.op, i))
            total += clock() - t0
    finally:
        tracer.uninstall()
    return tracer, total, results


def main(argv):
    name, seed, seconds, trace, out = argv
    # The package reports unconverged solves through logging; with no handler
    # configured every record would go to stderr.  Records are still made.
    logging.getLogger("inellipse").addHandler(logging.NullHandler())
    import workloads
    wl = workloads.build(name, int(seed), os.path.dirname(out))

    for i in range(min(len(wl.items), WARMUP_OPS)):
        wl.op(i)
    gc.collect()
    gc.freeze()
    attempted, windows, first, extras, unchecked = timed_loop(wl, float(seconds))
    gc.unfreeze()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = traced_pass(wl) if trace == "1" else None
    with open(out, "wb") as fh:
        pickle.dump(Run(attempted, windows, first, extras, unchecked, peak_rss_mb, traced),
                    fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    import loop         # so Run and Window pickle under this module's name
    sys.exit(loop.main(sys.argv[1:]))
