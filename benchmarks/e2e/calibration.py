"""Telling a disturbed box from a slow program.

The benchmark runs on a few cores of a shared host.  Measured there, a
fixed loop of interpreter work costs either its usual CPU time or about
1.65 times that, in episodes of a tenth of a second to ten seconds, for
anything between a twentieth and nine tenths of a run (a neighbour on the
host: nothing of ours runs then).  A median over the repetitions of a run
follows whichever mode most of that run fell into: same code, two sets of
ten runs, medians 28 % apart.

So every timed piece of work (a query, a session or server start, a
shutdown) is flanked by two *probes*: a fixed two-millisecond loop whose
cost is read from the thread's CPU clock, which rises when the core runs
slow but not while another thread holds the GIL.  A sample is *quiet* when
both its flanks cost at most ``QUIET_FACTOR`` times the run's quiet level
(the fifth percentile of all its probes).  A piece's estimate is the median
of its quiet samples over the repetitions (their mean, where pieces are
added up to a wall, so that a cost landing on another piece every time
stays in the sum).  Nothing is dropped for being slow
itself — a collection, an fsync, a budget overrun inside a quiet sample
stays in — only for having been measured while the box was disturbed.  A
piece with no quiet sample falls back to the median of all its samples,
each scaled down by how much dearer its flanks were than the quiet level
(``PROGRAM_SHARE``).
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the probe loop: about 2 ms on the box this was sized on.
PROBE_ITERATIONS = 15000
#: The two modes are 1.0 and about 1.65 times the quiet level, each a few
#: percent wide.
QUIET_FACTOR = 1.15
#: Where probes cost r times the quiet level, the program's queries took
#: 1 + 0.85 (r - 1) times their quiet seconds (median over the pieces of
#: ``explore_cold`` and ``refine_long`` that had samples of both kinds).
PROGRAM_SHARE = 0.85


def probe() -> float:
    """Thread-CPU seconds of a fixed piece of interpreter work."""
    started = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.thread_time() - started


def timed(action, before: float | None = None):
    """Run ``action()`` between two probes.  Returns its result and the
    sample ``(wall seconds, probe before, probe after)``; pass the previous
    sample's last probe as ``before`` to reuse it."""
    if before is None:
        before = probe()
    started = time.perf_counter()
    result = action()
    seconds = time.perf_counter() - started
    return result, (seconds, before, probe())


def quiet_level(samples) -> float:
    """The fifth percentile of every probe in ``samples``."""
    probes = [cost for _, before, after in samples
              for cost in (before, after)]
    return statistics.quantiles(probes, n=20)[0]


def is_quiet(sample, level: float) -> bool:
    _, before, after = sample
    return max(before, after) <= QUIET_FACTOR * level


def estimate(samples, level: float, average=statistics.median) -> float:
    """Seconds one piece takes on the undisturbed box, from its samples
    over the repetitions."""
    quiet = [sample[0] for sample in samples if is_quiet(sample, level)]
    if quiet:
        return average(quiet)
    return average([
        seconds / (1 + PROGRAM_SHARE * (max(level, (before + after) / 2)
                                        / level - 1))
        for seconds, before, after in samples])
