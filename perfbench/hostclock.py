"""A clock that runs at the host's speed, for a host whose speed drifts.

The reference host is a shared VM.  The speed it gives one Python thread
drifts by up to 2x over seconds to minutes, and every piece of
pure-Python code slows by nearly the same factor (see NOTES.md, Host
noise).  HostClock measures that factor while the benchmark runs: a
SIGALRM timer interrupts the run every PROBE_PERIOD_S, wherever it is,
even inside a long library call, and runs a fixed reference job twice,
timing the second, warm call (the probe).  Afterwards, `norm(a, b)`
converts any interval [a, b] of `time.perf_counter_ns` stamps into
host-normalised seconds: the probes' own time is left out, and each
stretch between probes is scaled by REF_NS over the median probe time
around it.  A normalised second is a second of the reference host in a
state where its probe takes REF_NS.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time
from array import array

PROBE_PERIOD_S = 0.02
# About the probe's median time on the reference host (Intel Xeon at
# 2.1 GHz, Python 3.11), which read 82-132 us over five runs.
REF_NS = 100_000
# Each stretch between probes is scaled by the median of this many probes
# around it.
SMOOTH = 5

_ns = time.perf_counter_ns


_ROW = tuple(range(1, 41))
_MATRIX = ((2, 1, 1, 3, 2), (1, 3, 2, 1, 1), (1, 2, 4, 1, 3), (3, 1, 1, 5, 1), (2, 1, 3, 1, 6))


def _reference_job():
    """Fixed pure-Python work of about 0.1 ms, made of the operations the
    library's hot paths are made of: tuples built from generators, hashing,
    dict updates, nested-list integer elimination, `itertools.combinations`
    and `zip` filters."""
    d = {}
    acc = 0
    for i in range(12):
        t = tuple((x * i + 7) % 257 for x in _ROW[:20])
        acc ^= hash(t) & 0xFFFF
        d[i & 7] = d.get(i & 7, 0) + sum(_ROW[j] * (i + j) for j in range(0, 40, 3))
    m = [list(r) for r in _MATRIX]
    prev = 1
    for k in range(4):
        for i in range(k + 1, 5):
            for j in range(k + 1, 5):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    acc ^= m[4][4] & 0xFFFF
    for r in (2, 3):
        for c in itertools.combinations(range(6), r):
            if all(a >= b for a, b in zip(c, range(r))):
                acc += 1
    return acc


class HostClock:
    def __init__(self):
        self.starts = array("q")
        self.ends = array("q")
        self.probe_ns = array("q")
        self._old = None
        self.t0 = None

    def _probe(self, signum, frame):
        # The first call warms the caches that the interrupted code left
        # cold, so the timed second call depends on the host's speed and
        # not on the library's working set.
        a = _ns()
        _reference_job()
        b = _ns()
        _reference_job()
        c = _ns()
        self.starts.append(a)
        self.ends.append(c)
        self.probe_ns.append(c - b)

    def __enter__(self):
        self.t0 = _ns()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        if exc[0] is None:
            self._finish()
        return False

    def _finish(self):
        """Scale factors per stretch and the normalised time at each probe."""
        starts, ends = list(self.starts), list(self.ends)
        if not starts:
            raise RuntimeError("hostclock: no probe ran; the run was shorter than %s s"
                               % PROBE_PERIOD_S)
        probe = list(self.probe_ns)
        half = SMOOTH // 2
        # factor[k] scales the stretch that ends where probe k starts;
        # factor[len] the stretch after the last probe.
        factor = []
        for k in range(len(probe) + 1):
            lo = max(0, min(k - half, len(probe) - SMOOTH))
            factor.append(REF_NS / statistics.median(probe[lo:lo + SMOOTH]))
        at_probe = []
        n, prev = 0.0, self.t0
        for k, s in enumerate(starts):
            n += (s - prev) * factor[k]
            at_probe.append(n)
            prev = ends[k]
        self._starts, self._ends = starts, ends
        self._factor, self._at_probe = factor, at_probe
        self.probe_median_ns = statistics.median(probe)

    def _at(self, t):
        k = bisect.bisect_right(self._starts, t) - 1
        if k < 0:
            return (t - self.t0) * self._factor[0]
        if t <= self._ends[k]:
            return self._at_probe[k]
        return self._at_probe[k] + (t - self._ends[k]) * self._factor[k + 1]

    def norm(self, a, b):
        """Host-normalised seconds of the interval [a, b] in ns stamps."""
        return (self._at(b) - self._at(a)) / 1e9

    def note(self):
        return ("hostclock: %d probes, median %.1f us against REF_NS %.1f us"
                % (len(self._starts), self.probe_median_ns / 1e3, REF_NS / 1e3))
