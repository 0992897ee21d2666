"""Timing in reference seconds, so a shared host's speed swings cancel.

The benchmark runs on a few vCPUs of a shared host, whose speed changes by
up to a factor of two within seconds as other tenants load it. Wall time
alone then measures the host. So every timed region runs under a Sampler:
a fixed calibration kernel (benchmark code only, no program code) is timed
at the start and end of the region and every PERIOD_S seconds inside it,
from a SIGALRM handler in the same thread. The region's wall time, less the
time spent in the handler, is scaled by NOMINAL_S over the kernel's mean
duration: the time the region would have taken at the speed the host showed
when the benchmark was defined (Intel Xeon, 2 vCPUs, Python 3.11).

Only the host's speed cancels. The kernel never runs program code, so a
change to the program moves the reference seconds as much as wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05       # calibration samples inside a region
NOMINAL_S = 6.0e-4    # the kernel's typical duration on the reference host

_rng = np.random.default_rng(20221122)
_WORDS = _rng.integers(0, 2**63, 8, dtype=np.uint64)
_PLANE = _rng.integers(0, 2, (16, 64), dtype=np.uint8).astype(bool)
_ONE = np.uint64(1)
_PMF = np.array([0.7, 0.0, 0.3, 0.0])
_TABLE = (np.arange(64).reshape(4, 4, 4) % 3 == 0).astype(float)


def kernel() -> int:
    """The same mix the program runs: interpreted loops, tiny uint64 ops,
    small bool-plane ops and tiny einsums, 0.4 to 1 ms."""
    acc = 0
    for i in range(2000):
        acc += (i * i) % 7
    seen = {}
    for i in range(300):
        seen.setdefault(i % 17, []).append(i)
    acc += len(seen)
    u = _WORDS
    for _ in range(60):
        v = (u ^ (u >> _ONE)) & u
        acc += int(v[0] & _ONE)
    for _ in range(10):
        b = _PLANE ^ _PLANE[:, ::-1]
        acc += int((b & _PLANE).any(axis=1).sum())
    q = _PMF
    for _ in range(20):
        q = np.einsum("a,b,abs->s", q, _PMF, _TABLE)
        q /= q.sum()
    return acc + int(q[0] > 0)


class Sampler:
    """Times one region in wall and reference seconds.

        with Sampler() as s:
            work()
        s.wall_s, s.net_s, s.ref_s

    Not re-entrant. On exit, also when the region raises, the timer is
    stopped and the SIGALRM handler in place before is put back.
    """

    def __init__(self, period_s: float = PERIOD_S, clock=time.perf_counter,
                 probe=kernel):
        self.period_s = period_s
        self.clock = clock
        self.probe = probe
        self.samples: list[float] = []
        self.spent_s = 0.0      # wall time inside the sampler's own probes
        self.wall_s = 0.0
        self._old = None

    def _sample(self) -> None:
        t0 = self.clock()
        self.probe()
        t1 = self.clock()
        self.samples.append(t1 - t0)
        self.spent_s += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._t0 = self.clock()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = self.clock()
        signal.signal(signal.SIGALRM, self._old)
        inside = self.spent_s - self.samples[0]
        self._sample()
        self.wall_s = t1 - self._t0
        self.net_s = self.wall_s - inside

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (above 1 is faster)."""
        return NOMINAL_S / statistics.fmean(self.samples)

    @property
    def ref_s(self) -> float:
        """The region's time in reference seconds."""
        return self.net_s * self.speed
