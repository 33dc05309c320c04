"""A fixed computation, owned by the benchmark, that gauges the host's speed.

On a shared host the neighbours' load comes and goes within a second and
slows an op by up to a half.  This computation mixes what the ops do (complex
SVDs, 2-norms, products and interpreted Python), so that load slows it in the
same proportion.  ``Sampler`` times it at a fixed period from a timer signal,
in the middle of ops too, so that the gauges taken during an op tell how fast
the host ran while the op ran.  It calls numpy.linalg through a
reference taken at import, so the tracer's counting shim never wraps it.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

import numpy as np

# kind -> (dim, rounds, seconds between gauges).  Small matrices and
# interpreted Python load the core the way verify-d12 and mq-stream do, and are
# quick enough to gauge every 50 ms.  They do not track analyze-n256: timing
# the same analyze ops three times, the per-op difference between repeats was
# 12% scaled by them and 11% raw.  n = 256 loads the caches and memory the way
# analyze does; gauged every 0.5 s (6% of the wall time) the difference was
# 2.1%, every 2 s 5.2%.
KINDS = {"small": (16, 2, 0.05), "large": (256, 1, 0.5)}
# Seconds per gauge on an unloaded 2-vCPU Intel Xeon (Sapphire Rapids, KVM)
# host with one BLAS thread; they only fix the unit of the scaled times.
NOMINAL_S = {"small": 1.4e-4, "large": 2.5e-2}

_svd = np.linalg.svd
_norm = np.linalg.norm
_rng = np.random.default_rng(0)
_M = {
    kind: _rng.standard_normal((dim, dim)) + 1j * _rng.standard_normal((dim, dim))
    for kind, (dim, _, _) in KINDS.items()
}


def seconds(kind: str) -> float:
    """Wall time of one gauge: a fixed number of rounds of the computation."""
    m, rounds = _M[kind], KINDS[kind][1]
    start = time.perf_counter()
    total = 0.0
    for _ in range(rounds):
        total += float(_svd(m, compute_uv=False)[0])
        total += float(_norm(m @ m.conj().T - m, 2))
        for i in range(100):
            total += i * 1e-9
    return time.perf_counter() - start


class Sampler:
    """Gauges the host at the period KINDS gives, from SIGALRM, while entered.

    A signal handler runs between bytecodes of the main thread, so a gauge
    can land inside an op; ``spent`` lets the caller take the gauges' own time
    out of the op's wall time.  A signal that arrives during a gauge is
    dropped, so gauges never nest.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.at: list[float] = []  # perf_counter when each gauge started
        self.gauges: list[float] = []  # its seconds
        self.spent = 0.0  # wall seconds spent gauging
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.gauges.append(seconds(self.kind))
        self.at.append(start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> Sampler:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        period = KINDS[self.kind][2]
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, elapsed: float, start: float, end: float) -> float:
        """Wall seconds of [start, end] in reference-host seconds.

        The scale is NOMINAL_S over the mean gauge from the last one taken
        before ``start`` to the first one taken after ``end``; call ``sample``
        once after the last interval to be scaled.
        """
        lo = max(0, bisect_right(self.at, start) - 1)
        window = self.gauges[lo : bisect_left(self.at, end) + 1]
        return elapsed * NOMINAL_S[self.kind] * len(window) / sum(window)
