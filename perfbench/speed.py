"""Host speed probe: scales measured times to a fixed reference speed.

On the shared 2-core VM this benchmark was written on, the host switches
between a fast and a slow state (about 1.8 times slower), for seconds to
minutes at a time.  Process CPU time slows as much as wall time (no stolen
time is accounted), so raw pass times of one commit spread by 15-60 %
between runs.  The slow state slows all interpreter-bound code alike: over
8-s windows, the time of ``chunk`` (colour refinement of a fixed graph, in
the program's style) tracks ``canonical_code``, ``iota_exact`` and
``construct`` with a correlation of 0.95-0.99, and the ratio of the two
varies by 3-5 % (IQR / median) where each alone varies by 27-31 %.  A
memory-bound probe tracked far worse (16-21 %).

So each time is also reported at the reference speed: multiplied by
``REF_CHUNK_S * mean(1 / chunk time)``, the mean speed over chunks taken
evenly through the timed interval.  ``Sampler`` takes them in a background
thread of the measured process; ``bracket`` takes them in the calling
process just before and just after a short child process.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

#: time of one chunk in the fast state of the VM named above (CPython 3.11);
#: it sets only the unit of the scaled times
REF_CHUNK_S = 0.0016
#: pause between two chunks of a Sampler
INTERVAL_S = 0.1
#: chunks bracket() times back to back
BRACKET_CHUNKS = 10

# a fixed 24-vertex graph as adjacency bit masks
_N = 24
_ADJ = [0] * _N
for _v in range(_N):
    for _u in ((_v + 1) % _N, (_v + 5) % _N, (_v * 7 + 3) % _N):
        if _u != _v:
            _ADJ[_v] |= 1 << _u
            _ADJ[_u] |= 1 << _v


def _members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def chunk() -> int:
    """Colour refinement of _ADJ from six individualised vertices: tuples,
    sorts, sets, comprehensions and generators over bit masks."""
    acc = 0
    for start in range(6):
        colors = [int(v == start) for v in range(_N)]
        while True:
            sigs = [
                (colors[v], tuple(sorted(colors[u] for u in _members(_ADJ[v]))))
                for v in range(_N)
            ]
            palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [palette[s] for s in sigs]
            if new == colors:
                break
            colors = new
        acc += max(colors)
    return acc


def time_chunk() -> float:
    t0 = perf_counter()
    chunk()
    return perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Multiply a raw time by this to get seconds at the reference speed."""
    return REF_CHUNK_S * statistics.fmean(1.0 / s for s in samples)


class Sampler:
    """Times a chunk every INTERVAL_S in a daemon thread until stopped.

    The measured process should raise its switch interval above the time
    of a chunk, so that the main thread does not take the interpreter lock
    back in the middle of one.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.samples.append(time_chunk())
            if self._stop.wait(INTERVAL_S):
                return

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> list[float]:
        self._stop.set()
        self._thread.join()
        return self.samples


def bracket() -> list[float]:
    """BRACKET_CHUNKS chunk times taken back to back in this process."""
    return [time_chunk() for _ in range(BRACKET_CHUNKS)]
