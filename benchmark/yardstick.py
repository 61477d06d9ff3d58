"""The benchmark's yardstick for the speed of a shared host.

The host that runs the benchmark shares its cores: the same pass can take
1.5 times as long a few minutes later, and averaging over a longer run does
not remove drift that slow.  So a run times slices of fixed reference work
before the first timed item and after every one, for about a tenth of the
time the item took, and every time metric is scaled to the speed at which
one slice takes ``REF_S`` seconds:

    scaled = measured * REF_S / (mean slice time around the measured work)

Wall times are scaled by the slices' wall time and CPU times by their CPU
time, so time spent waiting to run counts against wall time only.

The slice mixes the kinds of work altprod does on pure-Python mpmath: the
interpreter loop, big-integer multiply and divide, and Fraction and dict
arithmetic.  Nothing in it calls altprod, so a change to the program moves
the item times and leaves the yardstick alone.
"""

import threading
import time
from fractions import Fraction

# Seconds one slice takes at the reference speed (a quiet 2-vCPU x86-64
# host, Python 3.11): scaled times read as seconds on that host.
REF_S = 0.025

# Reference work timed after an item, as a share of the item's time: the
# slices must be dense enough to follow drift within a few seconds.
SHARE = 0.1
# Slices timed before the first item of a pass.
LEAD_SLICES = 4

_X = 3**700
_Y = 7**600


def _slice() -> int:
    acc = 0
    for i in range(50000):
        acc += i * i % 7
    for i in range(3500):
        acc ^= ((_X * (_Y + i)) >> 900) // (_Y - i) & 1023
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(-1 if i % 2 else 1, i * i)
    d = {}
    for i in range(14000):
        d[i % 97] = d.get(i % 97, 0) + i
    return acc + f.numerator % 7 + len(d)


def reference(reps: int = 1, threads: int = 1) -> tuple:
    """Mean wall and CPU time of one reference slice, over ``reps`` slices in
    each of ``threads`` threads.  Threads run their slices at once and hand
    the interpreter lock to each other as a pool's threads do, so the wall
    time also pays for the host waking a waiting thread on another core."""
    def work():
        for _ in range(reps):
            _slice()

    pool = [threading.Thread(target=work) for _ in range(threads - 1)]
    c0, t0 = time.process_time(), time.perf_counter()
    for t in pool:
        t.start()
    work()
    for t in pool:
        t.join()
    n = reps * threads
    return (time.perf_counter() - t0) / n, (time.process_time() - c0) / n


def scaled(seconds: float, ref_s: float) -> float:
    """A time measured while one slice took ``ref_s``, at the reference speed."""
    return seconds * REF_S / ref_s


def slices_after(seconds: float) -> int:
    """Reference slices to time after an item that took ``seconds``."""
    return max(1, round(SHARE * seconds / REF_S))
