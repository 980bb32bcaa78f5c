"""Host speed, sampled while the program runs, and times scaled by it.

On a shared host the CPU's speed drifts: on a 2-vCPU cloud guest a fixed
pure-Python loop has been seen to take from 25 to 66 ms within minutes,
with no steal time reported.  More passes per run do not average a drift
that lasts minutes, so a run's raw times say as much about the host as
about the program.

While a pass runs, a SIGALRM handler runs a fixed reference burst every
INTERVAL_S and records how long it took.  The burst is pure Python of the
program's own kind: the product of two fixed sparse polynomials held as
dicts from exponent tuples to long integers.  Of the bursts tried it tracked
the program's own drift most closely: over 19 dense passes on that guest,
the quartile spread of pass time per burst time was 3 % of the median,
against 9 % for a loop of dict updates under integer keys, 13 % for a
random walk over a large byte array and 21 % for the raw pass time.  It never
touches the program or its random number generator, and the collector is
off while it runs, so no collection whose cost depends on the program's
heap lands inside it (every object the burst makes is freed before it
returns).  The handler runs between the program's bytecodes, in the main
thread.

A pass's program time is the pass less the bursts inside it.  Its scaled
time is the sum, over the stretches of program time between two bursts, of

    stretch * REF_BURST_S / (mean time of the two bursts around it)

that is, the time the pass would take on a host where the burst takes
REF_BURST_S.  The host's speed changes within a pass, so each stretch is
scaled by the speed measured around it: over nine passes of one threefold
input this spread the scaled times by 2 % (standard deviation over mean),
against 5 % when the whole pass was scaled by its median burst and 9 % for
the raw time.  A change to the program changes the stretches and not the
bursts, so the scaled time moves with the program and far less with the
host.  A span with no burst inside it, such as a set-up probe, is scaled
by the median of the bursts run around it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

INTERVAL_S = 0.25
# The unit of scaled time: the burst's time at the reference speed.  It is a
# fixed constant, near the burst's median on a 2-vCPU x86 cloud guest with
# CPython 3.11, so scaled seconds read close to wall seconds there.
REF_BURST_S = 0.006
OPERAND_TERMS = 30
VARIABLES = 6
REPEATS = 3


def reference_operands() -> tuple[dict, dict]:
    """Two fixed polynomials: exponent tuple -> coefficient below 10^40."""
    rng = random.Random(0)  # its own generator; the global one is untouched
    return tuple(
        {
            tuple(rng.randrange(3) for _ in range(VARIABLES)): rng.randrange(-(10**40), 10**40)
            for _ in range(OPERAND_TERMS)
        }
        for _ in range(2)
    )


def reference_burst(p: dict, q: dict) -> int:
    """The fixed reference work; its result is returned so it is consumed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            product: dict = {}
            for e1, c1 in p.items():
                for e2, c2 in q.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    product[key] = product.get(key, 0) + c1 * c2
        return len(product)
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples the reference burst, periodically (``start``/``stop``) or on
    demand (``sample``).  ``overhead`` is the total burst time so far, so a
    caller can take it out of any span it times."""

    def __init__(self):
        self.operands = reference_operands()
        self.bursts: list[tuple[float, float]] = []  # (start, end)
        self.overhead = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_burst(*self.operands)
        t1 = time.perf_counter()
        self.bursts.append((t0, t1))
        self.overhead += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list[tuple[float, float]]:
        """The bursts sampled since the last ``take``."""
        out, self.bursts = self.bursts, []
        return out


def scale(seconds: float, bursts: list[tuple[float, float]]) -> float:
    """``seconds`` of program time that ran among ``bursts`` (none inside
    it), at the reference host speed."""
    return seconds * REF_BURST_S / statistics.median(end - start for start, end in bursts)


def scale_span(bursts: list[tuple[float, float]], start: float, end: float) -> tuple[float, float]:
    """Program seconds in the span from ``start`` to ``end``, raw and at the
    reference host speed.  ``bursts`` runs from one burst just before
    ``start`` to one just after ``end``; those in between ran inside the
    span.  Each burst time is first replaced by the median of itself and its
    neighbours, so a single burst that an interrupt slowed does not count."""
    times = [b - a for a, b in bursts]
    smooth = [statistics.median(times[max(0, i - 1) : i + 2]) for i in range(len(times))]
    edges = [start, *(t for burst in bursts[1:-1] for t in burst), end]
    program = scaled = 0.0
    for i in range(len(bursts) - 1):
        stretch = edges[2 * i + 1] - edges[2 * i]
        program += stretch
        scaled += stretch * 2 * REF_BURST_S / (smooth[i] + smooth[i + 1])
    return program, scaled
