"""The reference kernel: fixed pure-Python work that shares no code with
owlfl, used to state times at a fixed machine speed.

On a two-core host shared with other workloads the same op on the same
input ran up to about 1.7 times slower in spells of seconds to minutes,
and a small dict-building loop slowed down with it.  So the kernel is
timed just before each op (at most every ``GAP_S``), and each measured
time is multiplied by ``REFERENCE_S`` over that kernel time: the time the
op would take on a host where the kernel takes ``REFERENCE_S``.  A change
to owlfl moves the op and not the kernel, so it shows in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List

# About the kernel's time on that host when it ran fastest, with CPython
# 3.11 on x86-64; it only fixes the scale of the reported times.
REFERENCE_S = 0.0008
GAP_S = 0.02


@dataclass(frozen=True)
class _Symbol:
    name: str


_SYMBOLS = [_Symbol(f"s{i}") for i in range(101)]


def kernel() -> int:
    """Build a dict keyed by tuples of small frozen objects, as owlfl's
    parsers and engine build their facts and bindings."""
    counts = {}
    for i in range(1500):
        key = (_SYMBOLS[i % 97], i % 13)
        counts[key] = counts.get((_SYMBOLS[i % 89], i % 17), 0) + 1
    return len(counts)


def sample() -> float:
    """The fastest of three kernel runs: how slow the machine is now."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Converts measured seconds to seconds at reference speed, from a
    kernel sample taken before the op (reused for ops closer than GAP_S)."""

    def __init__(self):
        self.samples: List[float] = []
        self._at = float("-inf")

    def factor(self) -> float:
        if perf_counter() - self._at >= GAP_S:
            self.samples.append(sample())
            self._at = perf_counter()
        return REFERENCE_S / self.samples[-1]
