"""Pure helpers: the percentile rule, the probe matcher, METRICS deltas.

Nothing here touches a socket or a process, so every function is unit
tested in ``perfbench/tests``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.evaluate import parse_exposition

#: a tail percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile``'s default)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def highest_tail(n: int, candidates: Iterable[float] = (99.9, 99.0, 90.0,
                                                          50.0)
                 ) -> Optional[float]:
    """The highest candidate percentile with >= TAIL_SAMPLES beyond it.

    ``n * (1 - p/100)`` samples lie beyond percentile ``p``; with 1000
    samples p99 qualifies (10 beyond) but p99.9 does not (1 beyond).
    Returns ``None`` when not even the lowest candidate qualifies.
    """
    for p in sorted(candidates, reverse=True):
        # round away float noise: 1000 * 0.01 must count as exactly 10
        if round(n * (100.0 - p) / 100.0, 6) >= TAIL_SAMPLES:
            return p
    return None


def tail_percentile(values: Sequence[float], p: float) -> float:
    """``percentile(values, p)``, refused when the rule does not allow p."""
    best = highest_tail(len(values), (p,))
    if best is None:
        raise ValueError(f"p{p:g} needs {TAIL_SAMPLES} samples beyond it; "
                         f"only {len(values)} samples")
    return percentile(values, p)


class Probe:
    """One report at ``origin`` waiting to be seen at ``observer``."""

    __slots__ = ("origin", "observer", "v", "due")

    def __init__(self, origin: str, observer: str, v: float, due: float):
        self.origin = origin
        self.observer = observer
        #: the origin's engine clock read right after the report was
        #: accepted; any publish stamped later was built after the drain
        self.v = v
        self.due = due


class HorizonMatcher:
    """Lands probes on the first observer reply with ``horizons[A] > v``.

    One poll of an observer answers every probe waiting on it: its reply
    carries the served snapshot's per-origin horizons, and a probe for
    origin A lands once A's horizon strictly exceeds the probe's ``v``.
    Probes are added per (origin, observer) in non-decreasing ``v`` (the
    origin's clock only moves forward), so landing pops from the left.
    """

    def __init__(self) -> None:
        self._waiting: Dict[Tuple[str, str], Deque[Probe]] = {}
        self.pending = 0

    def add(self, probe: Probe) -> None:
        queue = self._waiting.setdefault((probe.origin, probe.observer),
                                         deque())
        if queue and probe.v < queue[-1].v:
            raise ValueError(f"probe v {probe.v} behind {queue[-1].v} "
                             f"for {probe.origin}->{probe.observer}")
        queue.append(probe)
        self.pending += 1

    def observe(self, observer: str, horizons: Mapping[str, float]
                ) -> List[Probe]:
        """Probes that the reply ``horizons`` from ``observer`` lands."""
        landed: List[Probe] = []
        for origin, horizon in horizons.items():
            queue = self._waiting.get((origin, observer))
            while queue and horizon > queue[0].v:
                landed.append(queue.popleft())
        self.pending -= len(landed)
        return landed

    def drain(self) -> List[Probe]:
        """Remove and return every probe still waiting."""
        left = [p for queue in self._waiting.values() for p in queue]
        self._waiting.clear()
        self.pending = 0
        return left


# -- METRICS text ----------------------------------------------------------

#: one series: (family, sorted (label, value) pairs)
Series = Tuple[str, Tuple[Tuple[str, str], ...]]


def series(text: str) -> Dict[Series, float]:
    """A METRICS scrape as ``{(family, labels): value}``."""
    return {(name, tuple(sorted(labels.items()))): value
            for name, labels, value in parse_exposition(text)}


def window_delta(before: Mapping[Series, float],
                 after: Mapping[Series, float]) -> Dict[Series, float]:
    """Per-series counter growth between two scrapes of one process.

    A series absent from ``before`` started at zero.  A series that went
    backwards means the process restarted inside the window, which would
    make any delta a lie, so it raises.
    """
    delta: Dict[str, float] = {}
    for key, value in after.items():
        start = before.get(key, 0.0)
        if value < start and not key[0].endswith(
                ("_active", "_up", "_alive", "_fraction")):
            raise ValueError(f"counter {key} went backwards "
                             f"({start} -> {value})")
        delta[key] = value - start
    return delta


def family_sum(values: Mapping[Series, float], family: str,
               **labels: str) -> float:
    """Sum one family's series whose labels include every given pair."""
    want = set(labels.items())
    return sum(value for (name, have), value in values.items()
               if name == family and want <= set(have))
