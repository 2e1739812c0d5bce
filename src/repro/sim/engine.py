"""Deterministic discrete-event simulation engine.

The paper evaluates Aequus on a physical test bed where actual computation
is replaced with idle-wait jobs; the quantity under study is *scheduling
behaviour over time*, not hardware speed.  We therefore reproduce the test
bed as a discrete-event simulation: a single virtual clock, an event heap,
and periodic processes (service refresh loops, scheduler passes, metric
samplers).

Determinism rules:

* ties on the event heap break on a monotonically increasing sequence
  number, so same-time events fire in scheduling order;
* all randomness comes from named, seeded RNG streams
  (:mod:`repro.sim.random`), never from global state.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["SimulationEngine", "PeriodicTask", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling into the past)."""


class PeriodicTask:
    """Handle for a recurring callback; cancel() stops future firings."""

    __slots__ = ("interval", "callback", "cancelled", "jitter_fn")

    def __init__(self, interval: float, callback: Callable[[], Any],
                 jitter_fn: Optional[Callable[[], float]] = None):
        self.interval = interval
        self.callback = callback
        self.cancelled = False
        self.jitter_fn = jitter_fn

    def cancel(self) -> None:
        self.cancelled = True


class SimulationEngine:
    """Virtual-time event loop.

    Events are ``(time, seq, callback)``; :meth:`run_until` drains the heap
    up to (and including) a horizon.  Callbacks may schedule further events.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Callable[[], Any]]] = []
        self._seq = itertools.count()
        self._events_processed = 0

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    # -- scheduling -----------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` when the clock reaches ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now {self._now}")
        heapq.heappush(self._heap, (float(time), next(self._seq), callback))

    def schedule(self, delay: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule_at(self._now + delay, callback)

    def periodic(self, interval: float, callback: Callable[[], Any],
                 start_offset: float = 0.0,
                 jitter_fn: Optional[Callable[[], float]] = None) -> PeriodicTask:
        """Register a recurring callback every ``interval`` seconds.

        ``start_offset`` delays the first firing (useful to de-phase service
        refresh loops across sites, as real deployments are never aligned).
        ``jitter_fn``, if given, returns an extra non-negative delay added to
        each period.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        task = PeriodicTask(interval, callback, jitter_fn)

        def fire() -> None:
            if task.cancelled:
                return
            try:
                task.callback()
            finally:
                # a callback that raises keeps its schedule: the aequusd
                # tick loop survives the error, and the service must too
                delay = task.interval + (
                    task.jitter_fn() if task.jitter_fn else 0.0)
                self.schedule(delay, fire)

        self.schedule(start_offset, fire)
        return task

    # -- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False if the heap is empty."""
        if not self._heap:
            return False
        time, _, callback = heapq.heappop(self._heap)
        self._now = time
        self._events_processed += 1
        callback()
        return True

    def run_until(self, horizon: float) -> None:
        """Process all events with time <= ``horizon``; clock ends at horizon."""
        if horizon < self._now:
            raise SimulationError(f"horizon {horizon} < now {self._now}")
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        self._now = max(self._now, horizon)

    def run_for(self, duration: float) -> None:
        """Advance the clock by ``duration`` seconds (run_until now+duration)."""
        self.run_until(self._now + duration)

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the heap completely (or up to ``max_events``)."""
        count = 0
        while self._heap:
            self.step()
            count += 1
            if max_events is not None and count >= max_events:
                return
