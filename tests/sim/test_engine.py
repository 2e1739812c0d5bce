"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import SimulationEngine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(9.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fifo(self):
        engine = SimulationEngine()
        fired = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        times = []
        engine.schedule(3.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [3.0]

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule(-1.0, lambda: None)

    def test_callbacks_may_schedule_more(self):
        engine = SimulationEngine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(1.0, lambda: chain(n + 1))

        engine.schedule(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0


class TestRunUntil:
    def test_horizon_inclusive(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(1))
        engine.schedule(5.1, lambda: fired.append(2))
        engine.run_until(5.0)
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.pending_events == 1

    def test_clock_lands_on_horizon_without_events(self):
        engine = SimulationEngine()
        engine.run_until(42.0)
        assert engine.now == 42.0

    def test_backwards_horizon_rejected(self):
        engine = SimulationEngine()
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        for i in range(4):
            engine.schedule(float(i), lambda: None)
        engine.run()
        assert engine.events_processed == 4


class TestPeriodic:
    def test_fires_every_interval(self):
        engine = SimulationEngine()
        times = []
        engine.periodic(10.0, lambda: times.append(engine.now))
        engine.run_until(35.0)
        assert times == [0.0, 10.0, 20.0, 30.0]

    def test_start_offset(self):
        engine = SimulationEngine()
        times = []
        engine.periodic(10.0, lambda: times.append(engine.now), start_offset=3.0)
        engine.run_until(25.0)
        assert times == [3.0, 13.0, 23.0]

    def test_cancel_stops_firing(self):
        engine = SimulationEngine()
        times = []
        task = engine.periodic(5.0, lambda: times.append(engine.now))
        engine.run_until(11.0)
        task.cancel()
        engine.run_until(50.0)
        assert times == [0.0, 5.0, 10.0]

    def test_jitter_fn_adds_delay(self):
        engine = SimulationEngine()
        times = []
        engine.periodic(10.0, lambda: times.append(engine.now),
                        jitter_fn=lambda: 1.0)
        engine.run_until(25.0)
        assert times == [0.0, 11.0, 22.0]

    def test_raising_callback_keeps_its_schedule(self):
        engine = SimulationEngine()
        times = []

        def tick():
            times.append(engine.now)
            if len(times) == 2:
                raise RuntimeError("one bad round")

        engine.periodic(10.0, tick)
        with pytest.raises(RuntimeError):
            engine.run_until(35.0)
        engine.run_until(35.0)
        assert times == [0.0, 10.0, 20.0, 30.0]

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().periodic(0.0, lambda: None)

    def test_step_returns_false_on_empty_heap(self):
        assert SimulationEngine().step() is False

    def test_run_max_events(self):
        engine = SimulationEngine()
        fired = []
        for i in range(10):
            engine.schedule(float(i), lambda i=i: fired.append(i))
        engine.run(max_events=3)
        assert fired == [0, 1, 2]
