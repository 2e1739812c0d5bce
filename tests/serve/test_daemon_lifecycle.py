"""AequusDaemon start/stop contract: idempotent, orderable, bounded.

Supervisors double-signal, test teardowns race construction, and a
daemon that was never started still gets stop() called by ``finally``
blocks — none of that may raise or hang.
"""

import io
import json
import threading
import time

from repro.serve.daemon import AequusDaemon, build_demo_site


def make_daemon(**kwargs):
    engine, site = build_demo_site(8, seed=3)
    kwargs.setdefault("port", 0)
    kwargs.setdefault("tick_interval", 0.05)
    return AequusDaemon(engine, site, **kwargs)


class TestStopIdempotence:
    def test_stop_before_start_is_safe(self):
        daemon = make_daemon()
        daemon.stop()  # never started: must not raise

    def test_double_stop_before_start_is_safe(self):
        daemon = make_daemon()
        daemon.stop()
        daemon.stop()

    def test_double_stop_after_start_is_safe(self):
        daemon = make_daemon().start()
        daemon.stop()
        daemon.stop()

    def test_stop_joins_tick_thread(self):
        daemon = make_daemon().start()
        assert daemon._ticker is not None
        ticker = daemon._ticker
        daemon.stop()
        assert not ticker.is_alive()
        assert daemon._ticker is None

    def test_stop_is_bounded_even_when_ticker_wedged(self):
        daemon = make_daemon().start()
        # replace the ticker with a thread that ignores the stop event:
        # stop() must come back after its bounded join, not hang forever
        wedge = threading.Event()
        daemon._ticker = threading.Thread(target=wedge.wait, daemon=True)
        daemon._ticker.start()
        start = time.monotonic()
        daemon.stop()
        assert time.monotonic() - start < 30.0
        wedge.set()

class TestTickLoop:
    def test_ticks_advance_engine_and_pump_transport(self):
        daemon = make_daemon(time_factor=50.0).start()
        try:
            before = daemon.engine.now
            deadline = time.monotonic() + 10.0
            while daemon.engine.now <= before and time.monotonic() < deadline:
                time.sleep(0.05)
            assert daemon.engine.now > before
        finally:
            daemon.stop()


class TestTickErrors:
    def test_failing_tick_is_logged_counted_and_survived(self):
        buf = io.StringIO()
        daemon = make_daemon(time_factor=600.0, json_log=buf)
        network = daemon.site.network
        pump = network.pump
        raised = []

        def pump_that_fails_once():
            if not raised:
                raised.append(daemon.ticks)
                raise RuntimeError("transport fault")
            return pump()

        network.pump = pump_that_fails_once
        daemon.start()
        try:
            deadline = time.monotonic() + 10.0
            while not raised and time.monotonic() < deadline:
                time.sleep(0.02)
            assert raised
            seq = daemon.backend.snapshot().seq
            while time.monotonic() < deadline and (
                    daemon.ticks <= raised[0] + 2
                    or daemon.backend.snapshot().seq <= seq):
                time.sleep(0.02)
            # the thread outlived the fault: it kept ticking and the
            # served snapshot kept moving
            assert daemon._ticker.is_alive()
            assert daemon.ticks > raised[0] + 2
            assert daemon.backend.snapshot().seq > seq
            assert daemon._tick_errors.value == 1
        finally:
            daemon.stop()
        errors = [json.loads(line) for line in buf.getvalue().splitlines()
                  if '"tick_error"' in line]
        assert len(errors) == 1
        assert errors[0]["error"] == "RuntimeError"
        assert errors[0]["detail"] == "transport fault"
