"""The aequusd stand-alone runtime (``repro serve``).

Binds one site's Aequus stack to wall-clock time and puts the TCP server
in front of it: a tick thread advances the site's discrete-event engine by
the elapsed real time (multiplied by ``time_factor``), so the periodic
services — USS exchange (which also drains the serve plane's usage
ingress), UMS decay, FCS refresh — run on their configured intervals and
every FCS refresh publishes a fresh snapshot to the server.

Also home to the synthetic site builders shared by the CLI, the serve
benchmark, and the tests (a VO -> project -> user policy hierarchy with
seeded random shares and usage).
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time
from typing import IO, Any, Dict, Optional, Tuple, Union

import numpy as np

from ..core.policy import PolicyTree
from ..core.usage import UsageRecord
from ..obs import trace
from ..obs.evaluate import FairnessRecorder
from ..obs.jsonlog import JsonLogger
from ..obs.registry import MetricsRegistry
from ..services.fcs import FairshareCalculationService
from ..services.network import Network
from ..services.site import AequusSite, SiteConfig
from ..sim.engine import SimulationEngine
from .backend import SiteBackend
from .server import AequusServer, ServerThread

__all__ = ["AequusDaemon", "build_grid_policy", "build_demo_site",
           "serve_site"]


def build_grid_policy(n_users: int, users_per_project: int = 50,
                      projects_per_vo: int = 20, seed: int = 0) -> PolicyTree:
    """A realistic 3-level hierarchy: VOs -> projects -> users."""
    rng = np.random.default_rng(seed)
    tree = PolicyTree()
    users = 0
    vo = 0
    while users < n_users:
        vo_path = f"/vo{vo}"
        tree.set_share(vo_path, int(rng.integers(1, 100)))
        for p in range(projects_per_vo):
            if users >= n_users:
                break
            proj_path = f"{vo_path}/proj{p}"
            tree.set_share(proj_path, int(rng.integers(1, 100)))
            for _ in range(users_per_project):
                if users >= n_users:
                    break
                tree.set_share(f"{proj_path}/u{users}",
                               int(rng.integers(1, 100)))
                users += 1
        vo += 1
    return tree


def build_demo_site(n_users: int, site_name: str = "demo", seed: int = 0,
                    active_fraction: float = 0.7,
                    config: Optional[SiteConfig] = None
                    ) -> Tuple[SimulationEngine, AequusSite]:
    """A single self-contained site with seeded usage, refreshed and ready.

    The engine is advanced far enough that the UMS has merged the seeded
    usage and the FCS has published a snapshot computed from it.
    """
    engine = SimulationEngine()
    # one registry across network + services (+ the server, via serve_site /
    # AequusDaemon): a single METRICS scrape covers the whole stack
    registry = MetricsRegistry(constant_labels={"site": site_name},
                               clock=lambda: engine.now)
    network = Network(engine, registry=registry)
    policy = build_grid_policy(n_users, seed=seed)
    site = AequusSite(site_name, engine, network, policy=policy,
                      config=config or SiteConfig(), registry=registry)
    rng = np.random.default_rng(seed + 1)
    for path in policy.leaf_paths():
        if rng.random() < active_fraction:
            site.uss.record_job(UsageRecord(
                user=path.rsplit("/", 1)[-1], site=site_name,
                start=0.0, end=float(rng.integers(60, 36_000))))
    cfg = site.config
    engine.run_until(max(cfg.ums_refresh_interval, cfg.fcs_refresh_interval,
                         cfg.histogram_interval) + cfg.start_offset + 1.0)
    return engine, site


def serve_site(site: AequusSite, host: str = "127.0.0.1", port: int = 0,
               **server_kwargs) -> ServerThread:
    """Start an aequusd server thread for an existing site stack."""
    backend = SiteBackend.for_site(site)
    server_kwargs.setdefault("registry", site.registry)
    return ServerThread(AequusServer(backend, host, port,
                                     **server_kwargs)).start()


class AequusDaemon:
    """aequusd: one site stack, wall-clock ticked, served over TCP.

    With ``workers=N`` the daemon runs in sharded mode: instead of an
    in-process server thread it publishes every FCS refresh into shared
    memory and forks N per-core worker processes
    (:class:`~repro.serve.workers.WorkerPool`), each serving its own
    ``SO_REUSEPORT`` socket straight from the mapped snapshot.  The
    parent keeps the engine, the tick thread, and usage ingress.
    """

    def __init__(self, engine: SimulationEngine, site: AequusSite,
                 host: str = "127.0.0.1", port: int = 4730,
                 tick_interval: float = 0.5, time_factor: float = 1.0,
                 json_log: Optional[Union[JsonLogger, IO[str]]] = None,
                 recorder: Optional[FairnessRecorder] = None,
                 workers: int = 0,
                 virtual_epoch: Optional[float] = None,
                 **server_kwargs):
        self.engine = engine
        self.site = site
        self.tick_interval = tick_interval
        self.time_factor = time_factor
        #: fleet clock anchor (shared wall-clock timestamp; see repro.grid):
        #: exported in TRACE_EXPORT replies so a collector can align this
        #: process's span timestamps with its peers'
        self.virtual_epoch = virtual_epoch
        self.backend = SiteBackend.for_site(site)
        self.workers = workers
        self.shm_writer = None
        self.pool = None
        self.server: Optional[AequusServer] = None
        self._thread: Optional[ServerThread] = None
        # the service spans (uss/ums/fcs) land in the process-default
        # tracer; surface its eviction counter in this site's scrapes
        trace.default_tracer().bind_registry(site.registry)
        self._trace_spool: Optional[trace.TraceSpool] = None
        if workers > 0:
            from .shm import ShmSnapshotWriter
            from .workers import WorkerPool
            self.shm_writer = ShmSnapshotWriter(site.name)
            self.shm_writer.attach_fcs(site.fcs, irs=site.irs)
            # workers serve from shm and must not export their forked
            # tracer copies; the tick loop drains the parent tracer into a
            # flock-guarded spool any worker can answer TRACE_EXPORT from
            self._trace_spool = trace.TraceSpool(os.path.join(
                tempfile.gettempdir(),
                f"aequus-trace-{site.name}-{os.getpid()}.jsonl"))
            self.pool = WorkerPool(
                self.shm_writer.name, workers, host=host, port=port,
                site=site.name, usage_sink=self.backend.report_usage,
                registry=site.registry,
                refresh_interval=site.config.fcs_refresh_interval,
                trace_spool=self._trace_spool.path,
                trace_meta=self._trace_meta(),
                **server_kwargs)
        else:
            server_kwargs.setdefault("registry", site.registry)
            server_kwargs.setdefault("trace_export", self._trace_export)
            self.server = AequusServer(self.backend, host, port,
                                       **server_kwargs)
            self._thread = ServerThread(self.server)
        self._host = host
        self._ticker: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._stopped = False
        self.ticks = 0
        self._tick_errors = site.registry.counter(
            "aequus_daemon_tick_errors_total",
            "Tick-thread rounds that raised; the daemon logs each and "
            "keeps ticking").labels()
        #: where tick errors go when no operational log is configured
        self._error_log = JsonLogger(sys.stderr)
        #: structured operational log: one JSON line per tick, per FCS
        #: refresh (seq, duration, cache hit/miss) and per exchange round;
        #: wall-clock timestamps (this is the real-time runtime)
        self.log: Optional[JsonLogger] = None
        if json_log is not None:
            self.log = json_log if isinstance(json_log, JsonLogger) \
                else JsonLogger(json_log)
            site.fcs.add_refresh_listener(self._log_refresh, fire_now=False)
        #: optional fairness-quality recorder, sampled on the engine's
        #: virtual clock (its periodic tick fires inside _tick_loop runs)
        self.recorder = recorder
        if recorder is not None:
            recorder.attach(engine)

    def _trace_meta(self) -> Dict[str, Any]:
        """Clock-alignment metadata stamped onto TRACE_EXPORT replies."""
        return {"site": self.site.name,
                "virtual_epoch": self.virtual_epoch,
                "time_factor": self.time_factor}

    def _trace_export(self) -> Dict[str, Any]:
        """TRACE_EXPORT hook (single-server mode): drain the live tracer."""
        tracer = trace.default_tracer()
        body = self._trace_meta()
        body["events"] = tracer.drain()
        body["dropped"] = tracer.dropped
        body["engine_now"] = self.engine.now
        return body

    def _pump_trace_spool(self) -> None:
        """Move freshly recorded spans from the tracer ring to the spool."""
        tracer = trace.default_tracer()
        if tracer.enabled:
            self._trace_spool.append(tracer.drain())

    def _log_refresh(self, fcs: FairshareCalculationService) -> None:
        horizons = fcs.usage_horizons()
        staleness = [max(0.0, self.engine.now - h) for h in horizons.values()]
        self.log.log("refresh", site=fcs.site, seq=fcs.publishes,
                     duration=round(fcs.last_refresh_seconds, 6),
                     cache="hit" if fcs.last_refresh_hit else "miss",
                     users=len(fcs.values_view()),
                     origins=len(horizons),
                     staleness_max=round(max(staleness), 3)
                     if staleness else 0.0)

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self.pool.port if self.pool is not None else self.server.port

    def start(self) -> "AequusDaemon":
        if self.pool is not None:
            # fork before any daemon thread exists: a child must never
            # inherit a copy of a running thread's locks
            self.pool.start()
            self.pool.wait_ready()
        else:
            self._thread.start()
        self._stopped = False
        self._stopping.clear()
        self._ticker = threading.Thread(target=self._tick_loop,
                                        name="aequusd-tick", daemon=True)
        self._ticker.start()
        return self

    def _tick_loop(self) -> None:
        last = time.monotonic()
        while not self._stopping.wait(self.tick_interval):
            now = time.monotonic()
            elapsed = (now - last) * self.time_factor
            last = now
            try:
                self._tick(elapsed)
            except Exception as exc:
                # one bad tick (a pump handler or service that raised) must
                # not end the thread: the daemon would go on serving a
                # frozen snapshot.  Count it, log it, tick again.
                self._tick_errors.inc()
                (self.log or self._error_log).log(
                    "tick_error", site=self.site.name, n=self.ticks,
                    error=type(exc).__name__, detail=str(exc)[:500])

    def _tick(self, elapsed: float) -> None:
        sent_before = self.site.uss.exchanges_sent if self.log else 0
        t0 = time.perf_counter()
        # the engine is only ever advanced from this thread; server
        # threads reach the stack through snapshots and ingress queues.
        # Pump the USS transport on both sides of the advance: inbound
        # exchanges buffered by a socket transport (repro.grid) are
        # applied on this thread, before the services tick and again
        # right after, so a freshly arrived delta never waits a full
        # tick to land (the sim transport's pump is a no-op).
        self.site.network.pump()
        self.engine.run_until(self.engine.now + elapsed)
        self.site.network.pump()
        if self._trace_spool is not None:
            self._pump_trace_spool()
        self.ticks += 1
        if self.log is not None:
            self.log.log("tick", n=self.ticks,
                         engine_now=round(self.engine.now, 3),
                         advanced=round(elapsed, 3),
                         duration=round(time.perf_counter() - t0, 6))
            exchanged = self.site.uss.exchanges_sent - sent_before
            if exchanged:
                self.log.log("exchange", site=self.site.name,
                             rounds=exchanged,
                             seq=self.site.uss._seq,
                             stale=self.site.uss.exchanges_stale,
                             skipped=self.site.uss.exchanges_skipped)

    def stop(self) -> None:
        """Shut the daemon down; idempotent and safe before :meth:`start`.

        Supervisors double-signal (SIGTERM then SIGKILL-escalation paths
        call stop again) and test teardowns race construction failures, so
        stopping twice — or stopping a daemon that never started — must be
        a no-op, and a wedged tick thread must not hang shutdown (the join
        is bounded; the thread is a daemon thread either way).
        """
        if self._stopped:
            return
        self._stopped = True
        self._stopping.set()
        if self._ticker is not None:
            self._ticker.join(5.0)
            self._ticker = None
        if self.pool is not None:
            self.pool.stop()
            self.shm_writer.close()
            self._trace_spool.unlink()
        elif self._thread is not None:
            self._thread.stop()
        if self.recorder is not None:
            self.recorder.stop()
        self.site.stop()

    def stats(self) -> Dict[str, int]:
        if self.pool is not None:
            return dict(self.pool.aggregate(), ticks=self.ticks)
        return dict(self.server.stats, ticks=self.ticks)
