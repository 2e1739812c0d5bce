"""The in-process timing pass of a traced run.

Builds one site from the workload's policy in this process, on a
simulated bus, and replays the usage reports the origin accepted during
the window, one exchange interval at a time.  Each step calls a public
layer function directly and times it: ``drain_ingest``, the grid wire
codec on the delta the exchange produced, ``UsageMonitoringService.refresh``,
``FairshareCalculationService.refresh``, ``snapshot_from_fcs`` +
``SnapshotStore.publish``, ``ShmSnapshotWriter.publish``, the serve
protocol codec, ``SiteBackend.lookup_fairshare`` and
``ShmEpochView.lookup``.  The UMS and FCS run only when called here (their
periodic intervals are pushed past the replay), so nothing else runs
inside a timed call.
"""

from __future__ import annotations

import time
from multiprocessing import resource_tracker
from typing import Dict, List, Sequence, Tuple

from repro.core.usage import UsageRecord
from repro.grid.wire import decode_frame, encode_frame
from repro.obs.export import render
from repro.obs.registry import MetricsRegistry
from repro.serve.backend import SiteBackend
from repro.serve.daemon import build_grid_policy
from repro.serve.protocol import decode_payload
from repro.serve.protocol import encode_frame as encode_serve_frame
from repro.serve.shm import ShmSnapshotReader, ShmSnapshotWriter
from repro.serve.snapshot import SnapshotStore, snapshot_from_fcs
from repro.services.network import Network
from repro.services.site import AequusSite, SiteConfig
from repro.sim.engine import SimulationEngine

from stats import family_sum, percentile, series
from workloads import EXCHANGE_S, HISTOGRAM_S, USERS

#: batches replayed (exchange intervals of recorded reports)
MAX_BATCHES = 8
LOOKUPS = 2000


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def timing_pass(seed: int,
                batches: Sequence[Sequence[Tuple[str, float]]],
                keys: Sequence[str]) -> Dict[str, float]:
    engine = SimulationEngine()
    registry = MetricsRegistry(constant_labels={"site": "t0"},
                               clock=lambda: engine.now)
    network = Network(engine, registry=registry)
    config = SiteConfig(histogram_interval=HISTOGRAM_S,
                        uss_exchange_interval=EXCHANGE_S,
                        ums_refresh_interval=1e9, fcs_refresh_interval=1e9,
                        start_offset=EXCHANGE_S)
    site = AequusSite("t0", engine, network,
                      policy=build_grid_policy(USERS, seed=seed),
                      config=config, registry=registry)
    site.uss.add_peer("peer")
    captured: List = []
    network.connect("uss:peer", captured.append)
    store = SnapshotStore()
    writer = ShmSnapshotWriter("t0")
    reader = None
    times: Dict[str, List[float]] = {k: [] for k in (
        "drain", "encode", "decode", "ums", "fcs", "store", "shm",
        "dirty")}
    try:
        # prime: first (full) exchange, full compile, first publishes
        engine.run_until(2 * EXCHANGE_S)
        site.ums.refresh()
        site.fcs.refresh()
        writer.publish(snapshot_from_fcs(site.fcs))
        for batch in list(batches)[:MAX_BATCHES]:
            now = engine.now
            for user, duration in batch:
                site.uss.enqueue_record(UsageRecord(
                    user=user, site="t0", start=max(0.0, now - duration),
                    end=now))
            times["drain"].append(_timed(site.uss.drain_ingest)[1])
            captured.clear()
            engine.run_until(now + EXCHANGE_S)
            for message in captured:
                frame, took = _timed(encode_frame, "t0", "peer", message)
                times["encode"].append(took)
                times["decode"].append(_timed(decode_frame, frame[4:])[1])
            times["ums"].append(_timed(site.ums.refresh)[1])
            times["fcs"].append(_timed(site.fcs.refresh)[1])
            times["dirty"].append(family_sum(
                series(render(registry)), "aequus_refresh_dirty_fraction"))
            t0 = time.perf_counter()
            snap = snapshot_from_fcs(site.fcs)
            store.publish(snap)
            times["store"].append(time.perf_counter() - t0)
            times["shm"].append(_timed(writer.publish, snap)[1])
        backend = SiteBackend("t0", site.fcs, store=store)
        lookups = [_timed(backend.lookup_fairshare, k)[1]
                   for k in keys[:LOOKUPS]]
        reader = ShmSnapshotReader(writer.name)
        view = reader.view()
        shm_lookups = [_timed(view.lookup, k)[1] for k in keys[:LOOKUPS]]
        reply = {"id": 1, "ok": True, "value": 0.5, "known": True, "seq": 1,
                 "epoch": [0, 1], "horizons": {"s0": 1.0, "s1": 1.0},
                 "staleness": {"s0": 0.1, "s1": 0.1}}
        encs = [_timed(encode_serve_frame, reply) for _ in range(LOOKUPS)]
        body = encs[0][0][4:]
        decs = [_timed(decode_payload, body)[1] for _ in range(LOOKUPS)]
    finally:
        if reader is not None:
            reader.close()
        writer.close()
        site.stop()
        # the writer's segments started CPython's resource tracker in this
        # process; stopping it also waits for it, so it cannot outlive the run
        resource_tracker._resource_tracker._stop()

    def med(key: str, scale: float) -> float:
        vals = times[key]
        return percentile(vals, 50) * scale if vals else 0.0

    return {
        "uss.drain_p50_ms": med("drain", 1e3),
        "wire.encode_us_per_frame": med("encode", 1e6),
        "wire.decode_us_per_frame": med("decode", 1e6),
        "timing.ums_refresh_p50_ms": med("ums", 1e3),
        "timing.fcs_refresh_p50_ms": med("fcs", 1e3),
        "fcs.dirty_fraction_p50": med("dirty", 1.0),
        "snapshot.store_publish_p50_ms": med("store", 1e3),
        "shm.publish_p50_ms": med("shm", 1e3),
        "server.backend_lookup_p50_us": percentile(lookups, 50) * 1e6,
        "shm.view_lookup_p50_us": percentile(shm_lookups, 50) * 1e6,
        "protocol.encode_us": percentile([t for _, t in encs], 50) * 1e6,
        "protocol.decode_us": percentile(decs, 50) * 1e6,
    }
