"""Per-layer metrics of a traced run.

Three sources, each scoped to the traced window:

* the daemons' spans (``TRACE_EXPORT``), for layer busy times and, through
  :mod:`ledger`, the per-probe split of the update delay;
* ``METRICS`` scraped at the window's two edges, as counter deltas — never
  the cumulative since-boot values;
* the in-process timing pass (:mod:`timing`) and the generator itself.

Each metric's name starts with the layer it measures; README.md maps every
one to the end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ledger import SpanIndex, p, probe_ledger, tick_busy
from stats import family_sum, series, tail_percentile, window_delta

#: |ledger residual p50| above this, or fewer probes than the share below
#: with a complete span chain, fails the traced run
LEDGER_TOLERANCE_MS = 10.0
LEDGER_MIN_MATCHED = 0.9


def _counter_deltas(window, sites: Sequence[str], problems: List[str]
                    ) -> Dict[str, Dict[str, float]]:
    """Counter growth per site over the window.  A site whose scrape at
    either edge failed or never came fails the run: without both edges
    there is no window delta to report."""
    out = {}
    for site in sites:
        if site not in window.metrics_at_start \
                or site not in window.metrics_at_end:
            problems.append(f"METRICS at {site}: no scrape at both window "
                            f"edges")
            continue
        out[site] = window_delta(series(window.metrics_at_start[site]),
                                 series(window.metrics_at_end[site]))
    return out


def _sum(deltas, sites, family: str, **labels: str) -> float:
    return sum(family_sum(deltas[s], family, **labels) for s in sites
               if s in deltas)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, baseline, traced, events: List[dict],
                  offset: float, utilization: Sequence[float],
                  ping: Sequence[float],
                  timing: Dict[str, float], problems: List[str]
                  ) -> Dict[str, Tuple[float, str]]:
    seconds = traced.t1 - traced.t0
    lo, hi = (traced.t0 + offset) * 1e6, (traced.t1 + offset) * 1e6
    inside = [ev for ev in events if lo <= ev["ts"] < hi]
    index = SpanIndex(events)
    origins = sorted(workload.report_rate)
    sites = sorted({ev["site"] for ev in events} | set(origins))

    def durs(name: str, where=None) -> List[float]:
        return [ev["dur"] / 1e6 for ev in inside if ev["name"] == name
                and (where is None or ev["site"] in where)]

    rows, missing = probe_ledger(index, traced.landed, offset)
    matched = _ratio(len(rows), len(rows) + missing)

    def comp(name: str) -> List[float]:
        return [row[name] for row in rows]

    fcs = [ev for ev in inside if ev["name"] == "fcs.refresh"]
    hits = sum(1 for ev in fcs if ev["args"].get("cache") == "hit")
    snaps = [ev for ev in inside if ev["name"] == "snapshot.publish"]
    unchanged = sum(1 for ev in snaps if index.by_id.get(
        (ev["pid"], ev["args"].get("parent")), {}).get("args", {})
        .get("cache") == "hit")

    lags: List[float] = []
    for origin in origins:
        reads = [(t - v) for o, t, v in traced.clock_reads if o == origin]
        if reads:
            base = min(reads)
            lags.extend(r - base for r in reads)

    deltas = _counter_deltas(traced, sites, problems)
    payload = _sum(deltas, sites, "aequus_network_payload_bytes_total")
    framed = _sum(deltas, sites, "aequus_grid_peer_bytes_total",
                  direction="out")
    residual = p(comp("residual"), 50)
    delays_t = traced.delays
    delays_u = [d for w in baseline for d in w.delays]
    lookup_path = ("shm.view_lookup_p50_us" if workload.topology == "shard"
                   else "server.backend_lookup_p50_us")
    lookups = [x for lat in traced.lookup_lat.values() for x in lat]
    try:
        lookup_p99 = tail_percentile(lookups, 99) * 1e6
    except ValueError as exc:
        problems.append(f"lookups: {exc}")
        lookup_p99 = p(lookups, 99, 1e6)

    metrics: Dict[str, Tuple[float, str]] = {
        "gen.late_p99_ms": (p(traced.late, 99), "ms"),
        "gen.cpu_util": (utilization[1], "cores"),
        # CPU time the hypervisor gave elsewhere: tails grow with it
        "gen.steal_ratio": (utilization[2], "ratio"),
        "gen.ops_sent": (float(traced.ops_sent), "count"),
        # the open-loop lookup tail of the traced window; not an end-to-end
        # metric because it does not repeat closely enough to be bounded
        "lookup.p99_us": (lookup_p99, "us"),
        "daemon.tick_p50_ms": (p(tick_busy(inside), 50), "ms"),
        "daemon.tick_p99_ms": (p(tick_busy(inside), 99), "ms"),
        "daemon.tick_lag_p99_ms": (p(lags, 99), "ms"),
        "uss.ingest_wait_p50_ms": (p(comp("ingest_wait"), 50), "ms"),
        "uss.ingest_wait_p99_ms": (p(comp("ingest_wait"), 99), "ms"),
        "uss.exchange_p50_ms": (p(durs("uss.exchange", origins), 50), "ms"),
        "uss.exchange_p99_ms": (p(durs("uss.exchange", origins), 99), "ms"),
        "uss.apply_p50_ms": (p(durs("uss.apply"), 50), "ms"),
        "uss.apply_p99_ms": (p(durs("uss.apply"), 99), "ms"),
        "uss.delta_entries_per_publish": (_ratio(
            _sum(deltas, origins, "aequus_network_payload_entries_total"),
            _sum(deltas, origins, "aequus_uss_exchanges_total",
                 event="sent")), "entries"),
        "uss.resyncs": (_sum(deltas, sites, "aequus_uss_resyncs_total",
                             event="requested"), "count"),
        "uss.stale_drops": (_sum(deltas, sites, "aequus_uss_exchanges_total",
                                 event="stale"), "count"),
        "wire.encode_us_per_frame": (timing["wire.encode_us_per_frame"],
                                     "us"),
        "wire.decode_us_per_frame": (timing["wire.decode_us_per_frame"],
                                     "us"),
        "wire.framing_ratio": (_ratio(framed, payload), "ratio"),
        "wire.payload_bytes_per_s": (payload / seconds, "B/s"),
        "transport.transit_p50_ms": (p(comp("transit"), 50), "ms"),
        "transport.transit_p99_ms": (p(comp("transit"), 99), "ms"),
        "transport.frames": (_sum(deltas, sites, "aequus_grid_frames_total",
                                  direction="out"), "count"),
        "transport.reconnects": (_sum(deltas, sites,
                                      "aequus_grid_reconnects_total"),
                                 "count"),
        "transport.drops": (_sum(deltas, sites,
                                 "aequus_grid_frames_dropped_total"),
                            "count"),
        "ums.refresh_wait_p50_ms": (p(comp("refresh_wait"), 50), "ms"),
        "ums.refresh_p50_ms": (p(durs("ums.refresh"), 50), "ms"),
        "ums.refresh_p99_ms": (p(durs("ums.refresh"), 99), "ms"),
        "ums.dirty_users_per_refresh": (_ratio(
            _sum(deltas, sites, "aequus_ums_users_total", how="recomputed"),
            _sum(deltas, sites, "aequus_ums_refreshes_total", path="all")),
            "users"),
        "fcs.refresh_p50_ms": (p(durs("fcs.refresh"), 50), "ms"),
        "fcs.refresh_p99_ms": (p(durs("fcs.refresh"), 99), "ms"),
        "fcs.cache_hit_ratio": (_ratio(hits, len(fcs)), "ratio"),
        "fcs.compile_full": (_sum(deltas, sites, "aequus_compile_total",
                                  kind="full"), "count"),
        "fcs.dirty_fraction_p50": (timing["fcs.dirty_fraction_p50"],
                                   "ratio"),
        "snapshot.publish_p50_ms": (p(durs("snapshot.publish"), 50), "ms"),
        "snapshot.publish_p99_ms": (p(durs("snapshot.publish"), 99), "ms"),
        "snapshot.unchanged_publish_ratio": (_ratio(unchanged, len(snaps)),
                                             "ratio"),
        "snapshot.first_serve_p50_ms": (p(comp("first_serve"), 50), "ms"),
        "shm.publish_p50_ms": (timing["shm.publish_p50_ms"], "ms"),
        "server.lookup_p50_us": (timing[lookup_path], "us"),
        "server.ping_p50_us": (p(ping, 50, 1e6), "us"),
        "server.coalesced_ratio": (_ratio(
            _sum(deltas, sites, "aequus_coalesced_total"),
            _sum(deltas, sites, "aequus_requests_total")), "ratio"),
        "server.errors": (_sum(deltas, sites, "aequus_errors_total"),
                          "count"),
        "ledger.residual_p50_ms": (residual, "ms"),
        "ledger.tracing_overhead_p50_ms": (
            p(delays_t, 50) - p(delays_u, 50), "ms"),
        "ledger.matched_ratio": (matched, "ratio"),
    }
    # the on-path share of each layer's busy time; the waits are above
    for name in ("publish", "apply", "ums", "fcs", "snapshot"):
        metrics[f"ledger.{name}_p50_ms"] = (p(comp(name), 50), "ms")
    for name in ("uss.drain_p50_ms", "timing.ums_refresh_p50_ms",
                 "timing.fcs_refresh_p50_ms", "snapshot.store_publish_p50_ms",
                 "protocol.encode_us", "protocol.decode_us"):
        metrics[name] = (timing[name], name.rsplit("_", 1)[-1])
    if abs(residual) > LEDGER_TOLERANCE_MS:
        problems.append(f"ledger residual p50 {residual:.2f} ms exceeds "
                        f"{LEDGER_TOLERANCE_MS} ms")
    if matched < LEDGER_MIN_MATCHED:
        problems.append(f"only {matched:.0%} of probes had a full span chain")
    return metrics
