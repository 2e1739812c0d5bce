"""The update-delay ledger: split each probe's delay across the layers.

Inputs are the probes the generator landed and the daemons' own spans,
drained through ``TRACE_EXPORT``.  The daemons link one publish across
processes by trace id::

    origin A:   uss.exchange > uss.publish(trace=T) > grid.frame
    observer B: uss.apply(trace=T, origin_vts) -> ums.refresh(traces∋T)
                -> fcs.refresh(traces∋T) > snapshot.publish(traces∋T)

A probe (report at A with clock ``v``, landed at B) rode the first apply
at B from A whose ``origin_vts > v``: that publish was the first one built
after the report was drained.  From there the chain gives every boundary,
and the ledger splits the measured delay into

    ingest_wait   due -> A's exchange tick starts (delay source II at A)
    publish       A's exchange tick (drain, delta build, send)
    transit       A's tick ends -> B starts applying (wire + B's pump wait)
    apply         B applies the delta
    refresh_wait  apply ends -> B's UMS refresh starts (source II at B)
    ums           B's UMS refresh
    fcs           B's FCS refresh minus its snapshot publish
    snapshot      B's snapshot publish (the shm epoch write on r0)
    first_serve   publish ends -> the poll reply that showed the probe

The residual is the measured delay minus their sum: the time between
B's UMS and FCS refreshes that no span covers, plus clock-mapping error.
All daemon spans are stamped in wall time (``time.time``); the
generator's ``perf_counter`` stamps are mapped by one measured offset.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from stats import percentile

COMPONENTS = ("ingest_wait", "publish", "transit", "apply", "refresh_wait",
              "ums", "fcs", "snapshot", "first_serve")

#: a tick is the run of top-level tick-thread spans with gaps below this
TICK_GAP_S = 0.005


def _start(ev: dict) -> float:
    return ev["ts"] / 1e6


def _end(ev: dict) -> float:
    return (ev["ts"] + ev["dur"]) / 1e6


def _dur(ev: dict) -> float:
    return ev["dur"] / 1e6


class SpanIndex:
    """The lookups the ledger needs over one run's daemon spans."""

    def __init__(self, events: Sequence[dict]):
        self.events = list(events)
        self.applies: Dict[Tuple[str, str], Tuple[List[float], List[dict]]] = {}
        self.publish: Dict[str, dict] = {}
        self.by_id: Dict[Tuple[int, int], dict] = {}
        self.claimed: Dict[Tuple[str, str, str], dict] = {}
        applies: Dict[Tuple[str, str], List[Tuple[float, dict]]] = {}
        for ev in self.events:
            args = ev.get("args", {})
            self.by_id[(ev["pid"], args.get("id"))] = ev
            name = ev["name"]
            if name == "uss.apply" and args.get("origin_vts") is not None:
                applies.setdefault((ev["site"], args["origin"]), []).append(
                    (float(args["origin_vts"]), ev))
            elif name == "uss.publish":
                self.publish[args["trace"]] = ev
            elif name in ("ums.refresh", "fcs.refresh", "snapshot.publish"):
                for trace_id in args.get("traces", ()):
                    self.claimed.setdefault((ev["site"], name, trace_id), ev)
        for key, pairs in applies.items():
            pairs.sort(key=lambda p: p[0])
            self.applies[key] = ([p[0] for p in pairs], [p[1] for p in pairs])

    def chain(self, origin: str, observer: str, v: float):
        """The spans a report at ``origin`` read at ``v`` travelled through."""
        found = self.applies.get((observer, origin))
        if not found:
            return None
        vts, evs = found
        i = bisect.bisect_right(vts, v)
        if i == len(evs):
            return None
        apply = evs[i]
        trace_id = apply["args"]["trace"]
        pub = self.publish.get(trace_id)
        if pub is None:
            return None
        exchange = self.by_id.get((pub["pid"], pub["args"].get("parent")))
        ums = self.claimed.get((observer, "ums.refresh", trace_id))
        fcs = self.claimed.get((observer, "fcs.refresh", trace_id))
        snap = self.claimed.get((observer, "snapshot.publish", trace_id))
        if None in (exchange, ums, fcs, snap):
            return None
        return exchange, apply, ums, fcs, snap


def probe_ledger(index: SpanIndex, landed, offset: float
                 ) -> Tuple[List[Dict[str, float]], int]:
    """Per-probe components (seconds) and how many probes had no chain.

    ``landed`` holds the generator's (origin, observer, v, due, t_land)
    tuples in ``perf_counter`` time; ``offset`` maps them onto the
    daemons' wall clock.
    """
    rows: List[Dict[str, float]] = []
    missing = 0
    for origin, observer, v, due, t_land in landed:
        chain = index.chain(origin, observer, v)
        if chain is None:
            missing += 1
            continue
        exchange, apply, ums, fcs, snap = chain
        due_w, land_w = due + offset, t_land + offset
        row = {
            "ingest_wait": _start(exchange) - due_w,
            "publish": _dur(exchange),
            "transit": _start(apply) - _end(exchange),
            "apply": _dur(apply),
            "refresh_wait": _start(ums) - _end(apply),
            "ums": _dur(ums),
            "fcs": _dur(fcs) - _dur(snap),
            "snapshot": _dur(snap),
            "first_serve": land_w - _end(snap),
        }
        row["delay"] = t_land - due
        row["residual"] = row["delay"] - sum(row[c] for c in COMPONENTS)
        rows.append(row)
    return rows, missing


def tick_busy(events: Sequence[dict]) -> List[float]:
    """Busy time of each daemon tick that ran an FCS refresh.

    The tick thread is the one running ``fcs.refresh``; its top-level
    spans (applies pumped in, exchange, UMS and FCS refreshes) run back to
    back inside one tick, and ticks are ``tick_interval`` apart, so a gap
    above ``TICK_GAP_S`` separates two ticks.  Ticks without a refresh
    (an exchange alone, a pumped apply) are left out.
    """
    tick_tid: Dict[str, int] = {}
    for ev in events:
        if ev["name"] == "fcs.refresh":
            tick_tid[ev["site"]] = ev["tid"]
    by_site: Dict[str, List[dict]] = {}
    for ev in events:
        if tick_tid.get(ev["site"]) == ev.get("tid") \
                and "parent" not in ev.get("args", {}):
            by_site.setdefault(ev["site"], []).append(ev)
    out: List[float] = []
    for spans in by_site.values():
        spans.sort(key=_start)
        ticks: List[List[dict]] = [[spans[0]]]
        for ev in spans[1:]:
            if _start(ev) - max(_end(e) for e in ticks[-1]) > TICK_GAP_S:
                ticks.append([])
            ticks[-1].append(ev)
        out.extend(max(_end(e) for e in tick) - _start(tick[0])
                   for tick in ticks
                   if any(e["name"] == "fcs.refresh" for e in tick))
    return out


def p(values: Sequence[float], q: float, scale: float = 1e3) -> float:
    """Percentile in milliseconds (by default); 0.0 with no samples."""
    return percentile(values, q) * scale if values else 0.0
