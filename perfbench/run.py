"""Run one benchmark workload against freshly booted Aequus daemons.

    python3 perfbench/run.py --workload grid-churn --seed 1 --seconds 10 --trace 0

Boots the workload's daemons as separate processes, drives them from this
one generator process for a warm-up plus ``--seconds`` of measurement,
checks the outputs, stops everything, and prints one JSON object as the
last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``).  A human-readable account
goes to standard error.  README.md explains every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"

# the program under test is the checkout's own src/, next to this directory
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    import numpy as np

    from layers import layer_metrics
    from loadgen import (PROBE_DEADLINE_S, REPLY_DEADLINE_S, Generator,
                         LookupStream, PollStream, ReportStream, Window,
                         capacity, json_call, lookup_values, ping_rtts)
    from procstat import (become_subreaper, cpu_delta, reap_descendants,
                          renice_daemons, steal_ticks, tree_cpu, tree_hwm_mb)
    from stats import percentile, tail_percentile
    from timing import timing_pass
    from topology import make_topology
    from workloads import (EXCHANGE_S, USERS, WARMUP_S, WORKLOADS,
                           make_jobs, make_keys, user_name)
except ImportError as exc:  # no program here: main() reports and fails
    _MISSING = exc
else:
    _MISSING = None

#: an untraced run boots the daemons this many times and measures
#: ``--seconds / BOOTS`` on each: the phase between one site's exchange
#: tick and another's refresh is fixed per boot and moves the update delay
#: by up to an interval, so pooling boots samples it; set-up time is the
#: median over the boots
BOOTS = 3

#: the run is invalid when the generator sent this late at p99: it could
#: not keep its schedule (typical is 2-9 ms; 36 ms was seen with the
#: hypervisor taking 35 % of the machine's CPU time)
LATE_LIMIT_S = 0.1

#: the generator process may run at most this many threads (nproc here)
MAX_THREADS = 2

#: grid sites must serve the same priority to within this after quiesce
VALUE_TOLERANCE = 1e-9

#: the traced run also measures this share of --seconds untraced, half
#: before and half after the traced window, to report what tracing adds
#: to the update delay
UNTRACED_SHARE = 0.5


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _sample(topo):
    return (tree_cpu(topo.pids()), time.process_time(), time.perf_counter(),
            steal_ticks())


def _utilization(before, after):
    """(daemon cores, generator cores, machine steal share) between two
    :func:`_sample` reads."""
    wall = after[2] - before[2]
    stolen = after[3][0] - before[3][0]
    total = after[3][1] - before[3][1]
    return (cpu_delta(before[0], after[0]) / wall,
            (after[1] - before[1]) / wall,
            stolen / total if total else 0.0)


def drive(topo, workload, seed: int, boot: int, seconds: float,
          traced: bool):
    """Run the open-loop phase, quiesce, and return the generator.

    Untraced, one window of ``seconds`` follows the warm-up.  Traced, the
    traced window (benchmark spans on, METRICS scraped at its edges) sits
    between two untraced halves of ``UNTRACED_SHARE * seconds``, whose
    update delay is the baseline for the tracing overhead.
    """
    rng = np.random.default_rng([seed, boot])
    gen = Generator(workload.observers)
    ctl = {site: gen.connect(site, *addr) for site, addr in topo.sites.items()}
    lookups = []
    untraced_s = seconds * UNTRACED_SHARE if traced else 0.0
    span = WARMUP_S + untraced_s + seconds + 1.0
    for site, rate in workload.lookup_rate.items():
        conn = gen.connect(site, *topo.sites[site])
        keys = make_keys(rng, workload.keys, int(rate * span))
        lookups.append(gen.add(LookupStream(gen, conn, keys, rate)))
    reports = []
    for origin, rate in workload.report_rate.items():
        gen.set_clock(origin, topo.info(origin)["time"], time.perf_counter())
        jobs = make_jobs(rng, int(rate * span))
        reports.append(gen.add(ReportStream(gen, ctl[origin], rate, jobs)))
    watched = sorted({b for obs in workload.observers.values() for b in obs})
    polls = [gen.add(PollStream(gen, ctl[site]))
             for site in watched]

    # a collector pause in this loop would read as daemon latency: keep the
    # set-up's objects out of the collector and collect after the run
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        _run_windows(gen, topo, seconds, untraced_s, traced, reports,
                     lookups, polls)
    finally:
        gc.enable()
        gc.unfreeze()
    return gen


def _run_windows(gen, topo, seconds, untraced_s, traced, reports, lookups,
                 polls):
    """Warm up, measure the window(s), stop the load, quiesce."""
    t0 = time.perf_counter() + 0.05
    for stream in gen.streams:
        stream.start(t0)
    edge = t0 + WARMUP_S
    half = untraced_s / 2
    window = gen.measured = Window(edge + half, edge + half + seconds)
    # traced: untraced halves on both sides, so drift cancels
    gen.baseline = [Window(edge, window.t0),
                    Window(window.t1, window.t1 + half)] if traced else []
    gen.windows = sorted([window] + gen.baseline, key=lambda w: w.t0)
    gen.run(window.t0)
    if traced:
        gen.record_spans = True
        gen.scrape(window.metrics_at_start)
    before = _sample(topo)
    gen.run((window.t0 + window.t1) / 2)
    gen.threads = threading.active_count()
    gen.run(window.t1)
    gen.utilization = _utilization(before, _sample(topo))
    if traced:
        gen.record_spans = False
        gen.scrape(window.metrics_at_end)
    end = gen.windows[-1].t1
    gen.run(end)
    for stream in reports + lookups:
        stream.stop()
    # quiesce: every probe lands (or its deadline passes) and every
    # outstanding reply arrives
    gen.run(end + PROBE_DEADLINE_S + 1.0,
            done=lambda: gen.matcher.pending == 0 and gen.open_slots == 0
            and not any(s.conn.pending for s in lookups))
    for stream in polls:
        stream.stop()
    gen.run(time.perf_counter() + REPLY_DEADLINE_S,
            done=lambda: not any(c.pending for c in gen.conns))
    # probes never seen and requests never answered fail
    gen.expire()


def check(topo, gen) -> list:
    """Correctness checks after quiesce; returns the failures found."""
    problems = []
    deadline = time.monotonic() + 10.0
    for origin, accepted in sorted(gen.accepted.items()):
        while True:
            ingress = topo.info(origin).get("usage_ingress") or {}
            counts = (ingress.get("enqueued"), ingress.get("drained"),
                      accepted)
            if counts[0] == counts[1] == counts[2] \
                    or time.monotonic() > deadline:
                break
            time.sleep(0.1)
        if not counts[0] == counts[1] == counts[2]:
            problems.append(f"{origin}: enqueued/drained/accepted = "
                            f"{counts}")
    rng = np.random.default_rng(12345)
    sample = sorted(gen.reported_users) + [
        user_name(int(i)) for i in rng.integers(0, USERS, size=256)]
    worst = float("inf")
    while True:
        values = {site: lookup_values(*addr, sample)
                  for site, addr in topo.sites.items()}
        base = next(iter(values.values()))
        unknown = [u for vals in values.values()
                   for u, (v, known) in vals.items()
                   if not known or not 0.0 <= v <= 1.0]
        worst = max(abs(vals[u][0] - base[u][0])
                    for vals in values.values() for u in sample)
        if (worst <= VALUE_TOLERANCE and not unknown) \
                or time.monotonic() > deadline:
            break
        time.sleep(0.25)
    gen.value_spread = worst
    if unknown:
        problems.append(f"{len(unknown)} sampled users unknown or out of "
                        f"[0, 1]")
    if worst > VALUE_TOLERANCE:
        problems.append(f"sites disagree by {worst:.3g} after quiesce")
    if gen.threads > MAX_THREADS:
        problems.append(f"generator ran {gen.threads} threads")
    bad = sum(w.bad_values for w in gen.windows)
    if bad:
        problems.append(f"{bad} lookup replies not known or out of [0, 1]")
    return problems


def _collect_spans(topo) -> list:
    """Drain every daemon's tracer, tagging each span with its site."""
    events = []
    for site, (host, port) in topo.sites.items():
        reply = json_call(host, port, "TRACE_EXPORT")
        for ev in reply.get("events", ()):
            ev["site"] = site
            events.append(ev)
    return events


def _write_trace(path: Path, events: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev) + "\n")


def _timing_batches(window, origin: str):
    """The window's accepted reports at ``origin``, per exchange interval."""
    batches = {}
    for o, due, user, duration in window.accepted_jobs:
        if o == origin:
            batches.setdefault(int((due - window.t0) / EXCHANGE_S),
                               []).append((user, duration))
    return [batches[k] for k in sorted(batches)]


class Boot:
    """What one boot of the workload's daemons measured."""

    def __init__(self, setup_s: float):
        self.setup_s = setup_s
        self.gen = None
        self.capacity = None
        self.rss_mb = 0.0
        self.events: list = []
        self.ping: list = []
        self.problems: list = []
        #: wall seconds per phase after set-up, for the log
        self.phases: dict = {}


def measure_boot(workload, seed: int, boot: int, seconds: float,
                 traced: bool, cap_keys) -> Boot:
    """Boot the daemons, drive them, check them, stop them."""
    topo = make_topology(workload.topology, seed,
                         RUN_DIR / f"{workload.name}-{seed}-{boot}")
    result = None
    try:
        result = Boot(topo.boot())
        renice_daemons(topo.pids())
        t0 = time.monotonic()
        gen = result.gen = drive(topo, workload, seed, boot, seconds, traced)
        result.phases["load"] = time.monotonic() - t0
        t0 = time.monotonic()
        target = topo.sites[workload.capacity_site]
        if traced:
            result.events = _collect_spans(topo)
            result.ping = ping_rtts(*target)
            cap = result.capacity = capacity(*target, cap_keys)
            for refused in cap.refused[:5]:
                gen.errors.append(f"capacity at {workload.capacity_site}: "
                                  f"{refused}")
            if cap.wrong:
                result.problems.append(f"{cap.wrong} capacity replies not "
                                       f"known or out of [0, 1]")
        else:
            result.rss_mb = tree_hwm_mb(topo.pids())
        result.phases["probe"] = time.monotonic() - t0
        t0 = time.monotonic()
        result.problems += check(topo, gen)
        result.phases["check"] = time.monotonic() - t0
    finally:
        t0 = time.monotonic()
        topo.stop()
        # helpers the daemons left behind (a sharded site's resource
        # tracker) were adopted by this process: end and reap them
        reap_descendants()
        if result is not None:
            result.phases["stop"] = time.monotonic() - t0
        if result is not None and result.gen is not None:
            result.gen.close()
    return result


def _log_boot(b: int, boot: Boot) -> None:
    w = boot.gen.measured
    parts = [f"boot {b}: set up {boot.setup_s:.2f}s"]
    if w.delays:
        parts.append(f"delay p50 {percentile(w.delays, 50):.3f}s")
    for site, lat in sorted(w.lookup_lat.items()):
        parts.append(f"{site} lookup p50/p99 {percentile(lat, 50) * 1e6:.0f}"
                     f"/{percentile(lat, 99) * 1e6:.0f}us")
    parts.append(f"daemons {boot.gen.utilization[0]:.2f} cores, steal "
                 f"{boot.gen.utilization[2]:.1%}")
    parts.append("phases " + " ".join(f"{k} {v:.1f}s"
                                      for k, v in boot.phases.items()))
    if boot.capacity is not None:
        parts.append("capacity " + "/".join(
            f"{r:.0f}" for r in boot.capacity.rates) + " per s")
    _log(", ".join(parts))


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    cap_keys = make_keys(np.random.default_rng([seed, 99]), workload.keys,
                         20_000)
    n_boots = 1 if traced else BOOTS
    boots = []
    for b in range(n_boots):
        boots.append(measure_boot(workload, seed, b, seconds / n_boots,
                                  traced, cap_keys))
        _log_boot(b, boots[-1])
    problems = [p for boot in boots for p in boot.problems]
    windows = [boot.gen.measured for boot in boots]
    delays = [d for w in windows for d in w.delays]
    lookup_lat = [x for w in windows for lat in w.lookup_lat.values()
                  for x in lat]
    late = [x for w in windows for x in w.late]
    # capacity requests are operations too: refused ones count as failed
    caps = [b.capacity for b in boots if b.capacity is not None]
    attempted = sum(w.attempted for w in windows) + sum(
        c.replies for c in caps)
    failed = sum(w.failed for w in windows) + sum(len(c.refused)
                                                  for c in caps)
    for boot in boots:
        for err in boot.gen.errors[:5]:
            _log(f"  error: {err}")
    late_p99 = percentile(late, 99) if late else 0.0
    if late_p99 > LATE_LIMIT_S:
        problems.append(f"generator fell behind: late p99 "
                        f"{late_p99 * 1e3:.1f} ms > {LATE_LIMIT_S * 1e3} ms")

    if traced:
        boot = boots[0]
        _write_trace(ROOT / f".perfbench_trace-{name}-{seed}.jsonl",
                     boot.events + boot.gen.spans)
        origin = sorted(workload.report_rate)[0]
        timing = timing_pass(seed,
                             _timing_batches(windows[0], origin), cap_keys)
        metrics = layer_metrics(workload, boot.gen.baseline, windows[0],
                                boot.events, boot.gen.offset,
                                boot.gen.utilization, boot.ping, timing,
                                problems)
        # equal bursts: their mean rate is all replies over all burst time
        metrics["server.capacity_rps"] = (
            statistics.fmean(boot.capacity.rates), "1/s")
    else:
        def p99(values, what):
            try:
                return tail_percentile(values, 99)
            except ValueError as exc:
                problems.append(f"{what}: {exc}")
                return percentile(values, 99)

        metrics = {
            "update_delay_p50_s": (percentile(delays, 50), "s"),
            "update_delay_p99_s": (p99(delays, "update delay"), "s"),
            "lookup_p50_us": (percentile(lookup_lat, 50) * 1e6, "us"),
            "daemon_cpu_util": (statistics.fmean(
                b.gen.utilization[0] for b in boots), "cores"),
            "peak_rss_mb": (statistics.median(b.rss_mb for b in boots),
                            "MB"),
            "ok_ratio": (1.0 - failed / max(1, attempted), "ratio"),
            "setup_s": (statistics.median(b.setup_s for b in boots), "s"),
        }
    _log(f"{name} seed {seed}: {len(delays)} probes, {len(lookup_lat)} "
         f"lookups, late p99 {late_p99 * 1e3:.2f} ms, generator "
         f"{statistics.fmean(b.gen.utilization[1] for b in boots):.2f} "
         f"cores, sites agree to "
         f"{max(b.gen.value_spread for b in boots):.2g}")
    for key, (value, unit) in metrics.items():
        _log(f"  {key:34s} {value:14.4f} {unit}")
    for problem in problems:
        _log(f"  CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _interrupt(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise KeyboardInterrupt


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if _MISSING is not None:
        _log(f"perfbench: the program is not here ({_MISSING}); run from "
             f"the root of a checkout")
        return 2
    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; one of "
             f"{sorted(WORKLOADS)}")
        return 2
    # a terminated run still stops every daemon it started, and whatever
    # a daemon starts and orphans becomes this process's to stop
    signal.signal(signal.SIGTERM, _interrupt)
    become_subreaper()
    RUN_DIR.mkdir(exist_ok=True)
    # daemons put their trace spools in the temp dir: keep it in the checkout
    os.environ["TMPDIR"] = str(RUN_DIR)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        reap_descendants()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
