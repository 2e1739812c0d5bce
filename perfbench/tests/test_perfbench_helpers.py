"""Tests for the benchmark's pure helpers and /proc readers.

Run: ``python -m pytest perfbench/tests`` from the repository root.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ledger import COMPONENTS, SpanIndex, probe_ledger
from procstat import cpu_delta, descendants, tree_cpu, tree_hwm_mb
from stats import (HorizonMatcher, Probe, family_sum,
                   highest_tail, percentile, series, tail_percentile,
                   window_delta)


# -- the percentile rule ------------------------------------------------------

def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    values = list(rng.exponential(size=257))
    for q in (0, 1, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


@pytest.mark.parametrize("n, best", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_highest_tail_needs_ten_samples_beyond(n, best):
    assert highest_tail(n) == best


def test_tail_percentile_refuses_thin_tails():
    with pytest.raises(ValueError):
        tail_percentile(list(range(999)), 99)
    assert tail_percentile(list(range(1000)), 99) == pytest.approx(
        np.percentile(range(1000), 99))


# -- the horizon-threshold probe matcher ----------------------------------------

def test_probe_lands_only_when_horizon_strictly_exceeds_v():
    m = HorizonMatcher()
    for v in (1.0, 2.0, 3.0):
        m.add(Probe("a", "b", v, due=v))
    assert m.observe("b", {"a": 1.0}) == []           # equal is not enough
    assert [p.v for p in m.observe("b", {"a": 2.5})] == [1.0, 2.0]
    assert m.pending == 1
    assert [p.v for p in m.observe("b", {"a": 9.0})] == [3.0]
    assert m.pending == 0


def test_matcher_keeps_origin_observer_pairs_apart():
    m = HorizonMatcher()
    m.add(Probe("a", "b", 1.0, due=0))
    m.add(Probe("a", "c", 1.0, due=0))
    m.add(Probe("x", "b", 1.0, due=0))
    # the observer's own horizon and other origins land nothing else
    landed = m.observe("b", {"a": 5.0, "b": 99.0})
    assert [(p.origin, p.observer) for p in landed] == [("a", "b")]
    assert sorted((p.origin, p.observer) for p in m.drain()) == [
        ("a", "c"), ("x", "b")]
    assert m.pending == 0


def test_matcher_rejects_probes_out_of_clock_order():
    m = HorizonMatcher()
    m.add(Probe("a", "b", 2.0, due=0))
    with pytest.raises(ValueError):
        m.add(Probe("a", "b", 1.0, due=0))


# -- the METRICS window-delta parser ----------------------------------------------

BEFORE = """# HELP aequus_grid_reconnects_total x
aequus_grid_reconnects_total{site="s0",peer="uss:s1"} 5.0
aequus_grid_reconnects_total{site="s0",peer="uss:s2"} 2.0
aequus_uss_exchanges_total{site="s0",event="sent"} 10.0
aequus_connections_active{site="s0"} 3.0
"""
AFTER = """aequus_grid_reconnects_total{site="s0",peer="uss:s1"} 5.0
aequus_grid_reconnects_total{site="s0",peer="uss:s2"} 3.0
aequus_uss_exchanges_total{site="s0",event="sent"} 30.0
aequus_uss_exchanges_total{site="s0",event="stale"} 1.0
aequus_connections_active{site="s0"} 1.0
"""


def test_window_delta_counts_only_the_window():
    delta = window_delta(series(BEFORE), series(AFTER))
    # cumulative since boot would say 8; the window saw one reconnect
    assert family_sum(delta, "aequus_grid_reconnects_total") == 1.0
    assert family_sum(delta, "aequus_uss_exchanges_total",
                      event="sent") == 20.0
    # a series born inside the window counts from zero
    assert family_sum(delta, "aequus_uss_exchanges_total",
                      event="stale") == 1.0
    assert family_sum(delta, "aequus_grid_reconnects_total",
                      peer="uss:s2") == 1.0


def test_window_delta_refuses_a_counter_that_went_backwards():
    with pytest.raises(ValueError):
        window_delta(series("aequus_requests_total 5.0"),
                     series("aequus_requests_total 4.0"))
    # gauges may fall
    window_delta(series("aequus_connections_active 5.0"),
                 series("aequus_connections_active 1.0"))


# -- the /proc CPU and RSS readers ------------------------------------------------

# parent forks a child; the child holds 64 MiB and burns CPU, then exits
# and is reaped while the parent keeps running
_FORKER = r"""
import os, sys, time
pid = os.fork()
if pid == 0:
    block = bytearray(64 << 20)
    for i in range(0, len(block), 4096):
        block[i] = 1
    print(os.getpid(), flush=True)
    t = time.process_time()
    while time.process_time() - t < 0.6:
        pass
    sys.stdin.readline()
    os._exit(0)
os.waitpid(pid, 0)
print("reaped", flush=True)
time.sleep(60)
"""


def test_proc_readers_include_forked_children():
    proc = subprocess.Popen([sys.executable, "-c", _FORKER],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        before = tree_cpu([proc.pid])
        child = int(proc.stdout.readline())
        assert child in descendants([proc.pid])
        assert tree_hwm_mb([proc.pid]) >= 64
        # let the child finish burning, exit, and be reaped by its parent
        time.sleep(0.8)
        proc.stdin.write("\n")
        proc.stdin.flush()
        assert proc.stdout.readline().strip() == "reaped"
        after = tree_cpu([proc.pid])
        assert child not in after
        # the reaped child's CPU moved into its parent's reaped-children time
        assert cpu_delta(before, after) >= 0.5
    finally:
        proc.kill()
        proc.wait(10)


def test_cpu_delta_takes_back_pre_window_time_of_the_dead():
    # pid 2 died in the window after 3 s (1 s before it); its parent 1 now
    # carries all 3 s in its reaped-children time
    before = {1: 10.0, 2: 1.0}
    after = {1: 13.5}
    assert cpu_delta(before, after) == pytest.approx(2.5)


# -- the ledger -----------------------------------------------------------------

def _ev(name, site, pid, sid, start, dur, tid=1, **args):
    return {"name": name, "site": site, "pid": pid, "tid": tid,
            "ts": start * 1e6, "dur": dur * 1e6, "args": dict(args, id=sid)}


def test_ledger_splits_a_probe_and_reconciles():
    events = [
        _ev("uss.exchange", "a", 1, 10, 1.00, 0.01),
        _ev("uss.publish", "a", 1, 11, 1.005, 0.004, trace="T", parent=10),
        _ev("uss.apply", "b", 2, 20, 1.05, 0.002, trace="T", origin="a",
            origin_vts=5.0),
        _ev("ums.refresh", "b", 2, 21, 1.20, 0.03, traces=["T"]),
        _ev("fcs.refresh", "b", 2, 22, 1.23, 0.05, traces=["T"]),
        _ev("snapshot.publish", "b", 2, 23, 1.27, 0.01, traces=["T"],
            parent=22),
    ]
    index = SpanIndex(events)
    # v below the apply's origin_vts: the report rode publish T
    rows, missing = probe_ledger(index, [("a", "b", 4.9, 0.8, 1.31)],
                                 offset=0.0)
    assert missing == 0
    row = rows[0]
    assert row["ingest_wait"] == pytest.approx(0.20)
    assert row["transit"] == pytest.approx(0.04)
    assert row["refresh_wait"] == pytest.approx(0.148)
    assert row["fcs"] == pytest.approx(0.04)
    assert row["first_serve"] == pytest.approx(0.03)
    assert sum(row[c] for c in COMPONENTS) + row["residual"] == \
        pytest.approx(0.51)
    assert row["residual"] == pytest.approx(0.0, abs=1e-9)
    # a report read at or after the last publish's clock has no chain yet
    assert probe_ledger(index, [("a", "b", 5.0, 0.8, 1.31)], 0.0)[1] == 1


# -- workload inputs ----------------------------------------------------------------

def test_heavy_categories_are_one_user_each():
    from repro.workload.reference import JOB_SHARES
    from workloads import make_jobs

    jobs = make_jobs(np.random.default_rng(7), 20_000)
    counts = {}
    for user, duration in jobs:
        counts[user] = counts.get(user, 0) + 1
        assert 1.0 <= duration <= 86_400.0
    top = sorted(counts.values(), reverse=True)
    # U65, U30 and U3 are single users; "others" spread thin
    heavy = sorted((JOB_SHARES[c] for c in ("U65", "U30", "U3")),
                   reverse=True)
    for got, share in zip(top, heavy):
        assert got / len(jobs) == pytest.approx(share, abs=0.01)
    assert top[3] <= 3
    # the same seed gives the same inputs
    assert make_jobs(np.random.default_rng(7), 50) == \
        make_jobs(np.random.default_rng(7), 50)


# -- the generator's accounting ---------------------------------------------------

class _Pending:
    """A connection stand-in that only holds unanswered requests."""

    def __init__(self, *dues):
        from collections import deque
        self.pending = deque((None, None, due) for due in dues)


def _generator():
    from loadgen import Generator, Window

    gen = Generator({"a": ["b"]})
    gen.windows = [Window(0.0, 10.0)]
    return gen, gen.windows[0]


def test_unanswered_requests_and_unseen_probes_fail():
    gen, window = _generator()
    gen.conns.append(_Pending(1.0, 2.0, None, 11.0))
    gen.matcher.add(Probe("a", "b", 5.0, due=3.0))
    gen.expire()
    # two requests and one probe in the window; the scrape (no due time)
    # and the request after the window count nowhere
    assert (window.attempted, window.failed) == (3, 3)
    assert not gen.conns[0].pending and gen.matcher.pending == 0
    gen.sel.close()


def test_failed_info_fails_and_makes_no_probe():
    from loadgen import ReportSlot

    gen, window = _generator()
    slot = ReportSlot("a", 1.0, "u1", 60.0)
    gen.open_slots = 1
    gen.on_report(slot, (0, 1, b"\x01"), 1.001)
    gen.on_info(slot, {"ok": False, "error": "boom"}, 1.002)
    assert (window.attempted, window.failed) == (2, 1)
    assert gen.matcher.pending == 0 and gen.open_slots == 0
    # an answered INFO turns the accepted report into a probe per observer
    ok = ReportSlot("a", 2.0, "u2", 60.0)
    gen.on_report(ok, (0, 2, b"\x01"), 2.001)
    gen.on_info(ok, {"ok": True, "info": {"time": 7.0}}, 2.002)
    assert (window.attempted, window.failed) == (4, 1)
    assert gen.matcher.pending == 1
    gen.sel.close()


def test_renice_reaches_every_thread_of_forked_children():
    from procstat import DAEMON_NICE, descendants, renice_daemons

    proc = subprocess.Popen([sys.executable, "-c", _FORKER],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        child = int(proc.stdout.readline())
        renice_daemons([proc.pid])
        for pid in descendants([proc.pid]):
            assert pid in (proc.pid, child)
            for tid in os.listdir(f"/proc/{pid}/task"):
                assert os.getpriority(os.PRIO_PROCESS,
                                      int(tid)) == DAEMON_NICE
        proc.stdin.write("\n")
        proc.stdin.flush()
    finally:
        proc.kill()
        proc.wait(10)


# a subreaper whose child orphans two grandchildren, one of which ignores
# SIGTERM, then reaps everything below itself
_ORPHANER = r"""
import os, signal, subprocess, sys, time
from procstat import become_subreaper, descendants, reap_descendants
become_subreaper()
child = subprocess.Popen([sys.executable, "-c", '''
import os, signal, time
for stubborn in (False, True):
    if os.fork() == 0:
        if stubborn:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(60)
        os._exit(0)
'''])
child.wait()
time.sleep(0.2)
orphans = descendants([os.getpid()]) - {os.getpid()}
reap_descendants(grace=0.5)
print(len(orphans), len(descendants([os.getpid()]) - {os.getpid()}))
"""


def test_reap_descendants_ends_orphans_of_children():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", _ORPHANER], cwd=here,
                         env=dict(os.environ, PYTHONPATH=here),
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    # both grandchildren were adopted, and none is left afterwards
    assert out.stdout.split() == ["2", "0"]
