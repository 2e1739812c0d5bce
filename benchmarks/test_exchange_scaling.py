"""Usage data-plane scaling: delta exchange + incremental UMS vs full state.

Drives a multi-site grid (paper scale: 8 sites x 10k grid users with
established per-user histograms) through identical steady-state churn on
two data planes:

* **full** — a full-state plane assembled here from production
  primitives: every tick each site's ``snapshot_arrays()`` goes to every
  peer as a ``full=True`` :class:`UsageDeltaMessage` (priced by its
  ``wire_bytes``) and is applied with ``apply_arrays(full=True)``, and
  every site re-merges and re-decays every user;
* **delta** — the production data plane: sequence-numbered changed-entry
  publishes in the compact array wire format, dirty-user UMS aggregation
  with the analytic exponential age shift.

Both planes run the same seeded churn schedule, and a site's publish at
one tick is visible to its peers' refreshes from the next tick on (the
delta plane's wire latency; the full plane refreshes before it
exchanges), so their per-site totals must agree (checked at 1e-6) and the
measured difference is purely data-plane cost.  Measured per steady-state
tick: bytes-on-wire (diff of counter snapshots taken at the
warm-up/measurement boundary, so the phase split never mutates the live
counters) and wall-clock latency of the combined exchange + refresh
round.  CI gates on >=5x reduction in both.

Results land in ``benchmarks/BENCH_exchange.json`` (and results.txt); set
``REPRO_BENCH_SCALE=small`` for the smoke tier (4 sites x 2k users).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.decay import ExponentialDecay
from repro.core.usage import UsageHistogram
from repro.services.messages import UsageDeltaMessage
from repro.services.network import Network
from repro.services.ums import UsageMonitoringService
from repro.services.uss import UsageStatisticsService
from repro.sim.engine import SimulationEngine

JSON_PATH = Path(__file__).parent / "BENCH_exchange.json"

#: (n_sites, grid users) per scale tier
_SCALES = {"paper": (8, 10_000), "small": (4, 2_000)}

GATE_BYTES_REDUCTION = 5.0
GATE_SPEEDUP = 5.0

HISTOGRAM_INTERVAL = 3600.0
EXCHANGE_INTERVAL = 30.0
HISTORY_BINS = 16            # seeded per-user history depth
CHURN_FRACTION = 0.01        # users touched per steady-state tick
WARMUP_TICKS = 3
MEASURE_TICKS = 4


def scale_tier():
    return _SCALES[os.environ.get("REPRO_BENCH_SCALE", "paper")]


class Grid:
    """N sites x M users with established histograms and periodic churn.

    Subclasses build the data plane (:meth:`_build_locals` returns each
    site's local histogram, :meth:`_start` runs once the history is
    seeded) and report ``stats()`` counters and per-site ``totals()``.
    """

    mode = ""

    def __init__(self, n_sites: int, n_users: int, seed: int = 0):
        # start beyond the seeded history so every seeded bin midpoint is
        # in the past (steady state, not a cold start)
        self.t0 = HISTORY_BINS * HISTOGRAM_INTERVAL
        self.n_sites = n_sites
        self.n_users = n_users
        self.engine = SimulationEngine(start_time=self.t0)
        self.decay = ExponentialDecay(half_life=7 * 24 * 3600.0)
        self.locals = self._build_locals()
        # seed: user u homes on site u % n_sites with HISTORY_BINS of usage
        rng = np.random.default_rng(seed)
        charges = rng.uniform(10.0, 3600.0, size=(n_users, HISTORY_BINS))
        for u in range(n_users):
            local = self.locals[u % n_sites]
            for b in range(HISTORY_BINS):
                local.add_bin(f"u{u}", b, float(charges[u, b]))
        self._start()
        # steady-state churn: each tick, a deterministic 1% of users run
        # jobs on their home site (offset keeps churn strictly between
        # exchange ticks, identically on both planes)
        self.churn_rng = np.random.default_rng(seed + 1)
        self.engine.periodic(EXCHANGE_INTERVAL, self._churn,
                             start_offset=WARMUP_TICKS * EXCHANGE_INTERVAL + 11.0)

    def _churn(self) -> None:
        now = self.engine.now
        n = max(1, int(self.n_users * CHURN_FRACTION))
        users = self.churn_rng.choice(self.n_users, size=n, replace=False)
        durations = self.churn_rng.uniform(5.0, 600.0, size=n)
        for u, d in zip(users, durations):
            local = self.locals[int(u) % self.n_sites]
            local.add_charge(f"u{int(u)}", now - float(d), now)

    def run_phase(self, ticks: int) -> float:
        """Advance ``ticks`` exchange/refresh rounds; returns wall seconds."""
        horizon = self.engine.now + ticks * EXCHANGE_INTERVAL
        t0 = time.perf_counter()
        self.engine.run_until(horizon)
        return time.perf_counter() - t0


class DeltaGrid(Grid):
    """The production plane: USS delta exchange + incremental UMS."""

    mode = "delta"

    def _build_locals(self):
        self.network = Network(self.engine, base_latency=0.05)
        self.usses = [
            UsageStatisticsService(
                f"s{i}", self.engine, self.network,
                histogram_interval=HISTOGRAM_INTERVAL,
                exchange_interval=EXCHANGE_INTERVAL)
            for i in range(self.n_sites)]
        return [uss.local for uss in self.usses]

    def _start(self) -> None:
        # UMS after seeding: the priming refresh covers the seeded history
        self.umses = [
            UsageMonitoringService(
                f"s{i}", self.engine, sources=[uss], decay=self.decay,
                refresh_interval=EXCHANGE_INTERVAL)
            for i, uss in enumerate(self.usses)]
        for a in self.usses:
            for b in self.usses:
                if a is not b:
                    a.add_peer(b.site)

    def stats(self):
        return self.network.stats.snapshot()

    def totals(self):
        return {ums.site: ums.usage_totals() for ums in self.umses}


class FullStateGrid(Grid):
    """Every tick, every site ships and applies its whole state, then
    every site re-merges and re-decays every user."""

    mode = "full"

    def _build_locals(self):
        #: remote[i][origin]: site i's copy of site ``origin``'s histogram
        self.remote = [{} for _ in range(self.n_sites)]
        self.counters = dict(payload_bytes=0, payload_entries=0, sent=0)
        self._totals = {}
        self._seq = 0
        self.engine.periodic(EXCHANGE_INTERVAL, self._tick)
        return [UsageHistogram(HISTOGRAM_INTERVAL)
                for _ in range(self.n_sites)]

    def _start(self) -> None:
        self._refresh()

    def _tick(self) -> None:
        # refresh first: a publish becomes visible at the peers' next
        # refresh, as behind the delta plane's wire latency
        self._refresh()
        self._seq += 1
        now = self.engine.now
        for i, local in enumerate(self.locals):
            arrays = local.snapshot_arrays()
            message = UsageDeltaMessage(
                site=f"s{i}", sent_at=now, interval=HISTOGRAM_INTERVAL,
                seq=self._seq, full=True, user_table=arrays[0],
                user_idx=arrays[1], bin_idx=arrays[2], charges=arrays[3],
                horizon=now)
            for j in range(self.n_sites):
                if j == i:
                    continue
                self.counters["sent"] += 1
                self.counters["payload_bytes"] += message.wire_bytes()
                self.counters["payload_entries"] += message.wire_entries()
                copy = self.remote[j].setdefault(
                    i, UsageHistogram(HISTOGRAM_INTERVAL))
                copy.apply_arrays(*arrays, full=True)

    def _refresh(self) -> None:
        now = self.engine.now
        self._totals = {
            f"s{i}": UsageHistogram.merged(
                [local, *self.remote[i].values()]).decayed_totals(
                    now, self.decay)
            for i, local in enumerate(self.locals)}

    def stats(self):
        return dict(self.counters)

    def totals(self):
        return self._totals


def run_mode(grid_cls, n_sites: int, n_users: int) -> dict:
    grid = grid_cls(n_sites, n_users)
    grid.run_phase(WARMUP_TICKS)                # propagate initial snapshots
    warm = grid.stats()                         # phase boundary: measure only
    wall = grid.run_phase(MEASURE_TICKS)        # steady state under churn
    steady = grid.stats()
    return dict(
        mode=grid.mode,
        n_sites=n_sites, n_users=n_users,
        ticks=MEASURE_TICKS,
        tick_s=wall / MEASURE_TICKS,
        bytes_per_tick=(steady["payload_bytes"]
                        - warm["payload_bytes"]) / MEASURE_TICKS,
        entries_per_tick=(steady["payload_entries"]
                          - warm["payload_entries"]) / MEASURE_TICKS,
        messages_per_tick=(steady["sent"] - warm["sent"]) / MEASURE_TICKS,
        totals=grid.totals(),
    )


@pytest.fixture(scope="module")
def exchange_rows(report):
    n_sites, n_users = scale_tier()
    full = run_mode(FullStateGrid, n_sites, n_users)
    delta = run_mode(DeltaGrid, n_sites, n_users)
    rows = [full, delta]
    reduction = dict(
        bytes=full["bytes_per_tick"] / max(delta["bytes_per_tick"], 1e-12),
        entries=full["entries_per_tick"] / max(delta["entries_per_tick"], 1e-12),
        tick=full["tick_s"] / max(delta["tick_s"], 1e-12),
    )
    block = [f"\n== exchange scaling ({n_sites} sites x {n_users} users, "
             f"{MEASURE_TICKS} steady-state ticks) =="] + [
        f"{r['mode']:>6}: {r['bytes_per_tick'] / 1e3:10.1f} KB/tick  "
        f"{r['entries_per_tick']:10.0f} entries/tick  "
        f"tick {r['tick_s'] * 1e3:8.1f} ms"
        for r in rows] + [
        f"reduction: bytes {reduction['bytes']:.1f}x  "
        f"entries {reduction['entries']:.1f}x  "
        f"tick latency {reduction['tick']:.1f}x"]
    for line in block:
        print(line)
    report.extend(block)
    JSON_PATH.write_text(json.dumps(
        dict(benchmark="exchange_scaling",
             scale=os.environ.get("REPRO_BENCH_SCALE", "paper"),
             n_sites=n_sites, n_users=n_users,
             gate=dict(min_bytes_reduction=GATE_BYTES_REDUCTION,
                       min_speedup=GATE_SPEEDUP),
             rows=[{k: v for k, v in r.items() if k != "totals"}
                   for r in rows],
             reduction=reduction),
        indent=2) + "\n")
    return rows, reduction


class TestExchangeScaling:
    def test_bytes_on_wire_reduction_gate(self, exchange_rows):
        _, reduction = exchange_rows
        assert reduction["bytes"] >= GATE_BYTES_REDUCTION, (
            f"delta exchange only cut steady-state bytes-on-wire by "
            f"{reduction['bytes']:.1f}x (need >= {GATE_BYTES_REDUCTION}x)")

    def test_tick_latency_speedup_gate(self, exchange_rows):
        _, reduction = exchange_rows
        assert reduction["tick"] >= GATE_SPEEDUP, (
            f"incremental data plane only {reduction['tick']:.1f}x faster "
            f"per exchange+refresh tick (need >= {GATE_SPEEDUP}x)")

    def test_delta_totals_match_full_reference(self, exchange_rows):
        """Same churn, same clock: both planes must agree on every user."""
        rows, _ = exchange_rows
        full, delta = rows
        for site, ref_totals in full["totals"].items():
            got_totals = delta["totals"][site]
            users = set(ref_totals) | set(got_totals)
            for user in users:
                ref = ref_totals.get(user, 0.0)
                got = got_totals.get(user, 0.0)
                assert got == pytest.approx(ref, rel=1e-6, abs=1e-6), (
                    f"{site}/{user}: delta plane {got} != reference {ref}")

    def test_json_artifact_written(self, exchange_rows):
        data = json.loads(JSON_PATH.read_text())
        assert data["benchmark"] == "exchange_scaling"
        assert {r["mode"] for r in data["rows"]} == {"full", "delta"}
