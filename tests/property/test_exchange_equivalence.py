"""Property: the usage data plane converges on the god's-eye view.

A grid runs a randomly generated world — a job record schedule on a
jitter-free network, including a randomly placed partition/heal window
between a site pair.  All records land by t=150 and every partition heals
by t=180; at ``END_TIME`` each site's UMS totals must equal the merge of
*every* site's local histogram (``UsageHistogram.merge`` +
``decayed_totals``), decayed at that UMS's last refresh time, to float
tolerance.  This covers the whole protocol surface: full first publish,
content deltas, heartbeats, stale-message drops, and the partition-gap
resync path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import ExponentialDecay
from repro.core.usage import UsageHistogram, UsageRecord
from repro.services.network import Network
from repro.services.ums import UsageMonitoringService
from repro.services.uss import UsageStatisticsService
from repro.sim.engine import SimulationEngine

N_SITES = 3
EXCHANGE_INTERVAL = 10.0
HISTOGRAM_INTERVAL = 60.0
END_TIME = 200.0

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),            # user
        st.integers(min_value=0, max_value=N_SITES - 1),  # site
        st.floats(min_value=0.0, max_value=150.0,         # submit time
                  allow_nan=False),
        st.floats(min_value=1.0, max_value=300.0,         # duration
                  allow_nan=False)),
    min_size=1, max_size=25)

# a partition window [t_cut, t_cut + length) between sites 0 and 1;
# both grids see the identical window, so divergence can only come from
# the data plane's recovery behaviour, not from the failure itself
partitions = st.tuples(
    st.floats(min_value=5.0, max_value=120.0, allow_nan=False),
    st.floats(min_value=5.0, max_value=60.0, allow_nan=False))


def run_world(recs, partition_window):
    engine = SimulationEngine()
    network = Network(engine, base_latency=0.1)
    usses = [
        UsageStatisticsService(
            f"s{i}", engine, network,
            histogram_interval=HISTOGRAM_INTERVAL,
            exchange_interval=EXCHANGE_INTERVAL)
        for i in range(N_SITES)]
    for a in usses:
        for b in usses:
            if a is not b:
                a.add_peer(b.site)
    umses = [
        UsageMonitoringService(
            f"s{i}", engine, sources=[uss],
            decay=ExponentialDecay(half_life=3600.0),
            refresh_interval=EXCHANGE_INTERVAL)
        for i, uss in enumerate(usses)]
    for user, site, submit, duration in recs:
        engine.schedule_at(
            submit,
            lambda u=user, s=site, t=submit, d=duration: usses[s].record_job(
                UsageRecord(user=f"u{u}", site=f"s{s}", start=t, end=t + d)))
    t_cut, length = partition_window
    engine.schedule_at(t_cut, lambda: network.partition("uss:s0", "uss:s1"))
    engine.schedule_at(t_cut + length, lambda: network.heal("uss:s0", "uss:s1"))
    engine.run_until(END_TIME)
    return usses, umses


def gods_eye_totals(usses, now, decay):
    """Every site's local usage merged, as no single site can see it."""
    merged = UsageHistogram.merged([uss.local for uss in usses])
    return merged.decayed_totals(now, decay)


class TestDataPlaneEquivalence:
    @given(records, partitions)
    @settings(max_examples=12, deadline=None)
    def test_totals_match_reference_including_partition_heal(
            self, recs, partition_window):
        usses, umses = run_world(recs, partition_window)
        for ums in umses:
            site = ums.site
            ref_totals = gods_eye_totals(usses, ums.computed_at, ums.decay)
            got_totals = ums.usage_totals()
            for user in set(ref_totals) | set(got_totals):
                assert got_totals.get(user, 0.0) == pytest.approx(
                    ref_totals.get(user, 0.0), rel=1e-6, abs=1e-6), (
                    f"{site}/{user}")
