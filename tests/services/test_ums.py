"""Unit tests for the Usage Monitoring Service (UMS)."""

import pytest

from repro.core.decay import ExponentialDecay, LinearDecay, NoDecay
from repro.core.policy import PolicyTree
from repro.core.usage import UsageRecord
from repro.services.network import Network
from repro.services.ums import UsageMonitoringService
from repro.services.uss import UsageStatisticsService
from repro.sim.engine import SimulationEngine


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def uss(engine):
    network = Network(engine, base_latency=0.1)
    return UsageStatisticsService("a", engine, network,
                                  histogram_interval=60.0,
                                  exchange_interval=10.0)


def make_ums(engine, uss, **kwargs):
    kwargs.setdefault("decay", NoDecay())
    kwargs.setdefault("refresh_interval", 10.0)
    return UsageMonitoringService("a", engine, sources=[uss], **kwargs)


class TestRefresh:
    def test_initial_refresh_at_construction(self, engine, uss):
        ums = make_ums(engine, uss)
        assert ums.refreshes == 1
        assert ums.usage_totals() == {}

    def test_totals_appear_after_refresh(self, engine, uss):
        ums = make_ums(engine, uss)
        uss.record_job(UsageRecord(user="u", site="a", start=0.0, end=100.0))
        assert ums.usage_totals() == {}  # not refreshed yet
        engine.run_until(10.0)
        assert ums.usage_totals()["u"] == pytest.approx(100.0)

    def test_serves_precomputed_state(self, engine, uss):
        """Queries between refreshes return the stale pre-computed value —
        the FCS/UMS cache time is delay source II."""
        ums = make_ums(engine, uss)
        engine.run_until(10.0)
        uss.record_job(UsageRecord(user="u", site="a", start=0.0, end=50.0))
        assert ums.usage_totals() == {}  # still the old snapshot
        engine.run_until(20.0)
        assert ums.usage_totals()["u"] == pytest.approx(50.0)

    def test_computed_at_tracks_refresh_time(self, engine, uss):
        ums = make_ums(engine, uss)
        engine.run_until(25.0)
        assert ums.computed_at == pytest.approx(20.0)

    def test_requires_a_source(self, engine):
        with pytest.raises(ValueError):
            UsageMonitoringService("a", engine, sources=[])

    def test_stop_halts_refresh(self, engine, uss):
        ums = make_ums(engine, uss)
        ums.stop()
        uss.record_job(UsageRecord(user="u", site="a", start=0.0, end=50.0))
        engine.run_until(100.0)
        assert ums.usage_totals() == {}


class TestRemoteConsideration:
    def test_consider_remote_false_ignores_remote_usage(self, engine):
        network = Network(engine, base_latency=0.1)
        a = UsageStatisticsService("a", engine, network,
                                   histogram_interval=60.0, exchange_interval=5.0)
        b = UsageStatisticsService("b", engine, network,
                                   histogram_interval=60.0, exchange_interval=5.0)
        a.add_peer("b")
        b.add_peer("a")
        b.record_job(UsageRecord(user="u", site="b", start=0.0, end=80.0))
        ums_global = UsageMonitoringService("a", engine, sources=[a],
                                            decay=NoDecay(), refresh_interval=5.0,
                                            consider_remote=True)
        ums_local = UsageMonitoringService("a", engine, sources=[a],
                                           decay=NoDecay(), refresh_interval=5.0,
                                           consider_remote=False)
        engine.run_until(20.0)
        assert ums_global.usage_totals().get("u", 0.0) == pytest.approx(80.0)
        assert ums_local.usage_totals().get("u", 0.0) == 0.0


class TestUsageTree:
    def test_usage_tree_shaped_by_policy(self, engine, uss):
        ums = make_ums(engine, uss)
        uss.record_job(UsageRecord(user="u1", site="a", start=0.0, end=30.0))
        engine.run_until(10.0)
        policy = PolicyTree.from_dict({"g": (1, {"u1": 1, "u2": 1})})
        tree = ums.usage_tree(policy)
        assert tree["/g/u1"].usage == pytest.approx(30.0)
        assert tree["/g"].usage == pytest.approx(30.0)

    def test_multiple_sources_summed(self, engine):
        network = Network(engine, base_latency=0.1)
        u1 = UsageStatisticsService("a1", engine, network,
                                    histogram_interval=60.0, exchange_interval=5.0)
        u2 = UsageStatisticsService("a2", engine, network,
                                    histogram_interval=60.0, exchange_interval=5.0)
        u1.record_job(UsageRecord(user="u", site="a1", start=0.0, end=10.0))
        u2.record_job(UsageRecord(user="u", site="a2", start=0.0, end=20.0))
        ums = UsageMonitoringService("a", engine, sources=[u1, u2],
                                     decay=NoDecay(), refresh_interval=5.0)
        engine.run_until(5.0)
        assert ums.usage_totals()["u"] == pytest.approx(30.0)


class TestIncrementalRefresh:
    """The dirty-user incremental path must be indistinguishable from a
    full merge-and-decay of the USS state at the refresh time (DESIGN.md
    §7): ``uss.global_usage().decayed_totals(computed_at, decay)``."""

    def assert_match(self, ums, uss):
        ref_totals = uss.global_usage().decayed_totals(ums.computed_at,
                                                       ums.decay)
        inc_totals = ums.usage_totals()
        for user in set(ref_totals) | set(inc_totals):
            assert inc_totals.get(user, 0.0) == pytest.approx(
                ref_totals.get(user, 0.0), rel=1e-9, abs=1e-9), user

    def test_matches_full_recompute_across_refreshes(self, engine, uss):
        inc = make_ums(engine, uss, decay=ExponentialDecay(half_life=3600.0))
        uss.record_job(UsageRecord(user="u1", site="a", start=0.0, end=100.0))
        engine.run_until(10.0)
        self.assert_match(inc, uss)
        uss.record_job(UsageRecord(user="u2", site="a", start=10.0, end=15.0))
        engine.run_until(20.0)
        self.assert_match(inc, uss)
        # several idle refreshes: clean users age-shift analytically
        engine.run_until(60.0)
        assert inc.full_refreshes < inc.refreshes
        self.assert_match(inc, uss)

    def test_only_dirty_users_recomputed(self, engine, uss):
        ums = make_ums(engine, uss, decay=ExponentialDecay(half_life=3600.0))
        for u in range(5):
            uss.record_job(UsageRecord(user=f"u{u}", site="a",
                                       start=0.0, end=30.0))
        engine.run_until(10.0)   # priming covers all 5 (full path)
        engine.run_until(40.0)   # young users settle
        before = ums.users_recomputed
        uss.record_job(UsageRecord(user="u3", site="a", start=40.0, end=45.0))
        engine.run_until(50.0)
        assert ums.users_recomputed == before + 1

    def test_pruned_user_dropped_from_totals(self, engine):
        network = Network(engine, base_latency=0.1)
        uss = UsageStatisticsService("a", engine, network,
                                     histogram_interval=60.0,
                                     exchange_interval=10.0,
                                     prune_horizon=100.0)
        uss.add_peer("nowhere")  # exchanges (and prunes) still tick
        ums = make_ums(engine, uss, decay=ExponentialDecay(half_life=3600.0))
        uss.record_job(UsageRecord(user="old", site="a", start=0.0, end=60.0))
        engine.run_until(20.0)
        assert "old" in ums.usage_totals()
        engine.run_until(250.0)  # bin 0 ages out past the horizon
        assert uss.local.total("old") == 0.0
        assert "old" not in ums.usage_totals()

    def test_non_multiplicative_decay_falls_back_to_full(self, engine, uss):
        ums = make_ums(engine, uss, decay=LinearDecay(window=3600.0))
        assert not ums.incremental
        engine.run_until(40.0)
        assert ums.full_refreshes == ums.refreshes

    def test_young_user_stays_exact(self, engine, uss):
        """A job whose bin midpoint lies beyond ``now`` would break the
        analytic age shift (ages clamp at 0); the user must be recomputed
        until the midpoint passes — and totals must match throughout."""
        inc = make_ums(engine, uss, decay=ExponentialDecay(half_life=600.0))
        # bin 0 covers [0, 60): its midpoint (30) is ahead of the first
        # refreshes at t=10 and t=20
        uss.record_job(UsageRecord(user="u", site="a", start=0.0, end=5.0))
        for t in (10.0, 20.0, 30.0, 40.0, 50.0):
            engine.run_until(t)
            self.assert_match(inc, uss)

    def test_stop_releases_cursors(self, engine, uss):
        ums = make_ums(engine, uss, decay=ExponentialDecay(half_life=3600.0))
        assert uss._usage_cursors
        ums.stop()
        assert not uss._usage_cursors

    def test_remote_updates_mark_users_dirty(self, engine):
        network = Network(engine, base_latency=0.1)
        a = UsageStatisticsService("a", engine, network,
                                   histogram_interval=60.0,
                                   exchange_interval=5.0)
        b = UsageStatisticsService("b", engine, network,
                                   histogram_interval=60.0,
                                   exchange_interval=5.0)
        b.add_peer("a")
        ums = UsageMonitoringService("a", engine, sources=[a],
                                     decay=NoDecay(), refresh_interval=5.0)
        b.record_job(UsageRecord(user="u", site="b", start=0.0, end=80.0))
        engine.run_until(20.0)
        assert ums.usage_totals().get("u", 0.0) == pytest.approx(80.0)
        b.record_job(UsageRecord(user="u", site="b", start=20.0, end=30.0))
        engine.run_until(40.0)
        assert ums.usage_totals().get("u", 0.0) == pytest.approx(90.0)


class TestFreshnessHorizons:
    """The UMS freezes its sources' usage horizons at refresh time, so the
    FCS inherits a horizon set consistent with the totals it serves."""

    def test_horizons_frozen_at_refresh(self, engine, uss):
        ums = make_ums(engine, uss)
        engine.run_until(25.0)
        # last refresh at t=20: the local horizon is the refresh time,
        # not the live clock
        assert ums.usage_horizons() == {"a": pytest.approx(20.0)}
        assert ums.computed_at == pytest.approx(20.0)

    def test_remote_horizons_flow_through(self, engine):
        network = Network(engine, base_latency=0.1)
        a = UsageStatisticsService("a", engine, network,
                                   histogram_interval=60.0,
                                   exchange_interval=10.0)
        b = UsageStatisticsService("b", engine, network,
                                   histogram_interval=60.0,
                                   exchange_interval=10.0)
        b.add_peer("a")
        ums = make_ums(engine, a)
        b.record_job(UsageRecord(user="u", site="b", start=0.0, end=80.0))
        engine.run_until(25.0)
        horizons = ums.usage_horizons()
        # b's t=20 publish lands at 20.1 — after the UMS refresh at t=20 —
        # so the captured horizon is from b's t=10 publish
        assert horizons["b"] == pytest.approx(10.0)
        assert horizons["a"] == pytest.approx(20.0)

    def test_local_only_ums_ignores_remote_horizons(self, engine):
        network = Network(engine, base_latency=0.1)
        a = UsageStatisticsService("a", engine, network,
                                   histogram_interval=60.0,
                                   exchange_interval=10.0)
        b = UsageStatisticsService("b", engine, network,
                                   histogram_interval=60.0,
                                   exchange_interval=10.0)
        b.add_peer("a")
        ums = make_ums(engine, a, consider_remote=False)
        b.record_job(UsageRecord(user="u", site="b", start=0.0, end=80.0))
        engine.run_until(25.0)
        assert set(ums.usage_horizons()) == {"a"}
