"""Property-based tests for the substrates: histograms, decay, engine,
cluster accounting, trace transformations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import ExponentialDecay, LinearDecay, NoDecay, SlidingWindowDecay
from repro.core.usage import UsageHistogram
from repro.rms.cluster import Cluster
from repro.rms.job import Job
from repro.sim.engine import SimulationEngine
from repro.workload.generator import allocate_counts, compress_to_span, scale_trace_load
from repro.workload.trace import Trace, TraceJob

intervals = st.sampled_from([7.0, 60.0, 3600.0])
job_specs = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
              st.floats(min_value=0.0, max_value=1e4, allow_nan=False)),
    min_size=1, max_size=30)


class TestHistogramProperties:
    @given(intervals, job_specs)
    def test_total_charge_conserved_under_binning(self, interval, specs):
        """Splitting a job across bins never creates or destroys charge."""
        h = UsageHistogram(interval)
        expected = 0.0
        for start, duration in specs:
            h.add_charge("u", start, start + duration)
            expected += duration
        assert np.isclose(h.total("u"), expected, rtol=1e-9, atol=1e-6)

    @given(intervals, intervals, job_specs)
    def test_total_independent_of_interval(self, i1, i2, specs):
        h1, h2 = UsageHistogram(i1), UsageHistogram(i2)
        for start, duration in specs:
            h1.add_charge("u", start, start + duration)
            h2.add_charge("u", start, start + duration)
        assert np.isclose(h1.total("u"), h2.total("u"), rtol=1e-9, atol=1e-6)

    @given(intervals, job_specs)
    def test_snapshot_replace_identity(self, interval, specs):
        h = UsageHistogram(interval)
        for start, duration in specs:
            h.add_charge("u", start, start + duration)
        h2 = UsageHistogram(interval)
        h2.add_charge("stale", 0.0, interval)  # replaced by the snapshot
        h2.apply_arrays(*h.snapshot_arrays(), full=True)
        assert h2.snapshot() == h.snapshot()

    @given(intervals, job_specs)
    def test_decayed_never_exceeds_raw_total(self, interval, specs):
        h = UsageHistogram(interval)
        for start, duration in specs:
            h.add_charge("u", start, start + duration)
        now = max((s + d) for s, d in specs) + 1.0
        decayed = h.decayed_total("u", now, ExponentialDecay(half_life=1e4))
        assert decayed <= h.total("u") + 1e-6


decays = st.sampled_from([
    NoDecay(),
    ExponentialDecay(half_life=3600.0),
    LinearDecay(window=7200.0),
    SlidingWindowDecay(window=7200.0),
])
ages = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestDecayProperties:
    @given(decays, ages)
    def test_weight_in_unit_range(self, decay, age):
        assert 0.0 <= decay.weight(age) <= 1.0

    @given(decays, ages, ages)
    def test_non_increasing(self, decay, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        assert decay.weight(hi) <= decay.weight(lo) + 1e-12

    @given(decays)
    def test_weight_at_zero_is_one(self, decay):
        assert decay.weight(0.0) == 1.0

    @given(decays, st.lists(ages, min_size=1, max_size=20))
    def test_vectorized_matches_scalar(self, decay, age_list):
        arr = np.array(age_list)
        np.testing.assert_allclose(decay.weights(arr),
                                   [decay.weight(a) for a in age_list])


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_events_always_fire_in_order(self, delays):
        engine = SimulationEngine()
        fired = []
        for d in delays:
            engine.schedule(d, lambda d=d: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=20))
    def test_clock_never_goes_backwards(self, delays):
        engine = SimulationEngine()
        observed = []

        def note():
            observed.append(engine.now)

        for d in delays:
            engine.schedule(d, note)
        engine.run()
        assert all(b >= a for a, b in zip(observed, observed[1:]))


core_counts = st.lists(st.integers(min_value=1, max_value=4),
                       min_size=1, max_size=12)


class TestClusterProperties:
    @given(core_counts)
    def test_allocate_release_restores_capacity(self, jobs_cores):
        cluster = Cluster("c", n_nodes=8, cores_per_node=4)
        jobs = []
        t = 0.0
        for cores in jobs_cores:
            job = Job(system_user="u", duration=1.0, cores=cores,
                      submit_time=0.0)
            if cluster.fits(cores):
                cluster.allocate(job, t)
                jobs.append(job)
            t += 1.0
        for job in jobs:
            cluster.release(job, t)
        assert cluster.free_cores == cluster.total_cores

    @given(core_counts)
    def test_free_cores_never_negative(self, jobs_cores):
        cluster = Cluster("c", n_nodes=4, cores_per_node=2)
        for cores in jobs_cores:
            job = Job(system_user="u", duration=1.0, cores=cores,
                      submit_time=0.0)
            if cluster.fits(cores):
                cluster.allocate(job, 0.0)
            assert 0 <= cluster.free_cores <= cluster.total_cores


share_maps = st.dictionaries(st.sampled_from(list("abcdef")),
                             st.floats(min_value=0.001, max_value=10.0,
                                       allow_nan=False),
                             min_size=1, max_size=6)


class TestGeneratorProperties:
    @given(share_maps, st.integers(min_value=1, max_value=10000))
    def test_allocate_counts_sums_exactly(self, shares, n):
        counts = allocate_counts(shares, n)
        assert sum(counts.values()) == n
        assert all(c >= 0 for c in counts.values())

    @given(share_maps, st.integers(min_value=100, max_value=5000))
    def test_allocate_counts_proportional(self, shares, n):
        counts = allocate_counts(shares, n)
        total = sum(shares.values())
        for user, share in shares.items():
            assert abs(counts[user] - n * share / total) <= 1.0

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False)),
        min_size=2, max_size=40),
        st.floats(min_value=1.0, max_value=1e5, allow_nan=False))
    def test_compress_preserves_count_and_order(self, specs, span):
        trace = Trace([TraceJob(user="u", submit=s, duration=d)
                       for s, d in specs])
        out = compress_to_span(trace, span)
        assert out.n_jobs == trace.n_jobs
        times = out.arrival_times()
        assert all(b >= a - 1e-9 for a, b in zip(times, times[1:]))
        assert out.start == 0.0

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=30),
           st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    def test_scale_load_hits_target_and_preserves_shares(self, durations, target):
        jobs = [TraceJob(user=f"u{i % 3}", submit=float(i), duration=d)
                for i, d in enumerate(durations)]
        trace = Trace(jobs)
        before = trace.usage_shares()
        out = scale_trace_load(trace, target)
        assert np.isclose(out.total_usage(), target, rtol=1e-9)
        after = out.usage_shares()
        for user in before:
            assert np.isclose(before[user], after[user], rtol=1e-9)
