"""Workloads: loops, phased schedules, stressor, victims."""

import numpy as np
import pytest

from repro.cpu.activity import ActivityProfile, IDLE
from repro.errors import ConfigError, PlacementError
from repro.units import ms
from repro.workloads import (
    BrowserVictim,
    CompressionVictim,
    L2PointerChaseLoop,
    NopLoop,
    PhasedWorkload,
    StallingLoop,
    SteadyWorkload,
    StressNgCache,
    TrafficLoop,
    WebsiteLibrary,
    launch_stressor_threads,
)
from repro.workloads.analytics import AnalyticsWorkload
from repro.workloads.compression import compression_duration_ns
from repro.workloads.loops import (
    STALLING_LOOP_STALL_RATIO,
    stalling_profile,
    traffic_profile,
)


class TestProfiles:
    def test_stalling_profile_matches_paper_ratio(self):
        assert stalling_profile().stall_ratio == STALLING_LOOP_STALL_RATIO

    def test_traffic_profile_hops(self):
        assert traffic_profile(3).mean_hops == 3.0

    def test_negative_hops_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            traffic_profile(-1)


class TestLifecycle:
    def test_attach_claims_core(self, solo_system):
        loop = NopLoop("n")
        loop.attach(solo_system, 0, 3)
        assert solo_system.socket(0).core(3).owner == "n"
        loop.detach()
        assert solo_system.socket(0).core(3).owner is None

    def test_double_attach_rejected(self, solo_system):
        loop = NopLoop("n")
        loop.attach(solo_system, 0, 3)
        with pytest.raises(PlacementError):
            loop.attach(solo_system, 0, 4)

    def test_start_requires_attach(self):
        with pytest.raises(PlacementError):
            NopLoop("n").start()

    def test_stop_idles_core(self, solo_system):
        loop = StallingLoop("s")
        solo_system.launch(loop, 0, 0)
        solo_system.run_ms(1)
        loop.stop()
        profile = solo_system.socket(0).core(0).profile_at(
            solo_system.now
        )
        assert profile == IDLE

    def test_launch_terminate_via_system(self, solo_system):
        loop = TrafficLoop("t", hops=1)
        solo_system.launch(loop, 0, 0)
        assert loop.running
        solo_system.terminate(loop)
        assert not loop.running


class TestFlows:
    def test_traffic_loop_registers_mesh_flow(self, solo_system):
        loop = TrafficLoop("t", hops=2)
        solo_system.launch(loop, 0, 5)
        assert solo_system.socket(0).contention.num_flows == 1
        solo_system.terminate(loop)
        assert solo_system.socket(0).contention.num_flows == 0

    def test_nop_loop_has_no_flow(self, solo_system):
        loop = NopLoop("n")
        solo_system.launch(loop, 0, 5)
        assert solo_system.socket(0).contention.num_flows == 0

    def test_hops_fallback_when_exact_distance_missing(self, solo_system):
        # Core at tile (2,5) has no 1-hop neighbour slice (Figure 2);
        # the loop falls back to the nearest distance.
        core_id = next(
            i for i in range(16)
            if solo_system.socket(0).mesh.core_coord(i) == (2, 5)
        )
        loop = TrafficLoop("t", hops=1)
        solo_system.launch(loop, 0, core_id)
        assert loop.profile.mean_hops >= 1.0


class TestPhasedWorkload:
    def test_phases_execute_in_order(self, solo_system):
        a = ActivityProfile(active=True, llc_rate_per_us=10.0)
        b = ActivityProfile(active=True, llc_rate_per_us=20.0)
        workload = PhasedWorkload("p", [(ms(5), a), (ms(5), b)])
        solo_system.launch(workload, 0, 0)
        solo_system.run_ms(6)
        core = solo_system.socket(0).core(0)
        assert core.profile_at(solo_system.now).llc_rate_per_us == 20.0

    def test_completes_then_idles(self, solo_system):
        workload = PhasedWorkload(
            "p", [(ms(2), ActivityProfile(active=True))]
        )
        solo_system.launch(workload, 0, 0)
        solo_system.run_ms(5)
        assert workload.completed
        core = solo_system.socket(0).core(0)
        assert not core.profile_at(solo_system.now).active

    def test_repeat_loops_schedule(self, solo_system):
        a = ActivityProfile(active=True, llc_rate_per_us=5.0)
        workload = PhasedWorkload("p", [(ms(2), a), (ms(2), IDLE)],
                                  repeat=True)
        solo_system.launch(workload, 0, 0)
        solo_system.run_ms(9)
        assert not workload.completed
        assert workload.running
        solo_system.terminate(workload)

    def test_stop_cancels_pending_phase(self, solo_system):
        workload = PhasedWorkload(
            "p", [(ms(50), ActivityProfile(active=True))]
        )
        solo_system.launch(workload, 0, 0)
        solo_system.run_ms(1)
        solo_system.terminate(workload)
        solo_system.run_ms(100)  # no callback should fire

    def test_empty_phases_rejected(self):
        with pytest.raises(PlacementError):
            PhasedWorkload("p", [])


class TestStressor:
    def test_alternates_heavy_and_quiet(self, solo_system):
        thread = StressNgCache("s", solo_system.namer.rng("s"))
        solo_system.launch(thread, 0, 0)
        rates = set()
        for _ in range(60):
            solo_system.run_ms(20)
            profile = solo_system.socket(0).core(0).profile_at(
                solo_system.now
            )
            rates.add(profile.llc_rate_per_us)
        assert len(rates) >= 2
        from repro.workloads.stressor import HEAVY_RATE_FRACTION

        assert max(rates) == 160.0 * HEAVY_RATE_FRACTION
        solo_system.terminate(thread)

    def test_heavy_time_accounted(self, solo_system):
        thread = StressNgCache("s", solo_system.namer.rng("s2"))
        solo_system.launch(thread, 0, 0)
        solo_system.run_ms(2000)
        solo_system.terminate(thread)
        assert 0 < thread.heavy_time_ns < solo_system.now

    def test_launcher_avoids_reserved_cores(self, solo_system):
        threads = launch_stressor_threads(
            solo_system, 3, avoid_cores={0, 1, 2}
        )
        cores = {thread.core_id for thread in threads}
        assert not cores & {0, 1, 2}
        for thread in threads:
            solo_system.terminate(thread)

    def test_launcher_rejects_oversubscription(self, solo_system):
        with pytest.raises(ValueError):
            launch_stressor_threads(solo_system, 17)


class TestVictims:
    def test_compression_duration_proportional_to_size(self):
        small = compression_duration_ns(1024)
        large = compression_duration_ns(5120)
        assert large == pytest.approx(5 * small, rel=0.01)

    def test_compression_jitter_is_seeded(self):
        a = compression_duration_ns(1024, np.random.default_rng(3))
        b = compression_duration_ns(1024, np.random.default_rng(3))
        assert a == b

    def test_compression_victim_runs_then_idles(self, solo_system):
        victim = CompressionVictim("v", 512, start_delay_ms=5)
        solo_system.launch(victim, 0, 0)
        solo_system.run_ms(6)
        core = solo_system.socket(0).core(0)
        assert core.profile_at(solo_system.now).active
        solo_system.run_ms(200)
        assert victim.completed

    def test_website_signatures_are_deterministic(self):
        a = WebsiteLibrary(10, seed=5).signature(3)
        b = WebsiteLibrary(10, seed=5).signature(3)
        assert a == b

    def test_website_signatures_differ_between_sites(self):
        library = WebsiteLibrary(10, seed=5)
        assert library.signature(0) != library.signature(1)

    def test_signature_bursts_fit_trace(self):
        library = WebsiteLibrary(20, seed=1, trace_ms=5000)
        for site in range(20):
            signature = library.signature(site)
            assert all(
                burst.start_ms + burst.duration_ms <= 5000 * 1.01
                for burst in signature.bursts
            )
            assert signature.bursts  # at least the navigation burst

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            WebsiteLibrary(5).signature(5)

    @pytest.mark.parametrize("num_sites", [0, -1])
    def test_empty_library_rejected(self, num_sites):
        with pytest.raises(ConfigError, match="at least one site"):
            WebsiteLibrary(num_sites)

    def test_browser_victim_visits_vary(self, solo_system):
        library = WebsiteLibrary(5, seed=2)
        signature = library.signature(0)
        a = BrowserVictim("a", signature, np.random.default_rng(1))
        b = BrowserVictim("b", signature, np.random.default_rng(2))
        assert a.phases != b.phases

    def test_analytics_worker_alternates(self, solo_system):
        worker = AnalyticsWorkload("w", solo_system.namer.rng("a"))
        solo_system.launch(worker, 0, 0)
        rates = set()
        for _ in range(40):
            solo_system.run_ms(40)
            rates.add(
                solo_system.socket(0).core(0).profile_at(
                    solo_system.now
                ).llc_rate_per_us
            )
        assert len(rates) == 2
        solo_system.terminate(worker)


class TestSteadyWorkload:
    def test_profile_applied_on_start(self, solo_system):
        profile = ActivityProfile(active=True, llc_rate_per_us=42.0)
        workload = SteadyWorkload("w", profile)
        solo_system.launch(workload, 0, 0)
        now = solo_system.now
        assert solo_system.socket(0).core(0).profile_at(
            now
        ).llc_rate_per_us == 42.0
        solo_system.terminate(workload)
