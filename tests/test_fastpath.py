"""Unit tests for the fastpath package: backend selection, the
request records, digest salting, ``run_batches`` and the vectorized
backends' equivalence contracts (small shapes — the exhaustive grids
live in the differential suite, ``tests/test_differential.py``).
"""

import dataclasses
import random

import pytest

from repro.config import DemandModelConfig, default_platform_config
from repro.core.context import ExperimentContext
from repro.core.evaluation import capacity_sweep, measure_capacity
from repro.defenses.evaluation import DEFENSE_KEYS
from repro.engine.parallel import run_batches
from repro.errors import ConfigError
from repro.fastpath.backend import (
    BACKEND_ENV_VAR,
    BACKENDS,
    BATCHABLE_EXPERIMENTS,
    CapacityRequest,
    DefenseRequest,
    resolve_backend,
)
from repro.fastpath.batch import (
    _capacity_plan,
    _defense_plan,
    _group_key,
    _PMU_STAGGER_NS,
    _REPICK_PERIOD_NS,
    _lattices_for,
    _observations,
    batch_frequency_lattices,
)
from repro.power.ufs import accumulate_observation, ufs_control_step
from repro.resilience.checkpoint import Checkpoint, checkpoint_key
from repro.telemetry import MetricsRegistry, using
from repro.telemetry.manifest import config_digest
from repro.trace.store import TraceStore
from repro.validate import equal_results


class TestResolveBackend:
    def test_default_is_des(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None) == "des"

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "batch")
        assert resolve_backend(None) == "batch"

    def test_blank_env_var_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "  ")
        assert resolve_backend(None) == "des"

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "batch")
        assert resolve_backend("analytical") == "analytical"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            resolve_backend("bogus")

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ConfigError, match="REPRO_BACKEND"):
            resolve_backend(None)

    def test_auto_takes_batch_for_batchable_experiments(self):
        for experiment in BATCHABLE_EXPERIMENTS:
            assert resolve_backend("auto", experiment=experiment) == "batch"

    def test_auto_falls_back_to_des_elsewhere(self):
        assert resolve_backend("auto") == "des"
        assert resolve_backend("auto",
                               experiment="comparison_matrix") == "des"

    def test_auto_never_survives_resolution(self):
        for name in BACKENDS:
            assert resolve_backend(name, experiment="capacity_sweep") != \
                "auto"


class TestDigestSalting:
    def test_des_backend_preserves_legacy_digests(self):
        from repro.config import default_platform_config

        platform = default_platform_config()
        legacy = config_digest(platform)
        assert config_digest(platform, backend="des") == legacy
        assert config_digest(platform, backend=None) == legacy

    def test_vectorized_backends_get_distinct_digests(self):
        from repro.config import default_platform_config

        platform = default_platform_config()
        digests = {
            config_digest(platform),
            config_digest(platform, backend="batch"),
            config_digest(platform, backend="analytical"),
        }
        assert len(digests) == 3

    def test_none_config_salts_under_vectorized_backends(self):
        # Legacy: no config, no digest.  Salted: the backend itself is
        # identity-bearing, so even a None config must produce a key.
        assert config_digest(None) is None
        assert config_digest(None, backend="batch") is not None

    def test_store_and_checkpoint_keys_diverge_per_backend(self):
        params = {"intervals_ms": (21.0,), "bits": 5}
        des = TraceStore.key("capacity_sweep", params=params, seed=0)
        legacy = TraceStore.key("capacity_sweep", params=params, seed=0,
                                backend="des")
        batch = TraceStore.key("capacity_sweep", params=params, seed=0,
                               backend="batch")
        assert des == legacy
        assert batch != des
        assert checkpoint_key("capacity_sweep", params=params, seed=0,
                              backend="batch") == batch


class TestContextBackend:
    def test_backend_is_validated(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            ExperimentContext(backend="bogus").validate()

    def test_every_spelling_accepted(self):
        for name in BACKENDS:
            ExperimentContext(backend=name).validate()

    def test_coalesce_builds_the_quartet(self):
        ctx = ExperimentContext(seed=3, workers=2, backend="batch")
        assert (ctx.seed, ctx.workers, ctx.backend) == (3, 2, "batch")


def _double(requests):
    """Module-level batch runner so pooled chunks can pickle it."""
    return [r * 2 for r in requests]


class TestRunBatches:
    def test_results_keep_request_order(self):
        assert run_batches([3, 1, 2], _double) == [6, 2, 4]

    def test_partition_invariance(self):
        requests = list(range(11))
        serial = run_batches(requests, _double, workers=1)
        for workers in (2, 3, 4):
            assert run_batches(requests, _double,
                               workers=workers) == serial

    def test_checkpoint_requires_labels(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "x.ckpt.json", key="k")
        with pytest.raises(ConfigError, match="label"):
            run_batches([1], _double, checkpoint=ckpt)
        with pytest.raises(ConfigError, match="2 labels"):
            run_batches([1], _double, labels=["a", "b"],
                        checkpoint=ckpt)
        with pytest.raises(ConfigError, match="unique"):
            run_batches([1, 2], _double, labels=["a", "a"],
                        checkpoint=ckpt)

    def test_checkpoint_resume_skips_completed(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "x.ckpt.json", key="k")
        ckpt.record("b", 999)  # a previously-completed (stale) result
        registry = MetricsRegistry()
        with using(registry):
            results = run_batches([1, 2, 3], _double,
                                  labels=["a", "b", "c"],
                                  checkpoint=ckpt)
        assert results == [2, 999, 6]
        counters = registry.snapshot()["counters"]
        assert counters["runner.checkpoint.skipped"] == 1
        # The two fresh results were recorded, so a rerun is all-skip.
        rerun = Checkpoint(tmp_path / "x.ckpt.json", key="k")
        with using(MetricsRegistry()):
            assert run_batches([1, 2, 3], _double,
                               labels=["a", "b", "c"],
                               checkpoint=rerun) == [2, 999, 6]


class TestCapacityShape:
    """A capacity point needs a measured bit on every backend."""

    @pytest.mark.parametrize("backend", ["des", "batch", "analytical"])
    @pytest.mark.parametrize("bits", [0, -3])
    def test_measure_capacity_rejects_no_bits(self, backend, bits):
        with pytest.raises(ConfigError, match="at least one bit"):
            measure_capacity(interval_ms=20.0, bits=bits,
                             backend=backend)

    @pytest.mark.parametrize("backend", ["des", "batch", "analytical"])
    @pytest.mark.parametrize("bits", [0, -3])
    def test_capacity_sweep_rejects_no_bits(self, backend, bits):
        with pytest.raises(ConfigError, match="at least one bit"):
            capacity_sweep(intervals_ms=(28.0, 20.0), bits=bits,
                           backend=backend)


#: Platforms ``PlatformConfig.validate`` rejects, one per kind of defect.
INVALID_PLATFORMS = {
    "descending-llc-bands": dataclasses.replace(
        default_platform_config(),
        demand=DemandModelConfig(
            llc_bands=tuple(reversed(DemandModelConfig().llc_bands))
        ),
    ),
    "stall-trigger-above-one": default_platform_config().with_ufs(
        stalled_fraction_trigger=1.5
    ),
    "off-grid-range": default_platform_config().with_ufs(
        max_freq_mhz=2450
    ),
    "empty-observation-window": default_platform_config().with_ufs(
        observation_ns=0
    ),
    "negative-noise-scale": dataclasses.replace(
        default_platform_config(),
        latency=dataclasses.replace(default_platform_config().latency,
                                    window_jitter_cycles=-0.5),
    ),
}


class TestPlatformValidation:
    """Every backend rejects the platforms ``System`` rejects."""

    @pytest.mark.parametrize("backend", ["des", "batch", "analytical"])
    @pytest.mark.parametrize("name", list(INVALID_PLATFORMS))
    def test_invalid_platform_rejected(self, backend, name):
        with pytest.raises(ConfigError):
            measure_capacity(platform=INVALID_PLATFORMS[name],
                             interval_ms=21, bits=6, backend=backend)


class TestBatchBackend:
    def test_capacity_point_bit_identical_to_des(self):
        des = measure_capacity(interval_ms=21.0, bits=6, seed=5,
                               backend="des")
        batch = measure_capacity(interval_ms=21.0, bits=6, seed=5,
                                 backend="batch")
        assert equal_results(des, batch)

    def test_defense_report_bit_identical_to_des(self):
        from repro.defenses.evaluation import channel_under_defense

        des = channel_under_defense("randomized", bits=5, seed=2,
                                    backend="des")
        batch = channel_under_defense("randomized", bits=5, seed=2,
                                      backend="batch")
        assert equal_results(des, batch)

    def test_sweep_workers_compose_with_backend(self):
        serial = capacity_sweep(intervals_ms=(21.0, 15.0), bits=5,
                                seed=1, backend="batch")
        pooled = capacity_sweep(intervals_ms=(21.0, 15.0), bits=5,
                                seed=1, backend="batch", workers=2)
        assert equal_results(serial, pooled)

    def test_trial_counter(self):
        registry = MetricsRegistry()
        with using(registry):
            measure_capacity(interval_ms=21.0, bits=5, backend="batch")
        counters = registry.snapshot()["counters"]
        assert counters["fastpath.batch.trials"] == 1

    def test_env_var_reaches_the_runner(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "batch")
        registry = MetricsRegistry()
        with using(registry):
            measure_capacity(interval_ms=21.0, bits=5)
        counters = registry.snapshot()["counters"]
        assert counters["fastpath.batch.trials"] == 1

    def test_explicit_des_is_immune_to_the_env_var(self, monkeypatch):
        # A DES sweep pins backend="des" on its fan-out trials, so a
        # REPRO_BACKEND set mid-flight cannot flip them after the
        # sweep already resolved.
        monkeypatch.setenv(BACKEND_ENV_VAR, "batch")
        registry = MetricsRegistry()
        with using(registry):
            capacity_sweep(intervals_ms=(21.0,), bits=5, backend="des")
        counters = registry.snapshot()["counters"]
        assert "fastpath.batch.trials" not in counters

    @pytest.mark.parametrize("interval_ms", [21.0, 12.0])
    def test_observation_longer_than_period(self, interval_ms):
        # A 20 ms window over 10 ms ticks reaches back past the previous
        # tick; the PMU clamps it there, and so must the lattice.
        platform = default_platform_config().with_ufs(
            observation_ns=20_000_000
        )
        des, batch = (
            measure_capacity(platform=platform, interval_ms=interval_ms,
                             bits=24, seed=0, backend=backend)
            for backend in ("des", "batch")
        )
        assert equal_results(des, batch)

    def test_shared_lattice_matches_solo_lattices(self):
        # One group mixing horizons, a cross-socket trial and a
        # restricted-window trial: each trial's history must not depend
        # on who else shares the lattice (trials past their horizon
        # stop stepping).
        def plans():
            return [
                _capacity_plan(CapacityRequest(interval_ms=21.0, bits=6,
                                               seed=3)),
                _capacity_plan(CapacityRequest(interval_ms=28.0, bits=11,
                                               seed=4)),
                _defense_plan(DefenseRequest("restricted_1500_1700",
                                             bits=4, seed=5)),
                _capacity_plan(CapacityRequest(interval_ms=15.0, bits=3,
                                               cross_processor=True)),
            ]

        together = plans()
        assert len({_group_key(p.platform) for p in together}) == 1
        assert len({p.duration_ns for p in together}) == len(together)
        shared = _lattices_for(together)
        solo = [_lattices_for([plan])[0] for plan in plans()]
        assert shared == solo
        restricted = {mhz for socket in shared[2] for _, mhz in socket}
        assert restricted <= {1500, 1600, 1700}


    @pytest.mark.parametrize("interval_ms, cross", [
        (12.0, False), (15.0, False), (21.0, True),
    ])
    def test_lattice_equals_des_frequency_timeline(self, interval_ms,
                                                   cross):
        # Every frequency change, to the nanosecond, up to the horizon.
        # At 12 ms one 10 ms window meets two measurement windows.
        from repro.core import ChannelConfig, UFVariationChannel
        from repro.core.evaluation import random_bits
        from repro.platform.system import System
        from repro.units import ms

        bits = 16
        system = System(default_platform_config(), seed=0)
        channel = UFVariationChannel(
            system, config=ChannelConfig(interval_ns=ms(interval_ms)),
            sender_socket=0, sender_cores=(0,),
            receiver_socket=1 if cross else 0, receiver_core=8,
        )
        channel.transmit(random_bits(bits, 0, f"payload-{interval_ms}"))
        horizon = bits * ms(interval_ms)
        des = [
            tuple(point for point in socket.pmu.timeline.points()
                  if point[0] <= horizon)
            for socket in system.sockets
        ]
        channel.shutdown()
        system.stop()
        [batch] = batch_frequency_lattices([CapacityRequest(
            interval_ms=interval_ms, bits=bits, seed=0,
            cross_processor=cross,
        )])
        assert batch == des


def _reference_lattice(plan):
    """One trial's frequency history, stepped without any shortcut:
    every tick folds every touched core's ``window_stats`` and calls the
    control law."""
    platform = plan.platform
    ufs = platform.ufs
    sockets = platform.num_sockets
    coupled = platform.cross_socket_coupling and sockets > 1
    events = []
    for socket_id in range(sockets):
        previous = 0
        tick = ufs.period_ns + socket_id * _PMU_STAGGER_NS
        while tick <= plan.duration_ns:
            start = max(previous, tick - ufs.observation_ns)
            events.append((tick, 1, socket_id, start))
            previous, tick = tick, tick + ufs.period_ns
    if plan.repick_rng is not None:
        events += [(time_ns, 0, -1, 0) for time_ns in range(
            _REPICK_PERIOD_NS, plan.duration_ns + 1, _REPICK_PERIOD_NS)]
    freq = list(plan.init_freq)
    dither = [0] * sockets
    countdown = [0] * sockets
    limits = list(plan.init_limits)
    history = [list(points) for points in plan.init_history]
    steps = 0
    for time_ns, order, socket_id, start in sorted(events):
        if order == 0:
            points = ufs.frequency_points_mhz
            pick = int(points[plan.repick_rng.integers(len(points))])
            for s in range(sockets):
                limits[s] = (pick, pick)
                if freq[s] != pick:
                    freq[s] = pick
                    history[s].append((time_ns, pick))
            continue
        fold = accumulate_observation(
            [(entry.timeline.window_stats(start, time_ns), entry.above_base)
             for _, entry in sorted(plan.cores[socket_id].items())],
            ufs.stall_ratio_threshold,
        )
        remote = (max(freq[s] for s in range(sockets) if s != socket_id)
                  if coupled else None)
        result = ufs_control_step(
            freq_mhz=freq[socket_id], dither_phase=dither[socket_id],
            slow_countdown=countdown[socket_id],
            min_limit_mhz=limits[socket_id][0],
            max_limit_mhz=limits[socket_id][1],
            active=fold[0], stalled=fold[1], llc_rate=fold[2],
            noc_score=fold[3], max_stall=fold[4], turbo=fold[5],
            remote_mhz=remote, ufs=ufs, demand=platform.demand,
            coupling_lag_mhz=platform.coupling_lag_mhz,
        )
        steps += 1
        if result.freq_mhz != freq[socket_id]:
            history[socket_id].append((time_ns, result.freq_mhz))
        freq[socket_id] = result.freq_mhz
        dither[socket_id] = result.dither_phase
        countdown[socket_id] = result.slow_countdown
    return history, steps


#: Request lists the memoised lattice must step exactly: both
#: deployments at mixed horizons, every defense, and an observation
#: window longer than the PMU period.
_LONG_WINDOW = default_platform_config().with_ufs(observation_ns=20_000_000)
REFERENCE_GROUPS = {
    "deployments": [
        CapacityRequest(interval_ms=interval, bits=bits, seed=seed,
                        cross_processor=cross)
        for seed, (interval, bits) in enumerate(
            [(12.0, 30), (15.0, 9), (21.0, 24), (33.0, 17)])
        for cross in (False, True)
    ],
    "defenses": [
        DefenseRequest(defense, bits=bits, seed=seed)
        for seed, defense in enumerate(DEFENSE_KEYS)
        for bits in (7, 26)
    ],
    "long-window": [
        CapacityRequest(interval_ms=interval, bits=bits, seed=1,
                        cross_processor=cross, platform=_LONG_WINDOW)
        for interval, bits in ((12.0, 25), (21.0, 14))
        for cross in (False, True)
    ],
}


class TestMemoisedLattice:
    @pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
    def test_lattice_equals_stepping_every_tick(self, name, monkeypatch):
        import repro.fastpath.batch as batch

        calls = []

        def counted(**kwargs):
            calls.append(kwargs)
            return ufs_control_step(**kwargs)

        def plans():
            return batch._plans(REFERENCE_GROUPS[name])

        monkeypatch.setattr(batch, "ufs_control_step", counted)
        lattices = _lattices_for(plans())
        references = [_reference_lattice(plan) for plan in plans()]
        assert lattices == [history for history, _ in references]
        # Each distinct step is taken once per group, and trials do
        # revisit steps.
        assert len(calls) == len({tuple(sorted(call.items()))
                                  for call in calls})
        assert len(calls) < sum(steps for _, steps in references)


def _loud_timeline(rng):
    from repro.cpu.activity import IDLE, ActivityProfile, ProfileTimeline

    profiles = [
        IDLE,
        ActivityProfile(l2_rate_per_us=4.0),
        ActivityProfile(active=True, stall_ratio=0.8),
        ActivityProfile(llc_rate_per_us=40.0, mean_hops=2.0),
        ActivityProfile(active=True, llc_rate_per_us=9.0, mean_hops=1.0,
                        stall_ratio=0.2),
    ]
    timeline = ProfileTimeline(rng.choice(profiles))
    now = 0
    for _ in range(rng.randint(0, 14)):
        now += rng.choice((0, 1, 150, 400, 1300))
        timeline.set_profile(now, rng.choice(profiles))
    return timeline, now


class TestLatticeObservations:
    @pytest.mark.parametrize("seed", range(4))
    def test_skipping_silent_windows_changes_no_fold(self, seed,
                                                     monkeypatch):
        # The reference folds every touched core in every window (a
        # silent core adds exact zeros); short spans and gaps put two
        # loud spans inside one window.  The walk integrates one window
        # per distinct loud class of each core, and nothing else; each
        # distinct row of per-core classes is folded once.
        from repro.cpu.activity import ProfileTimeline
        from repro.fastpath import batch

        from .test_cpu import _reference_window_key

        walk = ProfileTimeline.walk_windows
        fold = batch.accumulate_observation
        integrated = []
        folded = []

        def counted_walk(timeline, windows):
            windows = list(windows)
            integrated.append(len(windows))
            return walk(timeline, windows)

        def counted_fold(samples, threshold):
            folded.append(len(samples))
            return fold(samples, threshold)

        rng = random.Random(seed)
        for _ in range(100):
            built = [_loud_timeline(rng) for _ in range(rng.randint(1, 3))]
            entries = [(timeline, rng.random() < 0.3)
                       for timeline, _ in built]
            horizon = max(end for _, end in built) + 1000
            period = rng.choice((500, 1000))
            observation = rng.choice((300, 1000, 2500))
            ticks = list(range(period, horizon + 1, period))
            starts = [max(previous, tick - observation)
                      for previous, tick in zip([0] + ticks, ticks)]
            last = rng.randint(0, len(ticks))
            interned = {}
            integrated.clear()
            folded.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ProfileTimeline, "walk_windows", counted_walk)
                patch.setattr(ProfileTimeline, "window_stats", None)
                patch.setattr(batch, "accumulate_observation", counted_fold)
                fold_ids, walked = _observations(entries, ticks, starts,
                                                 last, 0.3, interned)
            table = list(interned)
            assert len(fold_ids) == last
            rows = []
            for tick in range(last):
                samples = [
                    (timeline.window_stats(starts[tick], ticks[tick]),
                     above_base) for timeline, above_base in entries
                ]
                assert _fold_bits(table[fold_ids[tick]]) == \
                    _fold_bits(accumulate_observation(samples, 0.3))
                rows.append(tuple(
                    _reference_window_key(timeline, starts[tick],
                                          ticks[tick])
                    for timeline, _ in entries))
            loud_classes = sum(
                len({row[core] for row in rows} - {None})
                for core in range(len(entries)))
            assert sum(integrated) == walked == loud_classes
            assert len(integrated) == len(entries)  # one walk per core
            loud_rows = {row for row in rows if row != (None,) * len(row)}
            assert len(folded) == len(loud_rows)  # one fold per loud row
            assert 0 not in folded  # silence is not folded
            # The table is the group's: a second trial with the same
            # histories interns no new fold.
            again, _ = _observations(entries, ticks, starts, last, 0.3,
                                     interned)
            assert again == fold_ids and len(interned) == len(table)

    def test_sweep_op_integrates_few_windows(self):
        # Both Fig. 10 deployments and the §6.1 matrix at 100 bits: the
        # lattice meets 8,739 loud (core, tick) windows, but they fall
        # into a few hundred classes.
        from repro.defenses import evaluate_defenses

        registry = MetricsRegistry()
        with using(registry):
            for cross in (False, True):
                capacity_sweep(bits=100, cross_processor=cross, seed=0,
                               workers=1, backend="batch")
            evaluate_defenses(bits=100, seed=0, workers=1, backend="batch")
        windows = registry.snapshot()["counters"][
            "fastpath.batch.windows_integrated"]
        assert 0 < windows < 1000


def _fold_bits(fold):
    return tuple(value.hex() if isinstance(value, float) else value
                 for value in fold)


class TestAnalyticalBackend:
    def test_estimates_are_sane(self):
        from repro.fastpath.analytical import analytical_capacity_points

        point = analytical_capacity_points(
            [CapacityRequest(interval_ms=12.0, bits=30, seed=0)]
        )[0]
        assert 0.0 <= point.error_rate <= 1.0
        assert point.capacity_bps >= 0.0

    def test_tolerance_is_positive(self):
        from repro.fastpath.analytical import error_tolerance

        assert error_tolerance([0.1, 0.2, 0.3]) > 0.0

    def test_eval_counter(self):
        registry = MetricsRegistry()
        with using(registry):
            measure_capacity(interval_ms=12.0, bits=10,
                             backend="analytical")
        counters = registry.snapshot()["counters"]
        assert counters["fastpath.analytical.evals"] == 1


class TestComparisonMatrixGuard:
    def test_explicit_vectorized_backend_rejected(self):
        from repro.channels.comparison import comparison_matrix

        # The error must name the offending backend and list the
        # supported ones, so a typo'd CLI flag is self-explanatory.
        with pytest.raises(ConfigError) as excinfo:
            comparison_matrix(bits=4, backend="batch")
        message = str(excinfo.value)
        assert "'batch'" in message
        assert "des" in message and "auto" in message

    def test_analytical_backend_rejected_by_name(self):
        from repro.channels.comparison import comparison_matrix

        with pytest.raises(ConfigError, match="'analytical'"):
            comparison_matrix(bits=4, backend="analytical")

    def test_unknown_defense_is_a_clean_error(self):
        from repro.defenses.evaluation import channel_under_defense

        with pytest.raises(Exception):
            channel_under_defense("not-a-defense", bits=4,
                                  backend="batch")
