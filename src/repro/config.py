"""Platform and model configuration.

The defaults reproduce the paper's experiment platform (Table 1):

=====================  ====================================================
Processor              2x Intel Xeon Gold 6142
Microarchitecture      Skylake-SP
Number of cores        2 x 16
Core base frequency    2.6 GHz
UFS range              1.2 - 2.4 GHz
L1 cache               8-way, private, 32 KB + 32 KB
L2 cache               16-way, private, inclusive, 1024 KB
LLC                    11-way, shared, non-inclusive, 22528 KB
Frequency governor     powersave
=====================  ====================================================

Model constants (latency fit, UFS demand bands, noise shapes) are
calibrated against the paper's measured figures; each constant cites the
figure it is fit to.  They live here, rather than scattered through the
code, so a user can re-calibrate the whole platform for different silicon
by constructing a modified :class:`PlatformConfig`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError

# Tile coordinates are (row, col) on the 5x6 Skylake-SP XCC mesh die
# (Figure 2).  30 positions: 28 core-tile slots and 2 IMC tiles.
MESH_ROWS = 5
MESH_COLS = 6

# IMC (integrated memory controller) tiles, both sockets (Figure 2).
IMC_TILES: tuple[tuple[int, int], ...] = ((1, 0), (1, 5))

# The 16 enabled core tiles of socket 0, exactly as drawn in Figure 2.
SOCKET0_ACTIVE_TILES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 1), (2, 1), (3, 1), (4, 1),
    (0, 2), (2, 2), (4, 2),
    (0, 3), (2, 3), (3, 3),
    (0, 4), (1, 4), (3, 4),
    (0, 5), (2, 5),
)

# Socket 1 uses the same die but a different fused-off pattern
# (Section 3, "the tiles that are turned off are different").  We mirror
# socket 0 horizontally, which yields another valid 16-tile pattern.
SOCKET1_ACTIVE_TILES: tuple[tuple[int, int], ...] = tuple(
    sorted((row, MESH_COLS - 1 - col) for row, col in SOCKET0_ACTIVE_TILES)
)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache (or one LLC slice)."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    inclusive: bool = False

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, associativity and line size."""
        return self.size_bytes // (self.ways * self.line_bytes)

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the geometry is inconsistent."""
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"{self.name}: sizes must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} is not a whole number "
                f"of {self.ways}-way sets of {self.line_bytes}-byte lines"
            )
        sets = self.num_sets
        if sets & (sets - 1) != 0:
            raise ConfigError(
                f"{self.name}: set count {sets} must be a power of two "
                "for bit-sliced indexing"
            )


@dataclass(frozen=True)
class UfsConfig:
    """The uncore frequency scaling control law (Sections 2.2.1, 3.5).

    The PMU evaluates the socket roughly every 10 ms and moves the uncore
    frequency in 100 MHz operating points within the MSR-programmed
    [min, max] window.  ``active_idle_*`` give the dither band the uncore
    sits in when cores are busy but place no demand on the uncore
    (the paper's "staying at 1.5 GHz", Section 3.1).
    """

    min_freq_mhz: int = 1200
    max_freq_mhz: int = 2400
    step_mhz: int = 100
    period_ns: int = 10_000_000  # 10 ms evaluation period (Figure 5)
    # The PMU's decision reflects *recent* activity: it integrates the
    # trailing portion of each evaluation period rather than the whole
    # period, so a workload phase change is acted on at the next tick.
    observation_ns: int = 5_000_000
    # Hysteresis: a decrease is held back while any core still shows
    # meaningful memory-stall residue in the observation window,
    # preventing a spurious down-step right after a stalling phase
    # begins mid-window.
    decrease_veto_stall_ratio: float = 0.30
    active_idle_low_mhz: int = 1400
    active_idle_high_mhz: int = 1500
    # A core counts as "stalled" when its memory-stall cycle ratio within
    # an evaluation period exceeds this threshold.  Calibrated between the
    # paper's measured ratios: pointer chasing to LLC = 0.77 (stalls the
    # core), the traffic loop = 0.30 and L2-resident chasing = 0.14
    # (neither stalls it).  (Section 3.2.)
    stall_ratio_threshold: float = 0.55
    # The uncore pins at max frequency when strictly more than this
    # fraction of the active cores is stalled (Figure 4 boundary: 2
    # stalled + 4 unstalled = exactly 1/3 does NOT trigger).
    stalled_fraction_trigger: float = 1.0 / 3.0
    # Light demand (stabilised target below max) is served with slow
    # stepping: one 100 MHz increase every this many evaluation periods
    # ("over 50 ms to change from 1.5 to 1.6 GHz", Section 4.3.1).
    slow_step_periods: int = 6

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the control law is inconsistent."""
        if self.min_freq_mhz > self.max_freq_mhz:
            raise ConfigError("UFS min frequency exceeds max frequency")
        if self.step_mhz <= 0 or self.period_ns <= 0:
            raise ConfigError("UFS step and period must be positive")
        if self.observation_ns <= 0:
            raise ConfigError("UFS observation window must be positive")
        if (self.max_freq_mhz - self.min_freq_mhz) % self.step_mhz != 0:
            raise ConfigError("UFS range is not a multiple of the step")
        if not 0.0 < self.stalled_fraction_trigger < 1.0:
            raise ConfigError("stalled-fraction trigger must be in (0, 1)")

    @property
    def frequency_points_mhz(self) -> tuple[int, ...]:
        """All operating points the uncore may take, ascending."""
        return tuple(
            range(self.min_freq_mhz, self.max_freq_mhz + 1, self.step_mhz)
        )


@dataclass(frozen=True)
class DemandModelConfig:
    """Maps observed uncore demand to a target frequency (Figure 3 fit).

    Demand is measured in units of one traffic-loop thread's LLC access
    rate (``traffic_loop_rate_per_us``).  Two components are combined:

    * the *LLC component* rises with total LLC access rate and saturates
      at 2.3 GHz — "without any traffic on the interconnect, the
      frequency can only go up to 2.3 GHz" (Section 3.1);
    * the *NoC component* rises with a hop-weighted score
      ``sum(rate_i * hops_i^2)`` and reaches the 2.4 GHz maximum — one
      3-hop thread alone saturates it (Figure 3, bottom row).

    The target is the maximum of the two components.  Band thresholds are
    fit so the full Figure 3 matrix reproduces.
    """

    traffic_loop_rate_per_us: float = 160.0
    # LLC component: (threshold in traffic-thread units, target MHz).
    llc_bands: tuple[tuple[float, int], ...] = (
        (0.30, 1800),   # a few stalled pointer-chasers (Figure 4 floor)
        (0.95, 2100),   # one traffic thread, local slice
        (1.90, 2200),   # two threads
        (2.85, 2300),   # three or more threads (saturates at 2.3 GHz)
    )
    # NoC component: (threshold of sum(rate * hops^2), target MHz).
    noc_bands: tuple[tuple[float, int], ...] = (
        (0.90, 2200),   # one 1-hop thread
        (3.80, 2300),   # one 2-hop thread (score 4)
        (6.80, 2400),   # seven 1-hop threads / two 2-hop / one 3-hop
    )

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-monotone demand bands."""
        for label, bands in (("llc", self.llc_bands), ("noc", self.noc_bands)):
            thresholds = [t for t, _ in bands]
            targets = [f for _, f in bands]
            if thresholds != sorted(thresholds) or targets != sorted(targets):
                raise ConfigError(f"{label} demand bands must be ascending")
        if self.traffic_loop_rate_per_us <= 0:
            raise ConfigError("traffic loop rate must be positive")


@dataclass(frozen=True)
class LatencyModelConfig:
    """LLC access latency as seen by ``rdtscp`` timing (Figure 8 fit).

    The measured latency in TSC cycles decomposes into a core-side part
    that is independent of the uncore clock and an uncore-side part that
    scales inversely with it::

        latency(h, f) = core_cycles + (slice_cycles + hop_cycles * h) / f_ghz

    Fitting Figure 9's 1-hop anchor points (79 cy @ 1.5 GHz, 71 cy @
    1.8 GHz, 63 cy @ 2.2 GHz) gives ``core_cycles = 28.7`` and a 1-hop
    uncore coefficient of 75.4, split as 65.4 + 10.0/hop so the four
    Figure 8 panels span the reported 50-100 cycle range.
    """

    core_cycles: float = 28.7
    slice_cycles: float = 65.4
    hop_cycles: float = 10.0
    l1_hit_cycles: float = 4.0
    l2_hit_cycles: float = 14.0
    dram_extra_cycles: float = 130.0   # added on an LLC miss
    # Measurement noise: a right-skewed jitter in cycles (Figure 8 shows a
    # tight IQR of a few cycles with a 1%-99% tail reaching ~ +15).
    noise_sigma_cycles: float = 1.6
    noise_tail_cycles: float = 9.0
    noise_tail_prob: float = 0.02
    # Slowly-varying systemic bias of a whole measurement window
    # (scheduler interrupts, prefetcher drift, TLB pressure): the mean
    # of thousands of samples does not converge to the true mean, which
    # is what ultimately limits the channel's usable rate (Figure 10's
    # error knee).
    window_jitter_cycles: float = 0.80
    # Extra cycles per contending flow on a shared mesh/ring link
    # (the signal the interconnect-contention baselines key on).
    contention_cycles_per_flow: float = 12.0
    fence_overhead_cycles: float = 55.0  # mfence+lfence+2x rdtscp harness

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-physical latency constants."""
        if min(self.core_cycles, self.slice_cycles, self.hop_cycles) < 0:
            raise ConfigError("latency coefficients must be non-negative")
        if not 0.0 <= self.noise_tail_prob < 1.0:
            raise ConfigError("noise tail probability must be in [0, 1)")
        if min(self.noise_sigma_cycles, self.noise_tail_cycles,
               self.window_jitter_cycles) < 0:
            raise ConfigError("noise scales must be non-negative")


@dataclass(frozen=True)
class CStateConfig:
    """Core and package idle-state exit latencies (Section 2.2.2).

    Indexed by state depth; entry 0 (C0/PC0) is fully active with zero
    exit latency.  Values follow typical Skylake-SP firmware tables.
    """

    core_exit_latency_ns: tuple[int, ...] = (0, 2_000, 20_000, 100_000)
    package_exit_latency_ns: tuple[int, ...] = (0, 3_000, 40_000, 200_000)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-monotone exit latencies."""
        for label, table in (
            ("core", self.core_exit_latency_ns),
            ("package", self.package_exit_latency_ns),
        ):
            if list(table) != sorted(table) or table[0] != 0:
                raise ConfigError(
                    f"{label} C-state exit latencies must ascend from 0"
                )

    @property
    def deepest_core_state(self) -> int:
        return len(self.core_exit_latency_ns) - 1

    @property
    def deepest_package_state(self) -> int:
        return len(self.package_exit_latency_ns) - 1


@dataclass(frozen=True)
class EnergyModelConfig:
    """First-order uncore energy model for the Section 6.1 study.

    Dynamic uncore power scales as ``C * V^2 * f`` with voltage roughly
    linear in frequency; static power is constant while the package is in
    PC0.  Constants are normalised so the "fix the uncore at freq_max"
    countermeasure costs ~7 % extra energy on a scale-out analytics
    workload, matching the paper's CloudSuite figure.
    """

    static_watts: float = 14.0
    dynamic_coeff: float = 2.60   # watts at 1.0 GHz and nominal voltage
    voltage_base: float = 0.70    # volts at 0 GHz extrapolation
    voltage_slope: float = 0.125  # volts per GHz

    def power_watts(self, freq_mhz: int) -> float:
        """Uncore power draw at a given frequency."""
        f_ghz = freq_mhz / 1_000.0
        volts = self.voltage_base + self.voltage_slope * f_ghz
        nominal = self.voltage_base + self.voltage_slope * 1.0
        return self.static_watts + self.dynamic_coeff * f_ghz * (
            volts / nominal
        ) ** 2

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-physical energy constants."""
        if min(self.static_watts, self.dynamic_coeff) < 0:
            raise ConfigError("power coefficients must be non-negative")


@dataclass(frozen=True)
class RunnerConfig:
    """How experiments *execute* — distinct from what they model.

    ``workers`` is the process fan-out handed to
    :func:`repro.engine.parallel.run_trials`; results are bit-identical
    for every value, so this knob trades wall time only.  ``0`` means
    "all available CPUs".
    """

    workers: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a nonsensical worker count."""
        if self.workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0 = all CPUs), got {self.workers}"
            )

    @classmethod
    def from_env(cls) -> "RunnerConfig":
        """Build from ``REPRO_WORKERS`` (default 1; 0 = all CPUs)."""
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if not raw:
            return cls()
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError(
                f"REPRO_WORKERS must be an integer, got {raw!r}"
            ) from exc
        config = cls(workers=workers)
        config.validate()
        return config


@dataclass(frozen=True)
class SocketConfig:
    """One processor package: cores, caches and mesh layout."""

    socket_id: int
    core_tiles: tuple[tuple[int, int], ...]
    imc_tiles: tuple[tuple[int, int], ...] = IMC_TILES
    mesh_rows: int = MESH_ROWS
    mesh_cols: int = MESH_COLS
    base_freq_mhz: int = 2600
    l1_config: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 8)
    )
    l2_config: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "L2", 1024 * 1024, 16, inclusive=True
        )
    )
    llc_slice_config: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC-slice", 1408 * 1024, 11)
    )

    @property
    def num_cores(self) -> int:
        return len(self.core_tiles)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an impossible die layout."""
        for cache in (self.l1_config, self.l2_config, self.llc_slice_config):
            cache.validate()
        seen: set[tuple[int, int]] = set()
        for row, col in self.core_tiles + self.imc_tiles:
            if not (0 <= row < self.mesh_rows and 0 <= col < self.mesh_cols):
                raise ConfigError(
                    f"socket {self.socket_id}: tile ({row}, {col}) is "
                    "outside the mesh"
                )
            if (row, col) in seen:
                raise ConfigError(
                    f"socket {self.socket_id}: tile ({row}, {col}) "
                    "assigned twice"
                )
            seen.add((row, col))
        if self.base_freq_mhz <= 0:
            raise ConfigError("core base frequency must be positive")


@dataclass(frozen=True)
class PlatformConfig:
    """Complete description of the simulated system (Table 1 defaults)."""

    sockets: tuple[SocketConfig, ...]
    ufs: UfsConfig = field(default_factory=UfsConfig)
    demand: DemandModelConfig = field(default_factory=DemandModelConfig)
    latency: LatencyModelConfig = field(default_factory=LatencyModelConfig)
    cstates: CStateConfig = field(default_factory=CStateConfig)
    energy: EnergyModelConfig = field(default_factory=EnergyModelConfig)
    # Cross-socket UFS coupling (Section 3.4): a follower socket trails
    # the fastest other socket by one step.
    cross_socket_coupling: bool = True
    coupling_lag_mhz: int = 100
    physical_memory_bytes: int = 64 * 1024**3
    page_bytes: int = 4096
    # Feature toggles exercised by the Table 3 prerequisite columns.
    shared_memory_available: bool = True
    clflush_available: bool = True
    tsx_available: bool = True

    def validate(self) -> None:
        """Validate every sub-config; raise :class:`ConfigError` if bad."""
        if not self.sockets:
            raise ConfigError("a platform needs at least one socket")
        ids = [s.socket_id for s in self.sockets]
        if ids != list(range(len(self.sockets))):
            raise ConfigError("socket ids must be 0..n-1 in order")
        for socket in self.sockets:
            socket.validate()
        self.ufs.validate()
        self.demand.validate()
        self.latency.validate()
        self.cstates.validate()
        self.energy.validate()
        if self.physical_memory_bytes % self.page_bytes != 0:
            raise ConfigError("physical memory must be whole pages")

    @property
    def num_sockets(self) -> int:
        return len(self.sockets)

    @property
    def total_cores(self) -> int:
        return sum(s.num_cores for s in self.sockets)

    def with_ufs(self, **changes) -> "PlatformConfig":
        """Return a copy with modified UFS parameters (e.g. a fixed or
        restricted frequency range, Section 6.1)."""
        return replace(self, ufs=replace(self.ufs, **changes))


def default_platform_config() -> PlatformConfig:
    """The paper's dual-socket Xeon Gold 6142 system (Table 1)."""
    return PlatformConfig(
        sockets=(
            SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES),
            SocketConfig(socket_id=1, core_tiles=SOCKET1_ACTIVE_TILES),
        )
    )


def single_socket_config() -> PlatformConfig:
    """A one-socket variant for cross-core-only experiments."""
    return PlatformConfig(
        sockets=(SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES),)
    )


def platform_summary(config: PlatformConfig) -> dict[str, str]:
    """Human-readable Table 1 rows for the configured platform."""
    socket = config.sockets[0]
    llc_total_kb = (
        socket.llc_slice_config.size_bytes * socket.num_cores // 1024
    )
    return {
        "Processor": f"{config.num_sockets}x simulated Xeon Gold 6142",
        "Microarchitecture": "Skylake-SP (simulated)",
        "Num of cores": f"{config.num_sockets}x{socket.num_cores}",
        "Core base frequency": f"{socket.base_freq_mhz / 1000:.1f} GHz",
        "UFS": (
            f"{config.ufs.min_freq_mhz / 1000:.1f}-"
            f"{config.ufs.max_freq_mhz / 1000:.1f} GHz"
        ),
        "L1 cache": (
            f"{socket.l1_config.ways}-way associative, private, "
            f"{socket.l1_config.size_bytes // 1024}KB+"
            f"{socket.l1_config.size_bytes // 1024}KB"
        ),
        "L2 cache": (
            f"{socket.l2_config.ways}-way associative, private, inclusive, "
            f"{socket.l2_config.size_bytes // 1024}KB"
        ),
        "LLC": (
            f"{socket.llc_slice_config.ways}-way associative, shared, "
            f"non-inclusive, {llc_total_kb}KB"
        ),
        "Frequency governor": "powersave (simulated)",
    }
