"""Seed-driven scenario generation for the validation harness.

A :class:`FuzzScenario` is a complete, JSON-serialisable description of
one randomised simulator run: platform shape (sockets, UFS window and
step, evaluation period, coupling), a workload mix, an optional covert
channel deployment, an optional defense stack and a run length.  All
randomness flows from one :func:`repro.rng.child_rng` stream named by
``(seed, index)``, so scenario ``(seed=3, index=41)`` is the same
dataclass on every machine, every run, forever — a failing scenario is
its two integers.

Generation is *sound by construction*: every scenario drawn from
:func:`generate_scenario` satisfies the cross-field constraints the
simulator enforces (channel intervals long enough for two measurement
windows, MSR-based defenses only on 100 MHz grids, cross-processor
channels only on dual-socket platforms, distinct cores).  The same
constraints are re-checked by :func:`is_valid`, which the shrinker uses
to prune mutation candidates that would crash for uninteresting
reasons.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from ..config import PlatformConfig, default_platform_config, single_socket_config
from ..rng import child_rng

__all__ = [
    "BASELINE",
    "ChannelParams",
    "DefenseSpec",
    "FuzzScenario",
    "WorkloadSpec",
    "build_platform",
    "generate_scenario",
    "generate_scenarios",
    "is_valid",
    "non_default_params",
    "scenario_from_dict",
    "scenario_to_dict",
]

#: Cores a fuzzed workload may occupy.  Disjoint from the channel's
#: sender cores (0..5), its receiver core (8) and the busy-uncore
#: defense thread (15), so any combination of features coexists without
#: a :class:`~repro.errors.PlacementError`.
WORKLOAD_CORES: tuple[int, ...] = (9, 10, 11, 12, 13, 14)

#: The core the busy-uncore defense pins its traffic thread to.
BUSY_DEFENSE_CORE = 15

_WORKLOAD_KINDS: tuple[str, ...] = ("traffic", "stalling", "l2chase", "nop")
_DEFENSE_KINDS: tuple[str, ...] = ("fixed", "restrict", "randomize", "busy")


@dataclass(frozen=True)
class WorkloadSpec:
    """One background workload pinned to a core."""

    kind: str
    socket: int = 0
    core: int = 9
    hops: int = 1


@dataclass(frozen=True)
class ChannelParams:
    """One UF-variation channel deployment plus its payload size."""

    interval_ms: float = 21.0
    bits: int = 6
    cross_processor: bool = False
    sender_mode: str = "stall"


@dataclass(frozen=True)
class DefenseSpec:
    """One Section 6.1 countermeasure with its parameters.

    Which parameter matters depends on ``kind``: ``fixed`` reads
    ``freq_mhz``; ``restrict`` reads ``min_mhz``/``max_mhz``;
    ``randomize`` reads ``period_ms``; ``busy`` takes none.
    """

    kind: str
    freq_mhz: int = 0
    min_mhz: int = 0
    max_mhz: int = 0
    period_ms: float = 100.0


@dataclass(frozen=True)
class FuzzScenario:
    """One complete randomised simulator run, ready to execute."""

    index: int = 0
    seed: int = 0
    sockets: int = 1
    ufs_min_mhz: int = 1200
    ufs_max_mhz: int = 2400
    ufs_step_mhz: int = 100
    period_ms: float = 10.0
    coupling: bool = True
    run_ms: float = 100.0
    workloads: tuple[WorkloadSpec, ...] = ()
    channel: ChannelParams | None = None
    defenses: tuple[DefenseSpec, ...] = ()
    check_telemetry: bool = False

    @property
    def period_ns(self) -> int:
        return round(self.period_ms * 1_000_000)

    @property
    def run_seed(self) -> int:
        """The seed handed to the simulated system itself."""
        from ..rng import derive_seed

        return derive_seed(self.seed, f"scenario-run-{self.index}")


#: The simplest scenario: one socket, paper-default UFS law, nothing
#: running.  The shrinker walks failing scenarios toward this point.
BASELINE = FuzzScenario()

#: Scenario fields the shrinker never touches (identity, not behaviour).
_IDENTITY_FIELDS = frozenset({"index", "seed"})


def generate_scenario(seed: int, index: int) -> FuzzScenario:
    """Draw scenario ``index`` of the stream rooted at ``seed``.

    Deterministic in ``(seed, index)`` only: the stream is name-keyed,
    so generating scenario 41 alone yields the same scenario as
    generating 0..40 first.
    """
    rng = child_rng(seed, f"scenario-{index}")

    sockets = 2 if rng.random() < 0.35 else 1
    step = 100 if rng.random() < 0.7 else 50
    min_mhz = 100 * int(rng.integers(10, 17))        # 1000..1600
    span = 100 * int(rng.integers(3, 11))            # 300..1000
    max_mhz = min(min_mhz + span, 2600)
    period_ms = float(rng.choice([5.0, 10.0, 20.0], p=[0.2, 0.6, 0.2]))
    coupling = bool(rng.random() < 0.7)
    run_ms = float(rng.choice([80.0, 120.0, 200.0]))

    num_workloads = int(rng.integers(0, 4))
    cores = rng.permutation(len(WORKLOAD_CORES))[:num_workloads]
    workloads = tuple(
        WorkloadSpec(
            kind=str(rng.choice(_WORKLOAD_KINDS)),
            socket=int(rng.integers(0, sockets)),
            core=WORKLOAD_CORES[int(core_slot)],
            hops=int(rng.integers(1, 4)),
        )
        for core_slot in cores
    )

    channel = None
    if rng.random() < 0.30:
        channel = ChannelParams(
            interval_ms=float(rng.choice([12.0, 15.0, 21.0])),
            bits=int(rng.integers(4, 9)),
            cross_processor=bool(sockets == 2 and rng.random() < 0.5),
            sender_mode=str(rng.choice(["stall", "traffic"])),
        )

    defenses: tuple[DefenseSpec, ...] = ()
    if rng.random() < 0.30:
        kinds = list(_DEFENSE_KINDS)
        if step != 100:
            # RandomizedFrequencyDefense fixes the uncore at operating
            # points of the *configured* grid; with a 50 MHz step half
            # of those would be rejected by the 100 MHz MSR encoding.
            kinds.remove("randomize")
        kind = str(rng.choice(kinds))
        grid_points = (max_mhz - min_mhz) // 100
        if kind == "fixed":
            freq = min_mhz + 100 * int(rng.integers(0, grid_points + 1))
            defenses = (DefenseSpec(kind="fixed", freq_mhz=freq),)
        elif kind == "restrict":
            lo = int(rng.integers(0, grid_points + 1))
            hi = int(rng.integers(lo, grid_points + 1))
            defenses = (DefenseSpec(
                kind="restrict",
                min_mhz=min_mhz + 100 * lo,
                max_mhz=min_mhz + 100 * hi,
            ),)
        elif kind == "randomize":
            defenses = (DefenseSpec(
                kind="randomize",
                period_ms=float(rng.choice([50.0, 100.0])),
            ),)
        else:
            defenses = (DefenseSpec(kind="busy"),)

    check_telemetry = bool(rng.random() < 0.25)

    return FuzzScenario(
        index=index,
        seed=seed,
        sockets=sockets,
        ufs_min_mhz=min_mhz,
        ufs_max_mhz=max_mhz,
        ufs_step_mhz=step,
        period_ms=period_ms,
        coupling=coupling,
        run_ms=run_ms,
        workloads=workloads,
        channel=channel,
        defenses=defenses,
        check_telemetry=check_telemetry,
    )


def generate_scenarios(seed: int, count: int) -> list[FuzzScenario]:
    """The first ``count`` scenarios of the stream rooted at ``seed``."""
    return [generate_scenario(seed, index) for index in range(count)]


def is_valid(scenario: FuzzScenario) -> bool:
    """Whether a scenario satisfies the simulator's cross-field rules.

    Generated scenarios always do; the shrinker's mutations may not
    (e.g. dropping to one socket under a cross-processor channel), and
    invalid candidates are skipped rather than run.
    """
    s = scenario
    if s.sockets not in (1, 2):
        return False
    if s.ufs_step_mhz not in (50, 100):
        return False
    if s.ufs_min_mhz % 100 or s.ufs_max_mhz % 100:
        return False
    if not s.ufs_min_mhz < s.ufs_max_mhz:
        return False
    if s.period_ms <= 0 or s.run_ms <= 0:
        return False
    seen: set[tuple[int, int]] = set()
    for w in s.workloads:
        if w.kind not in _WORKLOAD_KINDS or not 1 <= w.hops <= 3:
            return False
        if w.socket >= s.sockets or w.core not in WORKLOAD_CORES:
            return False
        if (w.socket, w.core) in seen:
            return False
        seen.add((w.socket, w.core))
    if s.channel is not None:
        c = s.channel
        if c.cross_processor and s.sockets < 2:
            return False
        if c.interval_ms < 10.0 or c.bits < 1:
            return False
        if c.sender_mode not in ("stall", "traffic"):
            return False
    for d in s.defenses:
        if d.kind not in _DEFENSE_KINDS:
            return False
        if d.kind == "fixed" and not (
            d.freq_mhz % 100 == 0
            and s.ufs_min_mhz <= d.freq_mhz <= s.ufs_max_mhz
        ):
            return False
        if d.kind == "restrict" and not (
            d.min_mhz % 100 == 0 and d.max_mhz % 100 == 0
            and s.ufs_min_mhz <= d.min_mhz <= d.max_mhz <= s.ufs_max_mhz
        ):
            return False
        if d.kind == "randomize" and (
            s.ufs_step_mhz != 100 or d.period_ms <= 0
        ):
            return False
    return True


def build_platform(scenario: FuzzScenario) -> PlatformConfig:
    """The :class:`~repro.config.PlatformConfig` a scenario describes."""
    base = (
        default_platform_config()
        if scenario.sockets == 2
        else single_socket_config()
    )
    config = base.with_ufs(
        min_freq_mhz=scenario.ufs_min_mhz,
        max_freq_mhz=scenario.ufs_max_mhz,
        step_mhz=scenario.ufs_step_mhz,
        period_ns=scenario.period_ns,
    )
    return replace(config, cross_socket_coupling=scenario.coupling)


def non_default_params(scenario: FuzzScenario) -> dict:
    """Fields where a scenario departs from :data:`BASELINE`.

    The shrinker's progress metric and the headline number of a repro
    file: a minimal repro names only the parameters that matter.
    """
    baseline = asdict(BASELINE)
    diff: dict = {}
    for name, value in asdict(scenario).items():
        if name not in _IDENTITY_FIELDS and value != baseline[name]:
            diff[name] = value
    return diff


# -- JSON round-trip ------------------------------------------------------


def scenario_to_dict(scenario: FuzzScenario) -> dict:
    """A plain-JSON form (tuples become lists, dataclasses dicts)."""
    return asdict(scenario)


def scenario_from_dict(payload: dict) -> FuzzScenario:
    """Rebuild a scenario from :func:`scenario_to_dict` output."""
    data = dict(payload)
    data["workloads"] = tuple(
        WorkloadSpec(**w) for w in data.get("workloads", ())
    )
    channel = data.get("channel")
    data["channel"] = None if channel is None else ChannelParams(**channel)
    data["defenses"] = tuple(
        DefenseSpec(**d) for d in data.get("defenses", ())
    )
    return FuzzScenario(**data)

