"""The Table 3 evaluation scenarios.

Each scenario is a platform variation: a prerequisite withheld (shared
memory, clflush, TSX), a defense deployed (randomized LLC, fine
partitioning, coarse partitioning) or background noise
(``stress-ng --cache 4``).  The comparison harness runs every channel
in every scenario; a channel is functional when it still decodes with a
BER clearly below chance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import PlatformConfig, default_platform_config
from ..platform.system import SecurityConfig


@dataclass(frozen=True)
class Placement:
    """Where the two parties run in a scenario."""

    sender_socket: int = 0
    sender_core: int = 0
    receiver_socket: int = 0
    receiver_core: int = 8
    sender_domain: int = 0
    receiver_domain: int = 0


@dataclass(frozen=True)
class Scenario:
    """One column of Table 3."""

    key: str
    label: str
    shared_memory: bool = True
    clflush: bool = True
    tsx: bool = True
    security: SecurityConfig = field(default_factory=SecurityConfig)
    placement: Placement = field(default_factory=Placement)
    stress_threads: int = 0

    def platform(self) -> PlatformConfig:
        """The platform config this scenario runs on."""
        base = default_platform_config()
        return replace(
            base,
            shared_memory_available=self.shared_memory,
            clflush_available=self.clflush,
            tsx_available=self.tsx,
        )


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(key="baseline", label="Baseline"),
    Scenario(key="no_shared_mem", label="No shared mem.",
             shared_memory=False),
    Scenario(key="no_clflush", label="No clflush", clflush=False),
    Scenario(key="no_tsx", label="No TSX", tsx=False),
    Scenario(
        key="random_llc",
        label="Random. LLC",
        security=SecurityConfig(randomize_llc=True),
    ),
    Scenario(
        key="fine_partition",
        label="Fine partition",
        security=SecurityConfig(fine_partition=True, num_domains=2),
        placement=Placement(sender_domain=0, receiver_domain=1),
    ),
    Scenario(
        key="coarse_partition",
        label="Coarse partition",
        security=SecurityConfig(coarse_partition=True),
        placement=Placement(sender_socket=0, receiver_socket=1),
    ),
    Scenario(
        key="stress4",
        label="stress-ng --cache 4",
        stress_threads=4,
    ),
)

def scenario_by_key(key: str) -> Scenario:
    """Look up one scenario by its key."""
    for scenario in SCENARIOS:
        if scenario.key == key:
            return scenario
    raise KeyError(f"no scenario {key!r}")
