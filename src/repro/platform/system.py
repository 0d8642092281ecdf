"""The full simulated system: engine + memory + sockets + security.

``System`` is the top-level object every experiment builds first.  It
owns the event engine, wires cross-socket UFS coupling (Figure 7),
applies the security configuration (the defense columns of Table 3) and
provides both the privileged observation path (MSR reads, Section 3)
and the unprivileged one (actors timing their own loads, Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PlatformConfig, default_platform_config
from ..cache.slice_hash import SliceHash
from ..engine import Engine
from ..errors import ConfigError
from ..mem.allocator import AddressSpace, PhysicalMemory
from ..power.energy import EnergyMeter
from ..rng import SeedSequenceNamer
from ..telemetry.collect import harvest_system
from ..telemetry.context import active_registry
from ..units import MS
from .actor import Actor
from .latency import LatencyModel
from .processor import Socket

#: Stagger between consecutive sockets' PMU evaluation phases.  Small
#: and positive so a follower socket observes the leader's fresh step
#: shortly after it happens, producing the one-period lag of Figure 7.
_PMU_STAGGER_NS = 500_000


@dataclass(frozen=True)
class SecurityConfig:
    """Defense toggles applied at system construction (Section 4.4).

    * ``randomize_llc`` — keyed pseudorandom LLC set mapping
      (Table 3 "Random. LLC").
    * ``fine_partition`` — LLC slices split between security domains and
      the interconnect time-multiplexed between them
      (Table 3 "Fine partition").
    * ``coarse_partition`` — domains confined to distinct sockets with a
      NUMA-strict allocation policy (Table 3 "Coarse partition").
    """

    randomize_llc: bool = False
    fine_partition: bool = False
    num_domains: int = 2
    coarse_partition: bool = False

    def validate(self) -> None:
        if self.num_domains < 1:
            raise ConfigError("need at least one security domain")


class System:
    """A running simulated platform."""

    def __init__(
        self,
        config: PlatformConfig | None = None,
        *,
        security: SecurityConfig | None = None,
        seed: int | None = None,
    ) -> None:
        self.config = config if config is not None else (
            default_platform_config()
        )
        self.config.validate()
        self.security = security if security is not None else (
            SecurityConfig()
        )
        self.security.validate()
        self.namer = SeedSequenceNamer(seed)
        self.engine = Engine()
        self.memory = PhysicalMemory(
            self.config.physical_memory_bytes,
            self.config.page_bytes,
            num_numa_nodes=self.config.num_sockets,
        )
        self.latency_model = LatencyModel(self.config.latency,
                                          self.namer.seed)
        self.energy_meter = EnergyMeter(self.config.energy)
        self.sockets: list[Socket] = []
        for socket_config in self.config.sockets:
            socket_id = socket_config.socket_id
            remote = None
            if self.config.cross_socket_coupling and (
                self.config.num_sockets > 1
            ):
                remote = self._remote_frequency_fn(socket_id)
            key = None
            if self.security.randomize_llc:
                key = self.namer.seed_for(f"llc-random-key-{socket_id}")
            socket = Socket(
                socket_config,
                self.engine,
                ufs_config=self.config.ufs,
                demand_config=self.config.demand,
                cstate_config=self.config.cstates,
                pmu_phase_ns=(
                    self.config.ufs.period_ns
                    + socket_id * _PMU_STAGGER_NS
                ),
                remote_frequency=remote,
                coupling_lag_mhz=self.config.coupling_lag_mhz,
                randomize_llc_key=key,
            )
            if self.security.fine_partition:
                socket.contention.time_multiplexed = True
            self.sockets.append(socket)
        self._workloads: dict[str, object] = {}
        self._telemetry_collected = False

    def _remote_frequency_fn(self, socket_id: int):
        """The fastest other socket's uncore frequency, read on every
        PMU tick.  Socket ids are list indices
        (:meth:`PlatformConfig.validate`); the sockets are built after
        this closure."""
        sockets = self.sockets
        if self.config.num_sockets == 2:
            other = 1 - socket_id
            return lambda: sockets[other].pmu.timeline.current_mhz
        others = [index for index in range(self.config.num_sockets)
                  if index != socket_id]
        return lambda: max(sockets[index].pmu.timeline.current_mhz
                           for index in others)

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self.engine.now

    def run_for(self, duration_ns: int) -> None:
        """Advance simulated time by ``duration_ns``."""
        self.engine.run_for(duration_ns)

    def run_ms(self, duration_ms: float) -> None:
        """Advance simulated time by ``duration_ms`` milliseconds."""
        self.engine.run_for(round(duration_ms * MS))

    # -- topology accessors ------------------------------------------------------

    def socket(self, socket_id: int) -> Socket:
        if not 0 <= socket_id < len(self.sockets):
            raise ConfigError(f"no such socket {socket_id}")
        return self.sockets[socket_id]

    @property
    def num_sockets(self) -> int:
        return len(self.sockets)

    def uncore_frequency_mhz(self, socket_id: int = 0) -> int:
        """Privileged shortcut to the socket's current uncore frequency."""
        return self.socket(socket_id).pmu.current_mhz

    # -- security-domain plumbing -------------------------------------------------

    def domain_slice_hash(self, socket_id: int, domain: int) -> SliceHash:
        """The slice hash a domain's accesses route through.

        Without partitioning every domain sees the full hash.  With the
        fine-grained partition, slices are split evenly across domains.
        """
        full = self.socket(socket_id).hierarchy.slice_hash
        if not self.security.fine_partition:
            return full
        num_domains = self.security.num_domains
        if not 0 <= domain < num_domains:
            raise ConfigError(f"no such security domain {domain}")
        allowed = tuple(
            slice_id
            for slice_id in range(full.num_slices)
            if slice_id % num_domains == domain
        )
        return full.restricted(allowed)

    # -- processes ---------------------------------------------------------------

    def create_address_space(self, name: str,
                             numa_node: int = 0) -> AddressSpace:
        """A new process address space (NUMA-strict under coarse
        partitioning)."""
        return AddressSpace(
            name,
            self.memory,
            numa_node=numa_node,
            numa_strict=self.security.coarse_partition,
        )

    def create_actor(self, name: str, socket_id: int, core_id: int,
                     domain: int = 0) -> Actor:
        """An unprivileged process pinned to a core (Section 4.1)."""
        return Actor(self, name, socket_id, core_id, domain=domain)

    def launch(self, workload, socket_id: int, core_id: int) -> None:
        """Pin a workload to a core and start it."""
        workload.attach(self, socket_id, core_id)
        workload.start()
        self._workloads[workload.name] = workload

    def terminate(self, workload) -> None:
        """Stop a workload and release its core."""
        workload.stop()
        workload.detach()
        self._workloads.pop(workload.name, None)

    # -- MSR access (privileged) ---------------------------------------------------

    def read_msr(self, socket_id: int, address: int, *,
                 privileged: bool = False) -> int:
        """rdmsr on a socket; raises PrivilegeError when unprivileged."""
        return self.socket(socket_id).msr.read(address,
                                               privileged=privileged)

    def write_msr(self, socket_id: int, address: int, value: int, *,
                  privileged: bool = False) -> None:
        """wrmsr on a socket; raises PrivilegeError when unprivileged."""
        self.socket(socket_id).msr.write(address, value,
                                         privileged=privileged)

    def measure_frequency_via_msr(self, socket_id: int,
                                  window_ns: int = 200_000) -> float:
        """Section 3's privileged frequency probe.

        Reads the fixed uclk counter, lets ``window_ns`` elapse, reads
        again; the tick delta over the wall-clock window is the mean
        uncore frequency in MHz.
        """
        from ..cpu.msr import MSR_UCLK_FIXED_CTR

        first = self.read_msr(socket_id, MSR_UCLK_FIXED_CTR,
                              privileged=True)
        self.run_for(window_ns)
        second = self.read_msr(socket_id, MSR_UCLK_FIXED_CTR,
                               privileged=True)
        return (second - first) * 1_000.0 / window_ns

    # -- shutdown -----------------------------------------------------------------

    def stop(self) -> None:
        """Stop all periodic machinery (end of experiment).

        If a telemetry registry is active, the platform's lifetime
        counters are harvested into it exactly once — harvesting is
        read-only, so results are unchanged with telemetry on or off.
        """
        for workload in list(self._workloads.values()):
            self.terminate(workload)
        for socket in self.sockets:
            socket.pmu.stop()
        registry = active_registry()
        if registry is not None and not self._telemetry_collected:
            self._telemetry_collected = True
            harvest_system(self, registry)
