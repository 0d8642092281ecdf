"""One processor package (socket): cores, uncore and its controller.

A socket owns its cores, mesh, cache hierarchy, contention tracker,
package C-state manager, MSR file and UFS PMU.  The MSR file is wired
to the PMU both ways: reads of the uclk counter reflect the frequency
timeline, and writes to ``UNCORE_RATIO_LIMIT`` re-limit the PMU — the
exact control surface the paper's countermeasures use (Section 6.1).
"""

from __future__ import annotations

from collections.abc import Callable

from ..cache.hierarchy import CacheHierarchy
from ..cache.slice_hash import RandomizedIndexer, SliceHash
from ..config import CStateConfig, DemandModelConfig, SocketConfig, UfsConfig
from ..cpu.core import Core
from ..cpu.msr import (
    MSR_UCLK_FIXED_CTR,
    MSR_UNCORE_RATIO_LIMIT,
    MsrFile,
    decode_uncore_ratio_limit,
    encode_uncore_ratio_limit,
)
from ..engine import Engine
from ..noc.contention import ContentionTracker
from ..noc.topology import MeshTopology
from ..power.cstates import PackageCStateManager
from ..power.ufs import UfsPmu


class Socket:
    """A complete processor package on the simulated system."""

    def __init__(
        self,
        config: SocketConfig,
        engine: Engine,
        *,
        ufs_config: UfsConfig,
        demand_config: DemandModelConfig,
        cstate_config: CStateConfig,
        pmu_phase_ns: int = 0,
        remote_frequency: Callable[[], int] | None = None,
        coupling_lag_mhz: int = 100,
        randomize_llc_key: int | None = None,
    ) -> None:
        self.config = config
        self.engine = engine
        self.socket_id = config.socket_id
        self.mesh = MeshTopology(config)
        self.cores = [
            Core(core_id, config.socket_id, tile, config.base_freq_mhz)
            for core_id, tile in enumerate(config.core_tiles)
        ]

        indexer_factory = None
        if randomize_llc_key is not None:
            num_sets = config.llc_slice_config.num_sets
            key = randomize_llc_key

            def indexer_factory(slice_id: int,
                                _sets=num_sets, _key=key):
                return RandomizedIndexer(_sets, _key ^ (slice_id * 0x9E37))

        self.hierarchy = CacheHierarchy(
            config, llc_indexer_factory=indexer_factory
        )
        self.contention = ContentionTracker()
        self.pc_states = PackageCStateManager(self.cores, cstate_config)
        self.pmu = UfsPmu(
            socket_id=config.socket_id,
            engine=engine,
            cores=self.cores,
            ufs_config=ufs_config,
            demand_config=demand_config,
            phase_ns=pmu_phase_ns,
            remote_frequency=remote_frequency,
            coupling_lag_mhz=coupling_lag_mhz,
        )
        self.msr = MsrFile(config.socket_id)
        self.msr.register_provider(
            MSR_UCLK_FIXED_CTR,
            lambda: self.pmu.timeline.uclk_ticks(self.engine.now),
        )
        self.msr.add_write_listener(
            MSR_UNCORE_RATIO_LIMIT, self._on_ratio_limit_write
        )
        # Seed the readable value with the configured window.
        self.msr.write(
            MSR_UNCORE_RATIO_LIMIT,
            encode_uncore_ratio_limit(ufs_config.min_freq_mhz,
                                      ufs_config.max_freq_mhz),
            privileged=True,
        )

    def _on_ratio_limit_write(self, value: int) -> None:
        min_mhz, max_mhz = decode_uncore_ratio_limit(value)
        self.pmu.set_limits(min_mhz, max_mhz)

    # -- convenience --------------------------------------------------------

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def uncore_freq_mhz(self) -> int:
        """Current uncore frequency (privileged observer's view)."""
        return self.pmu.current_mhz

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def slice_hash(self) -> SliceHash:
        return self.hierarchy.slice_hash

    def hops(self, core_id: int, slice_id: int) -> int:
        """Mesh distance between a core and an LLC slice."""
        return self.mesh.hops(core_id, slice_id)
