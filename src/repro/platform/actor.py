"""The unprivileged-process facade.

An :class:`Actor` is what the paper's threat model calls "an
unprivileged process or virtual machine" (Section 4.1): it owns an
address space, is pinned to one core, can build eviction lists from its
own allocations, time its own loads with ``rdtscp`` and — if the
platform offers them — use ``clflush`` and transactional memory.  It
can *not* read MSRs.

Timed loads advance simulated time by the fenced loop-iteration cost
(Listing 3's harness), which is what keeps the receiver's measurement
rate realistic: the loop issues roughly 15-20 LLC accesses per
microsecond, light enough that the measurement itself leaves the uncore
at its idle frequency (Section 4.2, "measurement noise").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cache.eviction import EvictionListBuilder, EvictionSet
from ..cache.hierarchy import Level
from ..cpu.activity import ActivityProfile, IDLE
from ..errors import PrerequisiteError
from ..mem.allocator import AddressSpace, SharedSegment

if TYPE_CHECKING:
    from .system import System


@dataclass(frozen=True)
class TimedLoad:
    """One timed access: where it hit and what ``rdtscp`` measured."""

    virtual: int
    level: Level
    slice_id: int | None
    hops: int
    latency_cycles: float
    time_ns: int


#: Profile the core carries while the actor runs its measurement loop.
#: The fences keep the LLC access density low — no uncore demand — and
#: most of the wait is serialisation, not memory stall, so the loop
#: neither raises the frequency nor vetoes its decay (Section 4.2).
MEASUREMENT_PROFILE = ActivityProfile(
    active=True, llc_rate_per_us=18.0, mean_hops=1.0, stall_ratio=0.20
)


class Actor:
    """An unprivileged process pinned to one core of one socket."""

    def __init__(self, system: "System", name: str, socket_id: int,
                 core_id: int, domain: int = 0) -> None:
        self.system = system
        self.name = name
        self.socket_id = socket_id
        self.core_id = core_id
        self.domain = domain
        self.socket = system.socket(socket_id)
        self.core = self.socket.core(core_id)
        self.core.claim(name)
        self.space: AddressSpace = system.create_address_space(
            name, numa_node=socket_id
        )
        self.slice_hash = system.domain_slice_hash(socket_id, domain)
        self.builder = EvictionListBuilder(
            self.space, self.socket.hierarchy, slice_hash=self.slice_hash
        )
        self._active_profile: ActivityProfile | None = None
        self._flow_id: int | None = None
        #: slice id -> (hop count, route): pure functions of the mesh,
        #: asked for on every probe and measurement-window segment.
        self._paths: dict[int, tuple[int, tuple]] = {}

    # -- lifecycle -----------------------------------------------------------

    def retire(self) -> None:
        """Release the core (end of experiment)."""
        self._sync_flow(IDLE, None)
        self.core.release(self.system.engine.now)

    def bulk_load(self, virtuals, *, advance_time: bool = True) -> int:
        """Un-timed loads over many addresses; returns the miss count.

        Used by occupancy-style channels that walk thousands of lines
        per bit: the cache model is exercised access by access, but the
        per-access latency sampling (which the walker would not record
        anyway) is skipped, and time advances once by the aggregate loop
        cost.  A "miss" is an access served past the LLC (DRAM).
        """
        hierarchy = self.socket.hierarchy
        space = self.space
        misses = 0
        for virtual in virtuals:
            outcome = hierarchy.load(
                self.core_id, space.translate(virtual),
                slice_hash=self.slice_hash,
            )
            if outcome.level is Level.DRAM:
                misses += 1
        if advance_time and virtuals:
            mean_lat = self.system.latency_model.mean_llc_cycles(
                1, self.socket.uncore_freq_mhz
            )
            per_access = mean_lat * 1_000.0 / self.core.freq_mhz
            self.system.engine.run_for(
                max(int(per_access * len(virtuals) * 0.4), 1)
            )
        return misses

    # -- activity ------------------------------------------------------------

    def set_profile(self, profile: ActivityProfile,
                    target_slice: int | None = None) -> None:
        """Expose a macroscopic activity profile on this actor's core.

        With ``target_slice`` set, the actor's LLC traffic is also
        registered as a mesh flow on the contention tracker, making it
        visible to interconnect-contention observers.
        """
        self._active_profile = profile
        self.core.set_profile(self.system.engine.now, profile)
        self._sync_flow(profile, target_slice)

    def go_idle(self) -> None:
        """Return the core to idle (the actor sleeps)."""
        self._active_profile = None
        self.core.set_profile(self.system.engine.now, IDLE)
        self._sync_flow(IDLE, None)

    def _sync_flow(self, profile: ActivityProfile,
                   target_slice: int | None) -> None:
        if self._flow_id is not None:
            self.socket.contention.remove_flow(self._flow_id)
            self._flow_id = None
        if profile.llc_rate_per_us <= 0 or target_slice is None:
            return
        _, route = self._path(target_slice)
        if route:
            self._flow_id = self.socket.contention.add_flow(
                route, profile.llc_rate_per_us, domain=self.domain
            )

    # -- memory ----------------------------------------------------------------

    def allocate(self, size_bytes: int):
        """Allocate private memory in this actor's address space."""
        return self.space.allocate(size_bytes)

    def share_segment(self, size_bytes: int) -> SharedSegment:
        """Create a segment other actors may map (needs shared memory)."""
        if not self.system.config.shared_memory_available:
            raise PrerequisiteError(
                "shared memory is disabled on this platform"
            )
        segment = self.space.create_shared(size_bytes)
        segment.owner_domain = self.domain
        return segment

    def map_segment(self, segment: SharedSegment):
        """Map another actor's shared segment (needs shared memory).

        Partitioned platforms forbid cross-domain sharing — page
        deduplication and shared mappings across security domains would
        defeat the partition (Section 4.4).
        """
        if not self.system.config.shared_memory_available:
            raise PrerequisiteError(
                "shared memory is disabled on this platform"
            )
        if (
            self.system.security.fine_partition
            and segment.owner_domain != self.domain
        ):
            raise PrerequisiteError(
                "cross-domain shared memory is forbidden under "
                "fine-grained partitioning"
            )
        return self.space.map_shared(segment, owner_node=self.socket_id)

    # -- eviction lists -----------------------------------------------------------

    def local_slice(self) -> int:
        """The LLC slice co-located with this actor's core tile.

        Under partitioning the local slice may belong to another domain;
        fall back to the nearest allowed slice.
        """
        allowed = self.slice_hash.allowed_slices
        if self.core_id in allowed:
            return self.core_id
        return min(allowed,
                   key=lambda s: self.socket.hops(self.core_id, s))

    def slice_at_distance(self, hops: int) -> int:
        """An allowed LLC slice exactly ``hops`` away (first by id)."""
        allowed = set(self.slice_hash.allowed_slices)
        for slice_id in self.socket.mesh.slices_at_distance(self.core_id,
                                                            hops):
            if slice_id in allowed:
                return slice_id
        raise PrerequisiteError(
            f"{self.name}: no allowed slice at distance {hops} from core "
            f"{self.core_id}"
        )

    def build_measurement_list(self, hops: int = 1,
                               count: int = 20) -> EvictionSet:
        """Listing 3's eviction list, targeting a slice ``hops`` away."""
        return self.builder.build_measurement_list(
            self.slice_at_distance(hops), count=count
        )

    # -- timed accesses ----------------------------------------------------------

    def _path(self, slice_id: int) -> tuple[int, tuple]:
        """The hop count and route from this actor's core to a slice."""
        path = self._paths.get(slice_id)
        if path is None:
            mesh = self.socket.mesh
            path = (mesh.hops(self.core_id, slice_id),
                    tuple(mesh.core_slice_route(self.core_id, slice_id)))
            self._paths[slice_id] = path
        return path

    def _contention_flows(self, route: tuple) -> float:
        competing = self.socket.contention.route_contention(
            route, observer_domain=self.domain
        )
        unit = self.system.config.demand.traffic_loop_rate_per_us
        return competing / unit

    def timed_load(self, virtual: int, *, advance_time: bool = True,
                   fenced: bool = True) -> TimedLoad:
        """One ``rdtscp``-timed load, advancing simulated time."""
        physical = self.space.translate(virtual)
        outcome = self.socket.hierarchy.load(
            self.core_id, physical, slice_hash=self.slice_hash
        )
        slice_id = (
            outcome.slice_id
            if outcome.slice_id is not None
            else self.slice_hash.slice_of(physical >> 6)
        )
        hops, route = self._path(slice_id)
        flows = (
            self._contention_flows(route) if outcome.reached_uncore
            else 0.0
        )
        latency = self.system.latency_model.sample_cycles(
            outcome.level, hops, self.socket.uncore_freq_mhz, flows
        )
        engine = self.system.engine
        record = TimedLoad(
            virtual=virtual,
            level=outcome.level,
            slice_id=outcome.slice_id,
            hops=hops,
            latency_cycles=latency,
            time_ns=engine.now,
        )
        if advance_time:
            duration = self.system.latency_model.loop_iteration_ns(
                latency if fenced else latency * 0.3,
                self.core.freq_mhz,
            )
            engine.run_for(max(int(duration), 1))
        return record

    def load_series(self, virtuals: list[int], *,
                    advance_time: bool = True) -> list[TimedLoad]:
        """Timed loads over a list of addresses, in order."""
        return [
            self.timed_load(v, advance_time=advance_time) for v in virtuals
        ]

    def warm_list(self, ev_set: EvictionSet, rounds: int = 3) -> None:
        """Bring an eviction list into its cycling steady state."""
        for _ in range(rounds):
            for virtual in ev_set.virtual_addresses:
                self.timed_load(virtual, advance_time=False)

    def measure_avg_llc_latency(self, ev_set: EvictionSet,
                                duration_ns: int) -> float:
        """The paper's ``measure_avg_LLC_latency`` (Algorithm 1).

        Cycles through the measurement list for ``duration_ns``,
        returning the mean latency of the accesses that were served by
        the LLC.  The core carries the measurement profile while the
        loop runs.
        """
        engine = self.system.engine
        deadline = engine.now + duration_ns
        previous = self._active_profile
        self.set_profile(MEASUREMENT_PROFILE)
        latencies: list[float] = []
        index = 0
        addresses = ev_set.virtual_addresses
        while engine.now < deadline:
            record = self.timed_load(addresses[index % len(addresses)])
            if record.level is Level.LLC:
                latencies.append(record.latency_cycles)
            index += 1
        if previous is not None:
            self.set_profile(previous)
        else:
            self.go_idle()
        if not latencies:
            return float("nan")
        return float(np.mean(latencies))

    def measure_window(self, ev_set: EvictionSet,
                       duration_ns: int) -> float:
        """Fast-path equivalent of :meth:`measure_avg_llc_latency`.

        The measurement list cycles in steady state (every access an LLC
        hit), so per-access simulation is redundant: between PMU
        evaluations the uncore frequency — and hence the latency
        distribution — is constant.  The window is split at PMU tick
        boundaries; each segment contributes the sufficient statistic of
        its sample batch (:meth:`LatencyModel.segment_llc_sum`), sized
        by the fenced iteration time.  Statistically identical to the
        per-access loop at a tiny fraction of the cost — and the batch
        backend replays the exact same per-segment draws, which is what
        makes the two backends bit-identical.
        """
        engine = self.system.engine
        model = self.system.latency_model
        deadline = engine.now + duration_ns
        previous = self._active_profile
        self.set_profile(MEASUREMENT_PROFILE)
        hops, route = self._path(ev_set.slice_id)
        total = 0.0
        count = 0
        while engine.now < deadline:
            next_tick = self.socket.pmu.next_evaluation_ns()
            if next_tick is None:
                next_tick = deadline
            seg_end = min(deadline, max(next_tick, engine.now + 1))
            mhz = self.socket.uncore_freq_mhz
            flows = self._contention_flows(route)
            mean_lat = model.mean_llc_cycles(hops, mhz)
            iter_ns = model.loop_iteration_ns(mean_lat, self.core.freq_mhz)
            n = max(int((seg_end - engine.now) / iter_ns), 1)
            total += model.segment_llc_sum(n, hops, mhz, flows)
            count += n
            engine.run_for(seg_end - engine.now)
        if previous is not None:
            self.set_profile(previous)
        else:
            self.go_idle()
        if count == 0:
            return float("nan")
        return total / count + model.window_bias()

    def probe_frequency_mhz(self, ev_set: EvictionSet,
                            samples: int = 16) -> float:
        """One quick unprivileged frequency estimate (Section 4.2).

        Times a short burst over the measurement list and inverts the
        latency curve.  Advances time only by the burst itself (~1 us),
        so a tracer can sample every few milliseconds without loading
        the uncore.
        """
        model = self.system.latency_model
        hops, route = self._path(ev_set.slice_id)
        mhz = self.socket.uncore_freq_mhz
        flows = self._contention_flows(route)
        burst = model.sample_many(samples, Level.LLC, hops, mhz, flows)
        # ``burst.mean()``'s reduce and divide, without its dispatch.
        mean_lat = float(burst.sum() / samples)
        iter_ns = model.loop_iteration_ns(mean_lat, self.core.freq_mhz)
        self.system.engine.run_for(max(int(iter_ns * samples), 1))
        return model.frequency_from_latency(mean_lat, hops)

    # -- privileged-instruction surfaces ----------------------------------------

    #: clflush cost in core cycles: a cached line pays the invalidate /
    #: write-back round trip, an uncached one returns quickly.  The gap
    #: is the Flush+Flush signal (Gruss et al.).
    CLFLUSH_CACHED_CYCLES = 135.0
    CLFLUSH_UNCACHED_CYCLES = 98.0

    def clflush(self, virtual: int) -> None:
        """Flush a line (requires the platform to expose clflush)."""
        self.timed_clflush(virtual)

    def timed_clflush(self, virtual: int) -> float:
        """Flush a line and return the measured flush latency in cycles."""
        if not self.system.config.clflush_available:
            raise PrerequisiteError("clflush is unavailable (disabled)")
        physical = self.space.translate(virtual)
        was_cached = self.socket.hierarchy.clflush(
            physical, slice_hash=self.slice_hash
        )
        base = (
            self.CLFLUSH_CACHED_CYCLES
            if was_cached
            else self.CLFLUSH_UNCACHED_CYCLES
        )
        noise = self.system.latency_model
        latency = base + float(
            noise.rng.normal(0.0, noise.config.noise_sigma_cycles * 2)
        )
        duration = self.system.latency_model.loop_iteration_ns(
            latency, self.core.freq_mhz
        )
        self.system.engine.run_for(max(int(duration), 1))
        return latency

    def begin_transaction(self, virtuals: list[int]) -> None:
        """Open a TSX transaction reading ``virtuals`` (Prime+Abort)."""
        if not self.system.config.tsx_available:
            raise PrerequisiteError("TSX is unavailable (disabled)")
        lines = frozenset(
            self.space.translate(v) >> 6 for v in virtuals
        )
        self.socket.hierarchy.begin_transaction(self.core_id, lines)

    def end_transaction(self) -> bool:
        """Close the transaction; True if it aborted."""
        if not self.system.config.tsx_available:
            raise PrerequisiteError("TSX is unavailable (disabled)")
        return self.socket.hierarchy.end_transaction(self.core_id)

    def __repr__(self) -> str:
        return (
            f"Actor({self.name!r}, socket={self.socket_id}, "
            f"core={self.core_id}, domain={self.domain})"
        )
