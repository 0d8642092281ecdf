"""The per-core model: activity timeline, P-state and C-state.

A core does not execute instructions in the macroscopic simulation — it
*carries a profile* set by whichever workload is pinned to it.  C-state
selection follows the usual OS heuristic: an idle core sinks into a
deeper state the longer it stays idle, and the package C-state (managed
by the socket) can never be deeper than the shallowest core C-state
(Section 2.2.2).
"""

from __future__ import annotations

from ..errors import PlacementError
from .activity import IDLE, ActivityProfile, ProfileTimeline


class Core:
    """One CPU core: identity, placement and activity history."""

    def __init__(self, core_id: int, socket_id: int,
                 tile: tuple[int, int], base_freq_mhz: int) -> None:
        self.core_id = core_id
        self.socket_id = socket_id
        self.tile = tile
        self.base_freq_mhz = base_freq_mhz
        # Powersave governor: cores run at (or below) base frequency,
        # which is the regime where UFS is enabled at all (Section 2.2.1).
        # set_p_state() can raise this above base (turbo), which pins
        # the uncore at its maximum.
        self.freq_mhz = base_freq_mhz
        self.timeline = ProfileTimeline()
        self._owner: str | None = None
        self._idle_since: int = 0

    # -- thread placement ---------------------------------------------------

    @property
    def owner(self) -> str | None:
        """Name of the workload currently pinned here, if any."""
        return self._owner

    def claim(self, owner: str) -> None:
        """Pin a workload to this core; cores are exclusively owned."""
        if self._owner is not None:
            raise PlacementError(
                f"core {self.core_id} (socket {self.socket_id}) already "
                f"runs {self._owner!r}; cannot also run {owner!r}"
            )
        self._owner = owner

    def release(self, time_ns: int) -> None:
        """Unpin the current workload and return the core to idle."""
        self._owner = None
        self.set_profile(time_ns, IDLE)

    # -- activity -------------------------------------------------------------

    def set_profile(self, time_ns: int, profile: ActivityProfile) -> None:
        """Record a behaviour change of the pinned workload.

        The idle clock restarts only when an active core goes idle; a
        redundant idle write leaves an idle core's C-state descent alone.
        """
        was_active = self.timeline.profile_at(time_ns).active
        self.timeline.set_profile(time_ns, profile)
        if was_active and not profile.active:
            self._idle_since = time_ns

    def set_p_state(self, freq_mhz: int) -> None:
        """Select the core's P-state (100 MHz operating points).

        With SpeedStep the OS picks this; above ``base_freq_mhz`` the
        core is in a turbo state, which disables UFS socket-wide
        (Section 2.2.1: "When at least one core is running at a higher
        frequency, the uncore consistently stays at the maximum").
        """
        if freq_mhz <= 0 or freq_mhz % 100 != 0:
            raise PlacementError(
                f"P-states are positive 100 MHz points, got {freq_mhz}"
            )
        self.freq_mhz = freq_mhz

    @property
    def above_base(self) -> bool:
        """Whether the core is in a turbo P-state."""
        return self.freq_mhz > self.base_freq_mhz

    def profile_at(self, time_ns: int) -> ActivityProfile:
        """The profile in force at a given time."""
        return self.timeline.profile_at(time_ns)

    def is_active(self, time_ns: int) -> bool:
        """Whether the core is in C0 at ``time_ns``."""
        return self.profile_at(time_ns).active

    # -- idle management --------------------------------------------------------

    def c_state(self, time_ns: int, exit_latencies_ns: tuple[int, ...]) -> int:
        """Current C-state index under the OS's depth-by-idle-time rule.

        An active core is in C0.  An idle core descends one state per
        ~10x of the next state's exit latency spent idle — a standard
        menu-governor-like heuristic.
        """
        if self.is_active(time_ns):
            return 0
        idle_ns = time_ns - self._idle_since
        state = 0
        for index in range(1, len(exit_latencies_ns)):
            if idle_ns >= 10 * exit_latencies_ns[index]:
                state = index
        return state

    def __repr__(self) -> str:
        return (
            f"Core(id={self.core_id}, socket={self.socket_id}, "
            f"tile={self.tile}, owner={self._owner!r})"
        )
