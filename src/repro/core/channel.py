"""End-to-end UF-variation transmission (Section 4.3).

``UFVariationChannel`` wires a sender and a receiver onto a running
system — same socket for the cross-core deployment, different sockets
for the cross-processor one — synchronises them on the global timestamp
grid, and runs Algorithm 1 over a bit string.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.entropy import channel_capacity_bps
from ..analysis.stats import bit_error_rate
from ..errors import ChannelError
from ..platform.system import System
from ..telemetry.collect import harvest_channel
from ..telemetry.context import active_registry
from .protocol import ChannelConfig, calibrate_endpoints
from .receiver import UFReceiver
from .sender import SenderMode, UFSender


@dataclass(frozen=True)
class TransmissionResult:
    """Outcome of transmitting one bit string."""

    sent: tuple[int, ...]
    received: tuple[int, ...]
    interval_ns: int
    duration_ns: int

    @property
    def bit_errors(self) -> int:
        return sum(1 for a, b in zip(self.sent, self.received) if a != b)

    @property
    def error_rate(self) -> float:
        return bit_error_rate(list(self.sent), list(self.received))

    @property
    def raw_rate_bps(self) -> float:
        return 1e9 / self.interval_ns

    @property
    def capacity_bps(self) -> float:
        """Raw rate x (1 - H(e)) — the paper's throughput metric."""
        return channel_capacity_bps(self.raw_rate_bps, self.error_rate)


class UFVariationChannel:
    """A deployed sender/receiver pair running Algorithm 1."""

    def __init__(
        self,
        system: System,
        *,
        config: ChannelConfig | None = None,
        sender_socket: int = 0,
        sender_cores: tuple[int, ...] = (0,),
        receiver_socket: int = 0,
        receiver_core: int = 8,
        sender_mode: SenderMode = SenderMode.STALL,
        sender_hops: int = 3,
        sender_domain: int = 0,
        receiver_domain: int = 0,
    ) -> None:
        self.system = system
        self.config = config if config is not None else ChannelConfig()
        self.config.validate()
        if sender_socket == receiver_socket and (
            receiver_core in sender_cores
        ):
            raise ChannelError(
                "sender and receiver must occupy different cores"
            )
        self.cross_processor = sender_socket != receiver_socket
        endpoints = calibrate_endpoints(
            system.config,
            system.latency_model,
            hops=self.config.hops,
            cross_processor=self.cross_processor,
        )
        self.sender = UFSender(
            system,
            socket_id=sender_socket,
            core_ids=sender_cores,
            mode=sender_mode,
            hops=sender_hops,
            domain=sender_domain,
        )
        self.receiver = UFReceiver(
            system,
            socket_id=receiver_socket,
            core_id=receiver_core,
            config=self.config,
            endpoints=endpoints,
            domain=receiver_domain,
        )
        # Lifetime protocol counters (telemetry harvest): plain ints,
        # always on, never consulted by the protocol itself.
        self.transmissions = 0
        self.bits_sent = 0
        self.bit_errors = 0
        self.sync_waits = 0
        self.retransmissions = 0
        self._telemetry_collected = False

    def sync(self) -> None:
        """Align both parties to the shared interval grid.

        The paper's endpoints synchronise with timestamp counters
        (Section 4.3.2); here both sides share the simulation clock, so
        synchronisation is waiting for the next interval boundary.
        """
        interval = self.config.interval_ns
        remainder = self.system.now % interval
        if remainder:
            self.sync_waits += 1
            self.system.run_for(interval - remainder)

    def transmit(self, bits: list[int]) -> TransmissionResult:
        """Send ``bits`` through the channel and decode them."""
        if not bits:
            raise ChannelError("message is empty: nothing to transmit")
        if any(bit not in (0, 1) for bit in bits):
            raise ChannelError("message must be a list of 0/1 bits")
        self.sync()
        start = self.system.now
        received: list[int] = []
        for bit in bits:
            self.sender.drive(bit)
            received.append(self.receiver.receive_bit())
        # Leave the uncore decaying, not pinned, after the message.
        self.sender.drive(0)
        result = TransmissionResult(
            sent=tuple(bits),
            received=tuple(received),
            interval_ns=self.config.interval_ns,
            duration_ns=self.system.now - start,
        )
        self.transmissions += 1
        self.bits_sent += len(bits)
        self.bit_errors += result.bit_errors
        return result

    def shutdown(self) -> None:
        """Release both endpoints' cores (and harvest telemetry)."""
        self.sender.shutdown()
        self.receiver.shutdown()
        registry = active_registry()
        if registry is not None and not self._telemetry_collected:
            self._telemetry_collected = True
            harvest_channel(self, registry)
