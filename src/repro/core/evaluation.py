"""Capacity evaluation: the Figure 10 sweep.

For each raw transmission rate (interval length), transmit a seeded
random bit string, measure the bit error rate and convert to channel
capacity.  Run in both the cross-core and cross-processor deployments.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from ..config import PlatformConfig
from ..engine.parallel import resolve_workers
from ..errors import ConfigError
from ..fastpath.backend import (
    DEFAULT_BACKEND,
    CapacityRequest,
    check_backend,
    run_requests,
    runner_for,
)
from ..platform.system import System
from ..rng import child_rng
from ..units import ms
from .channel import UFVariationChannel
from .protocol import ChannelConfig
from .sender import SenderMode

#: Interval lengths (ms) swept for Figure 10, spanning ~15 to 100 bit/s.
DEFAULT_INTERVALS_MS: tuple[float, ...] = (
    60.0, 45.0, 38.0, 33.0, 28.0, 24.0, 21.0, 18.0, 15.0, 12.0, 10.0
)


@dataclass(frozen=True)
class CapacityPoint:
    """One point on the Figure 10 curves."""

    interval_ms: float
    raw_rate_bps: float
    error_rate: float
    capacity_bps: float
    bits: int

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on an impossible
        point.

        The checks are information-theoretic, not empirical: a BER is a
        probability, and Shannon caps a binary symmetric channel's
        capacity at its raw rate — no measurement may exceed either.
        The validation oracles lean on this to catch decoder or
        bookkeeping regressions that would silently inflate results.
        """
        if self.interval_ms <= 0.0 or self.bits < 0:
            raise ConfigError(
                f"capacity point has impossible shape: interval "
                f"{self.interval_ms} ms, {self.bits} bits"
            )
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError(
                f"bit error rate {self.error_rate} is not a probability"
            )
        if self.capacity_bps < 0.0:
            raise ConfigError(
                f"capacity {self.capacity_bps} bit/s is negative"
            )
        # Allow one ulp of slack: capacity is computed from raw rate by
        # a float multiply, which may round up at error_rate == 0.
        bound = self.raw_rate_bps * (1.0 + 1e-12)
        if self.capacity_bps > bound:
            raise ConfigError(
                f"capacity {self.capacity_bps} bit/s exceeds the "
                f"Shannon bound {self.raw_rate_bps} bit/s"
            )


@dataclass(frozen=True)
class SweepResult:
    """A finished capacity sweep: the points plus their headline math.

    Iterates and indexes like the plain list older code handled —
    ``for p in sweep``, ``sweep[0]``, ``len(sweep)`` all work — while
    carrying the summary methods.
    """

    points: tuple[CapacityPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index):
        return self.points[index]

    def __iter__(self) -> Iterator[CapacityPoint]:
        return iter(self.points)

    def peak(self) -> CapacityPoint:
        """The point with the highest capacity (the reported number)."""
        if not self.points:
            raise ValueError("empty sweep")
        return max(self.points, key=lambda p: p.capacity_bps)

    def summarize(self) -> dict[str, float]:
        """Headline numbers: peak capacity and its operating point."""
        best = self.peak()
        return {
            "peak_capacity_bps": best.capacity_bps,
            "peak_raw_rate_bps": best.raw_rate_bps,
            "peak_interval_ms": best.interval_ms,
            "peak_error_rate": best.error_rate,
        }


def random_bits(count: int, seed: int, label: str = "payload") -> list[int]:
    """A reproducible random payload."""
    rng = child_rng(seed, label)
    return [int(b) for b in rng.integers(0, 2, count)]


def des_capacity_points(
    requests: Sequence[CapacityRequest],
) -> list[CapacityPoint]:
    """The reference DES runner: each request deploys a fresh channel
    on its own seeded :class:`~repro.platform.system.System`."""
    points = []
    for request in requests:
        system = System(request.platform, seed=request.seed)
        channel = UFVariationChannel(
            system,
            config=ChannelConfig(interval_ns=ms(request.interval_ms)),
            sender_socket=0,
            sender_cores=(0,),
            receiver_socket=1 if request.cross_processor else 0,
            receiver_core=8,
            sender_mode=request.sender_mode,
        )
        payload = random_bits(request.bits, request.seed,
                              f"payload-{request.interval_ms}")
        result = channel.transmit(payload)
        channel.shutdown()
        system.stop()
        points.append(CapacityPoint(
            interval_ms=request.interval_ms,
            raw_rate_bps=result.raw_rate_bps,
            error_rate=result.error_rate,
            capacity_bps=result.capacity_bps,
            bits=request.bits,
        ))
    return points


def measure_capacity(
    *,
    interval_ms: float,
    bits: int = 120,
    cross_processor: bool = False,
    seed: int = 0,
    platform: PlatformConfig | None = None,
    workers: int | None = 1,
    sender_mode: SenderMode = SenderMode.STALL,
    backend: str = DEFAULT_BACKEND,
) -> CapacityPoint:
    """Deploy a fresh channel and measure one capacity point.

    A single deployment has nothing to fan out, so ``workers`` is
    validated for signature uniformity but unused.  ``backend`` picks
    the simulator: ``"des"`` (default) runs the full event-driven
    system; ``"batch"`` produces the bit-identical vectorized result;
    ``"analytical"`` returns the closed-form estimate.
    """
    resolve_workers(workers)
    request = CapacityRequest(
        interval_ms=interval_ms,
        bits=bits,
        cross_processor=cross_processor,
        seed=seed,
        platform=platform,
        sender_mode=sender_mode,
    )
    return runner_for(CapacityRequest, backend)([request])[0]


def capacity_sweep(
    *,
    intervals_ms: tuple[float, ...] = DEFAULT_INTERVALS_MS,
    bits: int = 120,
    cross_processor: bool = False,
    seed: int = 0,
    platform: PlatformConfig | None = None,
    workers: int | None = 1,
    checkpoint_dir=None,
    retry=None,
    backend: str = DEFAULT_BACKEND,
) -> SweepResult:
    """The Figure 10 sweep for one deployment.

    Each sweep point deploys its own freshly-seeded system, so the
    points are independent requests, answered by
    :func:`~repro.fastpath.backend.run_requests` on ``backend``:
    ``workers > 1`` fans them out across processes and returns the
    exact same :class:`SweepResult` a serial run produces, in interval
    order.  ``"batch"`` vectorizes the whole sweep (bit-identical
    points, an order of magnitude faster).

    ``checkpoint_dir`` makes the sweep resumable: each completed point
    is recorded to an atomic checkpoint file keyed by the sweep's
    (platform, params, seed, backend) digest — the trace store's
    content-address recipe — so a re-run with identical arguments skips
    the completed intervals and returns a :class:`SweepResult`
    bit-identical to an uninterrupted run.  ``retry`` (a
    :class:`~repro.resilience.retry.RetryPolicy`) re-runs transient
    worker crashes in place; a point still failed after its attempts
    raises :class:`~repro.errors.ResilienceError` rather than returning
    a sweep with holes.  ``retry`` applies to the per-point DES trials;
    the vectorized backends run each chunk once.
    """
    resolve_workers(workers)
    check_backend(backend)
    requests = [
        CapacityRequest(
            interval_ms=interval,
            bits=bits,
            cross_processor=cross_processor,
            seed=seed,
            platform=platform,
        )
        for interval in intervals_ms
    ]
    checkpoint = None
    if checkpoint_dir is not None:
        from ..resilience.checkpoint import Checkpoint

        checkpoint = Checkpoint.for_experiment(
            checkpoint_dir, "capacity_sweep",
            platform=platform,
            params=dict(
                intervals_ms=[float(i) for i in intervals_ms],
                bits=bits,
                cross_processor=cross_processor,
            ),
            seed=seed,
            backend=backend,
        )
    points = run_requests(
        requests, backend, workers=workers,
        labels=[f"interval-{float(interval):g}" for interval in intervals_ms],
        checkpoint=checkpoint, retry=retry,
    )
    return SweepResult(points=tuple(points))
