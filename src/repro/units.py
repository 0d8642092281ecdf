"""Time and frequency units used throughout the simulator.

Simulated time is an integer number of nanoseconds.  Using integers keeps
the discrete-event engine exactly reproducible: two events scheduled for
the same instant compare equal, and no floating-point drift accumulates
over multi-second experiments.

Frequencies are integer megahertz.  Intel's uncore operating points come
in 100 MHz increments (Section 2.2.1 of the paper), so every frequency
the platform can take is an exact integer in this unit.
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------

NS = 1
US = 1_000 * NS
MS = 1_000 * US
SECOND = 1_000 * MS


def us(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * US)


def ms(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * MS)


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(value * SECOND)


def to_ms(time_ns: int) -> float:
    """Express an integer nanosecond time in milliseconds."""
    return time_ns / MS


def to_us(time_ns: int) -> float:
    """Express an integer nanosecond time in microseconds."""
    return time_ns / US


def to_seconds(time_ns: int) -> float:
    """Express an integer nanosecond time in seconds."""
    return time_ns / SECOND


# --- frequency ----------------------------------------------------------

MHZ = 1
GHZ = 1_000 * MHZ


def mhz_to_ghz(freq_mhz: int) -> float:
    """Express an integer megahertz frequency in gigahertz."""
    return freq_mhz / 1_000.0


def ghz(value: float) -> int:
    """Convert a gigahertz quantity to integer megahertz."""
    return round(value * 1_000)


def cycles_to_ns(cycles: float, freq_mhz: int) -> float:
    """Duration in nanoseconds of ``cycles`` clock cycles at ``freq_mhz``."""
    if freq_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_mhz} MHz")
    return cycles * 1_000.0 / freq_mhz


def ns_to_cycles(duration_ns: float, freq_mhz: int) -> float:
    """Number of clock cycles at ``freq_mhz`` spanning ``duration_ns``."""
    return duration_ns * freq_mhz / 1_000.0
