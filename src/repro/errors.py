"""Exception hierarchy for the reproduction library.

All library-specific failures derive from :class:`ReproError` so callers
can catch the whole family with one clause while still distinguishing
the precise condition when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A platform or experiment configuration is inconsistent."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped engine."""


class PlacementError(ReproError):
    """A thread could not be pinned to the requested core."""


class MemoryError_(ReproError):
    """The simulated physical memory could not satisfy an allocation."""


class PrivilegeError(ReproError):
    """An unprivileged actor attempted a privileged operation (e.g. MSR)."""


class ChannelError(ReproError):
    """A covert channel was configured or driven incorrectly."""


class PrerequisiteError(ChannelError):
    """A covert channel's platform prerequisite is unavailable.

    Raised, for example, when Flush+Reload is asked to run without shared
    memory, or Prime+Abort without transactional memory (Table 3's
    "Prerequisites" columns).
    """


class DefenseError(ReproError):
    """A defense mechanism was configured inconsistently."""


class TraceError(ReproError):
    """A frequency-trace artefact (record, corpus or store) is unusable."""


class TraceFormatError(TraceError):
    """A trace blob does not parse as the versioned binary format.

    Raised for a bad magic number, an unsupported format version or a
    structurally impossible layout — the bytes were never a trace, or
    were written by a future writer.
    """


class TraceCorruptionError(TraceFormatError):
    """A trace blob parsed but its integrity checks failed.

    Raised for truncated streams and CRC mismatches: the bytes *were* a
    trace once but have been damaged since.  The store quarantines the
    blob before letting this propagate.
    """


class TraceStoreError(TraceError):
    """The content-addressed trace store is inconsistent.

    Raised, for example, when an index entry points at a blob that no
    longer exists on disk, or a replay asks for a key that was never
    recorded.  The store stays usable after the error.
    """


class ResilienceError(ReproError):
    """A fault-tolerance mechanism exhausted its containment budget.

    Raised when a retried trial stays failed after its
    :class:`~repro.resilience.retry.RetryPolicy` runs out of attempts
    (the alternative — returning a sweep with holes — would let a
    partial result masquerade as a complete one), and by ``repro
    chaos`` when an injected fault escapes containment.
    """


class ValidationError(ReproError):
    """A fuzzed scenario violated a simulator invariant.

    Raised by the :mod:`repro.validate` runner (and the ``repro
    validate`` CLI) when an oracle reports a violation, after the
    failing scenario has been shrunk and written out as a repro file.
    """

