"""Vectorized and analytical fast-path simulation backends.

See :mod:`repro.fastpath.backend` for the one backend switch,
:mod:`repro.fastpath.batch` for the bit-identical lattice simulator and
:mod:`repro.fastpath.analytical` for the closed-form estimator.
"""

from .backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    CapacityRequest,
    DefenseRequest,
    check_backend,
    run_requests,
    runner_for,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CapacityRequest",
    "DefenseRequest",
    "check_backend",
    "run_requests",
    "runner_for",
]
