"""Vectorized and analytical fast-path simulation backends.

See :mod:`repro.fastpath.backend` for the selection API,
:mod:`repro.fastpath.batch` for the bit-identical lattice simulator and
:mod:`repro.fastpath.analytical` for the closed-form estimator.
"""

from .backend import (
    BACKEND_ENV_VAR,
    BACKENDS,
    BATCHABLE_EXPERIMENTS,
    DEFAULT_BACKEND,
    CapacityRequest,
    DefenseRequest,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "BATCHABLE_EXPERIMENTS",
    "DEFAULT_BACKEND",
    "CapacityRequest",
    "DefenseRequest",
    "resolve_backend",
]
