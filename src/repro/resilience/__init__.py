"""Fault tolerance for every long-running path.

Three mechanisms, each driven by the chaos matrix in
:mod:`repro.resilience.chaos`:

* :mod:`~repro.resilience.retry` — transient-vs-permanent error
  classification and deterministic jittered backoff for the parallel
  runner's ``on_error="retry"`` mode.
* :mod:`~repro.resilience.checkpoint` — atomic, content-keyed
  checkpoint files that let interrupted sweeps resume bit-identically.
* :mod:`~repro.resilience.breaker` — a call-counted circuit breaker
  that degrades the trace store to pass-through under repeated
  corruption.

``chaos`` imports the experiment runners only inside its checks, so
importing this package stays cheap and cycle-free for the modules
(``engine.parallel``, ``trace.store``) that depend on the light pieces.
"""

from .breaker import CircuitBreaker
from .chaos import CHAOS_FAULTS, ChaosOutcome, run_chaos
from .checkpoint import Checkpoint, checkpoint_key
from .retry import PERMANENT_ERRORS, TRANSIENT_ERRORS, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "Checkpoint",
    "checkpoint_key",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "PERMANENT_ERRORS",
    "ChaosOutcome",
    "run_chaos",
    "CHAOS_FAULTS",
]
