"""Fault tolerance for every long-running path.

Two mechanisms, each driven by the chaos matrix in
:mod:`repro.resilience.chaos`:

* :mod:`~repro.resilience.retry` — transient-vs-permanent error
  classification and deterministic jittered backoff; passing a policy
  as the parallel runner's ``retry=`` is what makes it contain crashes.
* :mod:`~repro.resilience.checkpoint` — atomic, content-keyed
  checkpoint files that let interrupted sweeps resume bit-identically;
  its atomic ``publish`` and ``quarantine_file`` also guard the trace
  store's blobs.

``chaos`` imports the experiment runners only inside its checks, so
importing this package stays cheap and cycle-free for the modules
(``engine.parallel``, ``trace.store``) that depend on the light pieces.
"""

from .chaos import CHAOS_FAULTS, ChaosOutcome, run_chaos
from .checkpoint import Checkpoint, checkpoint_key
from .retry import PERMANENT_ERRORS, TRANSIENT_ERRORS, RetryPolicy

__all__ = [
    "Checkpoint",
    "checkpoint_key",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "PERMANENT_ERRORS",
    "ChaosOutcome",
    "run_chaos",
    "CHAOS_FAULTS",
]
