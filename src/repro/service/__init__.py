"""The experiment service: a daemon that serves experiment traffic.

Everything below ``repro.service`` turns the blocking experiment
runners (:func:`~repro.core.evaluation.capacity_sweep` and friends)
into a long-running, network-facing service:

* :mod:`repro.service.protocol` — job specs, job records and the JSON
  wire forms both sides of the socket share;
* :mod:`repro.service.jobs` — the registry of servable experiments and
  the result payload codecs (a served payload decodes back to the
  exact dataclasses a direct in-process call returns);
* :mod:`repro.service.queue` — the bounded multi-tenant priority queue
  with weighted-fair dequeue and backpressure;
* :mod:`repro.service.store` — the :class:`ResultCache` repeated
  submissions are answered from (``<store>/results/``, sealed records
  shared with checkpoints);
* :mod:`repro.service.scheduler` — worker pools with work stealing,
  wired into the resilience layer (retry classification, per-experiment
  circuit breaker, checkpointed sweeps);
* :mod:`repro.service.daemon` — the asyncio HTTP/JSON front end
  (``repro serve``);
* :mod:`repro.service.client` — :class:`ServiceClient` (sync) and
  :class:`AsyncServiceClient` for driving a daemon.

The service inherits the library's determinism contract: a served
result is bit-identical to the direct in-process call with the same
spec, whether it was computed or answered from the result cache.
"""

from .client import AsyncServiceClient, ServiceClient
from .daemon import ExperimentService, ServiceConfig, ServiceThread
from .jobs import EXPERIMENTS, run_job, sweep_from_payload
from .protocol import JobRecord, JobSpec, JobState
from .queue import JobQueue
from .scheduler import Scheduler
from .store import ResultCache

__all__ = [
    "AsyncServiceClient",
    "EXPERIMENTS",
    "ExperimentService",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ResultCache",
    "Scheduler",
    "ServiceClient",
    "ServiceConfig",
    "ServiceThread",
    "run_job",
    "sweep_from_payload",
]
