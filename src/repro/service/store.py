"""The result cache: served job results, content-addressed on disk.

:class:`ResultCache` keeps one record per job spec's content address
under ``<root>/results/<key>.res``.  This is what lets the service
answer a repeated sweep submission without running anything — the
serving-side analogue of the trace store's warm-replay path.

Records follow the store discipline of
:mod:`repro.resilience.checkpoint`: each is a sealed pickle (sha256
digest + body, the same record a checkpoint keeps per trial),
atomically published, and moved to ``results/quarantine/`` when it
fails to unseal.
"""

from __future__ import annotations

from pathlib import Path

from ..resilience.checkpoint import publish, quarantine_file, seal, unseal
from ..telemetry.registry import MetricsRegistry

__all__ = ["ResultCache"]


class ResultCache:
    """Content-addressed job results under ``<root>/results/``.

    A record that fails its digest or unpickle is treated as a miss and
    moved aside — worst case the job re-runs, never a wrong result
    served.

    Counters land in the *explicit* registry handed in (the service
    deliberately avoids the ambient telemetry global, which is not
    thread-safe next to in-process experiment runs):
    ``service.cache.hits`` / ``misses`` / ``writes`` /
    ``corrupt_records``.
    """

    def __init__(self, root, *,
                 registry: MetricsRegistry | None = None) -> None:
        self.directory = Path(root) / "results"
        self.registry = registry

    def _count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.inc(f"service.cache.{name}", amount)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.res"

    def get(self, key: str):
        """The cached payload for ``key``, or ``None`` on (any) miss."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        payload = unseal(blob)
        if payload is None:
            self._quarantine(path)
            return None
        self._count("hits")
        return payload

    def put(self, key: str, payload) -> Path:
        """Atomically publish ``payload`` under ``key``."""
        path = self._path(key)
        with publish(path) as temp:
            temp.write_bytes(seal(payload))
        self._count("writes")
        return path

    def _quarantine(self, path: Path) -> None:
        """Move a damaged record aside (evidence, never deletion)."""
        self._count("corrupt_records")
        self._count("misses")
        quarantine_file(path, self.directory / "quarantine")
