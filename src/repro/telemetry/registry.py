"""The metrics registry: counters and histograms.

Zero-dependency observability primitives for the simulated platform.
Three rules keep telemetry safe to thread through hot layers:

* **Strictly observational.**  Metrics never touch an RNG, never
  schedule events and never advance time — with a registry active or
  not, every experiment result is bit-identical.
* **Deterministic aggregation.**  Histograms use *fixed* bucket edges
  declared at creation and counters and histograms merge by addition,
  so merging per-worker snapshots in submission order reproduces the
  serial run exactly.
* **No wall time.**  Every metric counts simulated events, so a
  snapshot is a pure function of the run and safe to compare across
  worker counts.
"""

from __future__ import annotations

from ..errors import ConfigError

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count (events fired, bits sent...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigError(
                f"counter {self.name}: negative increment {amount}"
            )
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """A distribution over fixed, ascending bucket edges.

    ``edges = (e0, ..., en)`` yields ``n + 2`` buckets: ``(-inf, e0]``,
    ``(e0, e1]``, ..., ``(en, +inf)``.  Edges are fixed at creation so
    snapshots from different workers merge bucket-by-bucket without any
    re-binning — the precondition for deterministic aggregation.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum")

    def __init__(self, name: str, edges: tuple[float, ...]) -> None:
        if not edges:
            raise ConfigError(f"histogram {name}: needs at least one edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ConfigError(
                f"histogram {name}: edges must be strictly ascending"
            )
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0

    def _bucket(self, value: float) -> int:
        # Linear scan: edge lists are short (frequency points, latency
        # bands) and observations happen at harvest time, not per event.
        for index, edge in enumerate(self.edges):
            if value <= edge:
                return index
        return len(self.edges)

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        if count < 0:
            raise ConfigError(
                f"histogram {self.name}: negative count {count}"
            )
        if count == 0:
            return
        self.counts[self._bucket(value)] += count
        self.count += count
        self.sum += float(value) * count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.2f}>"


class MetricsRegistry:
    """A namespace of metrics with deterministic snapshot/merge.

    Metric names are dotted strings (``engine.events_fired``,
    ``ufs.freq_mhz``).  ``counter``/``histogram`` get-or-create by
    name; registering one name under both kinds is an error.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create --------------------------------------------------------

    def _check_free(self, name: str, kind: str) -> None:
        for label, table in (("counter", self._counters),
                             ("histogram", self._histograms)):
            if label != kind and name in table:
                raise ConfigError(
                    f"metric {name!r} already registered as a {label}"
                )

    def counter(self, name: str) -> Counter:
        existing = self._counters.get(name)
        if existing is not None:
            return existing
        self._check_free(name, "counter")
        created = Counter(name)
        self._counters[name] = created
        return created

    def histogram(self, name: str,
                  edges: tuple[float, ...]) -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.edges != tuple(float(e) for e in edges):
                raise ConfigError(
                    f"histogram {name!r} re-registered with different edges"
                )
            return existing
        self._check_free(name, "histogram")
        created = Histogram(name, edges)
        self._histograms[name] = created
        return created

    def inc(self, name: str, amount: int | float = 1) -> None:
        """Shorthand for ``counter(name).inc(amount)``."""
        self.counter(name).inc(amount)

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, JSON-ready copy of every metric (sorted keys)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: {
                    "edges": list(hist.edges),
                    "counts": list(hist.counts),
                    "count": hist.count,
                    "sum": hist.sum,
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets add, so merging worker snapshots
        in submission order reproduces the serial aggregation exactly.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, tuple(data["edges"]))
            for index, count in enumerate(data["counts"]):
                hist.counts[index] += count
            hist.count += data["count"]
            hist.sum += data["sum"]

    def clear(self) -> None:
        """Drop every metric (between unrelated runs)."""
        self._counters.clear()
        self._histograms.clear()
