"""Layer spans measured from outside the simulator.

The benchmark never edits ``src/``: it times each layer by replacing
the layer's public entry points with thin wrappers *in the benchmark's
own worker process*.  A wrapper opens a span on entry and closes it on
exit; spans nest on a stack, so a layer's **self time** is its span
minus the part of that interval its child spans cover, and the self
times partition the traced wall time.  The workloads are
single-threaded, and so is the tracer.

Two kinds of span are kept in memory until the run ends:

* every call is folded into a ``(count, total_s, self_s)`` table keyed
  by layer name;
* phase-level layers (``record=True`` below) also keep one
  ``(id, name, start, end, parent, run)`` tuple per call, where
  ``parent`` is the enclosing span's id and ``run`` is the benchmark
  op that caused it.  Per-event layers (window statistics, UFS steps,
  codec calls) fire thousands of times per op and are only tabled.

A call to a layer from inside the same layer (``Engine.run_for`` ->
``Engine.run_until``) is not re-entered, so counts mean "entries into
the layer".
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pstats
import sys
import time
from contextlib import contextmanager

#: ``(span name, module, attribute, record)`` for every traced entry
#: point.  ``attribute`` is ``Class.method`` or a module-level function;
#: a function is rebound in every loaded ``repro`` module that imported
#: it by name.
LAYERS: tuple[tuple[str, str, str, bool], ...] = (
    ("platform.system_build", "repro.platform.system", "System.__init__",
     True),
    ("cache.hierarchy_build", "repro.cache.hierarchy",
     "CacheHierarchy.__init__", True),
    ("cache.eviction_search", "repro.cache.eviction",
     "EvictionListBuilder.build_measurement_list", True),
    ("cache.eviction_search", "repro.cache.eviction",
     "EvictionListBuilder.build_l2_set_group", True),
    ("engine.run", "repro.engine.simulator", "Engine.run_until", False),
    ("engine.run", "repro.engine.simulator", "Engine.run", False),
    ("engine.run", "repro.engine.simulator", "Engine.step", False),
    ("power.ufs_step", "repro.power.ufs", "ufs_control_step", False),
    ("cpu.window_stats", "repro.cpu.activity",
     "ProfileTimeline.window_stats", False),
    ("core.transmit", "repro.core.channel", "UFVariationChannel.transmit",
     True),
    ("core.receive_bit", "repro.core.receiver", "UFReceiver.receive_bit",
     False),
    ("sidechannel.collect", "repro.sidechannel.fingerprint",
     "collect_dataset", True),
    ("sidechannel.normalize", "repro.sidechannel.features",
     "normalize_traces", True),
    ("sidechannel.rnn_fit", "repro.sidechannel.rnn", "RnnClassifier.fit",
     True),
    ("sidechannel.rnn_predict", "repro.sidechannel.rnn",
     "RnnClassifier.predict_scores", True),
    ("sidechannel.knn", "repro.sidechannel.knn", "KnnClassifier.fit", True),
    ("sidechannel.knn", "repro.sidechannel.knn",
     "KnnClassifier.predict_scores", True),
    ("trace.encode", "repro.trace.format", "encode_record", False),
    ("trace.decode", "repro.trace.format", "decode_record", False),
    ("trace.store_put", "repro.trace.store", "TraceStore.put", True),
    ("trace.store_fetch", "repro.trace.store", "TraceStore.fetch", True),
    ("fastpath.batch_capacity", "repro.fastpath.batch",
     "batch_capacity_points", True),
    ("fastpath.batch_defense", "repro.fastpath.batch",
     "batch_defense_reports", True),
    # The experiment path reaches the lattice through this helper, not
    # through the public ``batch_frequency_lattices`` (validation only).
    ("fastpath.lattice", "repro.fastpath.batch", "_lattices_for", True),
    ("fastpath.replay", "repro.fastpath.batch", "_replay_trial", False),
)

#: Every layer name, in table order, without repeats.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in LAYERS))

#: The root span of one benchmark op; its self time is what no layer
#: span covers (benchmark glue, unwrapped code).
OP_SPAN = "bench.op"

#: The full garbage collection that ends every in-process op.
GC_SPAN = "bench.gc"


class _Frame:
    __slots__ = ("name", "start", "child_s", "span_id", "parent")

    def __init__(self, name, start, span_id, parent):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id
        self.parent = parent


class Tracer:
    """Spans in memory: one stack, one table, one span list."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.run_id: int | None = None
        self._stack: list[_Frame] = []
        #: name -> [count, total_s, self_s]
        self._table: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else None
        frame = _Frame(name, self.clock(), next(self._ids), parent)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, record: bool) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child_s += duration
        row = self._table.get(frame.name)
        if row is None:
            row = self._table[frame.name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame.child_s
        if record:
            self.spans.append((frame.span_id, frame.name, frame.start, end,
                               frame.parent, self.run_id))

    @contextmanager
    def span(self, name: str):
        """An explicit recorded span (the benchmark's op roots)."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, True)

    def wrap(self, fn, name: str, record: bool):
        """``fn`` with a span around every (non-reentrant) call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, record)

        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (after a warm-up)."""
        self._table.clear()
        self.spans.clear()

    # -- installing the wrappers ----------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`; undo with
        :meth:`uninstall`."""
        for name, module_name, attribute, record in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._installed.append((owner, method, original))
                setattr(owner, method, self.wrap(original, name, record))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(original, name, record)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._installed.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # -- reading it back ------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per-layer ``count``/``total_s``/``self_s``."""
        return {name: {"count": row[0], "total_s": row[1], "self_s": row[2]}
                for name, row in sorted(self._table.items())}

    def export(self) -> dict:
        """The table plus every recorded span, JSON-ready."""
        return {
            "layers": self.table(),
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "run": run}
                for sid, name, start, end, parent, run in self.spans
            ],
        }


# -- profiles -----------------------------------------------------------


def _package_of(filename: str) -> str:
    """``repro.<package>`` for a source file, else a coarse bucket."""
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    if marker in path:
        rest = path.split(marker, 1)[1]
        head = rest.split("/", 1)[0]
        return "repro." + (head[:-3] if head.endswith(".py") else head)
    if "/numpy/" in path:
        return "numpy"
    if path.startswith("~") or path.startswith("<"):
        return "builtins"
    return "python"


def summarize_profile(stats: pstats.Stats, *, top: int = 25) -> dict:
    """Own time by ``repro.<package>`` plus the hottest functions.

    Function keys read ``package/module.py:function`` so a hot spot
    such as ``cache/replacement.py:make_policy`` is named directly.
    """
    by_package: dict[str, float] = {}
    functions: list[tuple[float, int, str]] = []
    for (filename, _line, func), row in stats.stats.items():
        calls, tottime = row[1], row[2]
        package = _package_of(filename)
        by_package[package] = by_package.get(package, 0.0) + tottime
        path = filename.replace("\\", "/")
        label = (path.split("/src/repro/", 1)[1] if "/src/repro/" in path
                 else path.rsplit("/", 1)[-1])
        functions.append((tottime, calls, f"{label}:{func}"))
    functions.sort(reverse=True)
    total = sum(by_package.values())
    return {
        "total_s": total,
        "by_package": dict(sorted(by_package.items(),
                                  key=lambda item: -item[1])),
        "top_functions": [
            {"function": label, "calls": calls, "self_s": tottime}
            for tottime, calls, label in functions[:top]
        ],
    }

