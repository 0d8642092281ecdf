"""How fast the host runs right now, measured by a separate process.

On a shared virtual machine the same op takes anywhere from 1x to 2x
its time as neighbours come and go, over seconds, with CPU time equal
to wall time.  Medians over a longer run do not remove that.  So the
benchmark times a few fixed kernels between ops and scales every op
time to a reference speed.

    with SpeedProbe(("objects", "chase")) as probe:
        slowdowns = [probe.slowdown()]
        for op in ops:
            times.append(timed(op))
            slowdowns.append(probe.slowdown())
    reference_times = scale(times, slowdowns)

Contention does not slow all code alike: on the reference host a slow
phase stretches small-array numpy calls far more than object
allocation or memory reads.  So each workload names the kernels that
resemble its own hot path (``worker.PROBE_KERNELS``).

The kernels run in their own process (``python speed.py KERNEL...``),
so they neither share the workload's heap nor its garbage collector,
and they add nothing to its peak memory.  That process inherits the
caller's CPU affinity; ``run.py`` pins every process of a run to one
CPU, so the probe measures the CPU the ops ran on.  It runs only while
the caller waits for it.
"""

from __future__ import annotations

import gc
import math
import random
import subprocess
import sys
import time

#: Seconds each kernel takes on the reference host: a 2-vCPU Intel Xeon
#: virtual machine (2.0 GHz, Python 3.11) in its fast phase.  A
#: slowdown of 1 means the host runs at that speed.
REFERENCE_S = {
    "objects": 0.0110,
    "chase": 0.0160,
    "copy": 0.0065,
    "small_numpy": 0.0190,
}

_CHASE_ENTRIES = 1 << 20
_COPY_BYTES = 16 << 20


class _Node:
    def __init__(self, index, nxt):
        self.index = index
        self.ways = [index, index + 1, index + 2, index + 3]
        self.nxt = nxt


def _objects(_data) -> int:
    """Allocate ~36,000 objects in one reference cycle, then collect."""
    head = None
    for i in range(12_000):
        head = _Node(i, head)
    ring = [head, {"head": head}]
    ring.append(ring)
    del head, ring
    return gc.collect()


def _chase(data) -> int:
    """Dependent reads over a random cycle of a 1M-entry list."""
    nxt = data["chase"]
    j = 0
    for _ in range(50_000):
        j = nxt[j]
    return j


def _copy(data) -> int:
    """Copy 48 MB through memory."""
    buffer = data["copy"]
    return sum(len(bytes(buffer)) for _ in range(3))


def _small_numpy(data) -> int:
    """Element-wise numpy calls on 16-element arrays: per-call dispatch
    dominates, as in the batch backend's lattice steps."""
    np, ints, floats = data["numpy"]
    low = np.full(16, 3, dtype=np.int64)
    high = np.full(16, 12, dtype=np.int64)
    total = 0
    for i in range(3000):
        clamped = np.maximum(low, np.minimum(high, ints + (i & 7)))
        chosen = np.where(clamped > 6, floats * 1.5, floats)
        total += int(clamped[3]) + int(chosen.sum() > 4)
    return total


KERNELS = {"objects": _objects, "chase": _chase, "copy": _copy,
           "small_numpy": _small_numpy}


def _kernel_data(names) -> dict:
    data = {}
    if "chase" in names:
        order = list(range(_CHASE_ENTRIES))
        random.Random(0).shuffle(order)
        nxt = [0] * _CHASE_ENTRIES
        for here, there in zip(order, order[1:] + order[:1]):
            nxt[here] = there
        data["chase"] = nxt
    if "copy" in names:
        data["copy"] = bytearray(_COPY_BYTES)
    if "small_numpy" in names:
        import numpy as np

        data["numpy"] = (np, np.arange(16, dtype=np.int64),
                         np.arange(16, dtype=np.float64) * 0.5)
    return data


def measure(names, data) -> float:
    """Geometric mean over the named kernels of measured / reference
    time."""
    clock = time.perf_counter
    logs = []
    for name in names:
        began = clock()
        KERNELS[name](data)
        logs.append(math.log((clock() - began) / REFERENCE_S[name]))
    return math.exp(sum(logs) / len(logs))


def scale(times: list[float], slowdowns: list[float]) -> list[float]:
    """Each time divided by the mean slowdown read just before and just
    after it: ``slowdowns`` holds one reading more than ``times``."""
    if len(slowdowns) != len(times) + 1:
        raise ValueError("need one slowdown reading before every time "
                         "and one after the last")
    return [t * 2.0 / (slowdowns[i] + slowdowns[i + 1])
            for i, t in enumerate(times)]


class SpeedProbe:
    """A ``speed.py`` child process that runs ``kernels`` on request."""

    def __init__(self, kernels, timeout: float = 60.0) -> None:
        unknown = set(kernels) - set(KERNELS)
        if not kernels or unknown:
            raise ValueError(f"kernels must be some of {sorted(KERNELS)}")
        self.timeout = timeout
        self._process = subprocess.Popen(
            [sys.executable, __file__, *kernels], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        if self._process.stdout.readline().strip() != b"ready":
            self.close()
            raise RuntimeError("speed probe did not start")

    def slowdown(self) -> float:
        """Run the kernels once; the host's current slowdown factor."""
        self._process.stdin.write(b"measure\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("speed probe exited")
        return float(line)

    def close(self) -> None:
        process = self._process
        try:
            process.stdin.close()
        except BrokenPipeError:
            pass
        try:
            process.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def __enter__(self) -> SpeedProbe:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _serve(names) -> int:
    data = _kernel_data(names)
    gc.freeze()  # the collector walks only what the kernels allocate
    measure(names, data)  # first touch of the buffers
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for _line in sys.stdin:
        out.write(f"{measure(names, data)!r}\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_serve(sys.argv[1:]))
