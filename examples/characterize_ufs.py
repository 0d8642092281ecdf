"""Characterize UFS the way Section 3 of the paper does.

Reads the uncore frequency through the privileged MSR path while
driving the platform with the paper's microbenchmark loops:

1. the stabilised frequency under traffic loops (Figure 3's rows);
2. the stalled-core rule (Figure 4);
3. the 100 MHz / ~10 ms ramp when a stalling loop starts (Figure 5);
4. the cross-socket coupling (Figure 7).

Run:  python examples/characterize_ufs.py
"""

import numpy as np

from repro import System
from repro.platform.tracing import frequency_trace, step_times_ms
from repro.units import ms
from repro.workloads import NopLoop, StallingLoop, TrafficLoop


def stabilized_frequency(threads: int, hops: int) -> float:
    system = System(seed=0)
    for index in range(threads):
        system.launch(TrafficLoop(f"t{index}", hops=hops), 0, index)
    system.run_ms(900)
    _, freqs = frequency_trace(
        system.socket(0).pmu.timeline, system.now - ms(300),
        system.now, ms(1),
    )
    system.stop()
    return float(np.median(freqs)) / 1000.0


def main() -> None:
    print("== Figure 3 (excerpt): stabilised frequency (GHz) ==")
    for threads, hops in ((1, 0), (3, 0), (1, 1), (7, 1), (1, 3)):
        freq = stabilized_frequency(threads, hops)
        print(f"  {threads} thread(s), {hops}-hop traffic -> "
              f"{freq:.1f} GHz")

    print("\n== Figure 4: the stalled-core rule ==")
    for stalled, unstalled in ((1, 0), (1, 2), (2, 3), (2, 4)):
        system = System(seed=0)
        core = 0
        for i in range(stalled):
            system.launch(StallingLoop(f"s{i}"), 0, core)
            core += 1
        for i in range(unstalled):
            system.launch(NopLoop(f"n{i}"), 0, core)
            core += 1
        system.run_ms(300)
        fraction = stalled / (stalled + unstalled)
        print(f"  {stalled} stalled + {unstalled} active -> "
              f"{system.uncore_frequency_mhz(0) / 1000:.1f} GHz "
              f"(stalled fraction {fraction:.2f})")
        system.stop()

    print("\n== Figure 5: ramp after the stalling loop starts ==")
    system = System(seed=0)
    system.run_ms(53)
    system.launch(StallingLoop("stall"), 0, 0)
    start = system.now
    system.run_ms(150)
    times, freqs = frequency_trace(
        system.socket(0).pmu.timeline, start, system.now, 200_000
    )
    for time_ms, frm, to in step_times_ms(times, freqs):
        print(f"  t={time_ms:6.1f} ms  {frm / 1000:.1f} -> "
              f"{to / 1000:.1f} GHz")

    print("\n== Figure 7: cross-socket coupling ==")
    print(f"  socket 0: {system.uncore_frequency_mhz(0) / 1000:.1f} "
          f"GHz, socket 1: "
          f"{system.uncore_frequency_mhz(1) / 1000:.1f} GHz "
          "(follower one step behind)")
    system.stop()


if __name__ == "__main__":
    main()
