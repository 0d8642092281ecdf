"""Fastpath backend benchmarks: DES vs batch vs analytical.

Tracks the wall-clock the vectorized backends exist to win.  The batch
backend replays the same per-trial decisions as the discrete-event
simulator over one numpy lattice per (platform, defense) group, so it
must be bit-identical *and* an order of magnitude faster; the
analytical backend answers from closed form and must land inside its
own statistical tolerance.  ``benchmarks/check_regression.py`` gates
both in CI (``--fastpath-speedup``, default 10x); this module keeps
the three medians visible in the normal benchmark output.
"""

from repro.core.evaluation import capacity_sweep
from repro.defenses.evaluation import evaluate_defenses

from _harness import report, run_once

# The gate shape shared with check_regression.py: the Figure 10 grid's
# interesting half at a bit count where the DES cost is unambiguous
# (seconds) but the whole gate still runs in well under a minute.
GATE_SHAPE = dict(intervals_ms=(38.0, 28.0, 21.0, 15.0, 12.0),
                  bits=40, seed=0)

# The defense matrix smoke: every Section 6.1 countermeasure.
DEFENSE_SHAPE = dict(bits=24, seed=0)


def test_perf_capacity_sweep_des(benchmark):
    """The reference cost: one full DES run per sweep point."""
    sweep = run_once(
        benchmark, lambda: capacity_sweep(**GATE_SHAPE, backend="des")
    )
    assert len(sweep.points) == len(GATE_SHAPE["intervals_ms"])


def test_perf_capacity_sweep_batch(benchmark):
    """The vectorized cost — and the bit-identity it must keep."""
    des = capacity_sweep(**GATE_SHAPE, backend="des")

    def batch():
        return capacity_sweep(**GATE_SHAPE, backend="batch")

    sweep = benchmark(batch)
    assert sweep.points == des.points


def test_perf_capacity_sweep_analytical(benchmark):
    """The closed-form floor: no simulation at all."""

    def analytical():
        return capacity_sweep(**GATE_SHAPE, backend="analytical")

    sweep = benchmark(analytical)
    assert len(sweep.points) == len(GATE_SHAPE["intervals_ms"])
    assert all(0.0 <= p.error_rate <= 1.0 for p in sweep.points)


def test_perf_defense_matrix_batch(benchmark):
    """The Section 6.1 matrix through the batch backend, checked
    against DES once in setup."""
    des = evaluate_defenses(**DEFENSE_SHAPE, backend="des")

    def batch():
        return evaluate_defenses(**DEFENSE_SHAPE, backend="batch")

    reports = benchmark(batch)
    assert reports == des
    summary = "\n".join(
        f"{r.defense:>16}: BER {100 * r.error_rate:5.1f} %"
        for r in reports
    )
    report("fastpath_defense_matrix", summary)
