"""The access-latency model: the receiver's only window on the uncore.

Figure 8 of the paper shows that the LLC access latency measured in TSC
cycles falls as the uncore frequency rises, for every hop distance.
The model decomposes a timed load into:

* a core-side portion, clocked by the (fixed) core clock;
* an uncore-side portion — slice pipeline plus mesh traversal — clocked
  by the uncore, hence scaling as ``1 / f_uncore``;
* queueing delay from competing interconnect flows (the mesh/ring
  contention channels' signal);
* measurement noise with a tight IQR and a right tail, matching the
  quantile whiskers of Figure 8.

The noise comes from named child streams of the experiment seed
(:func:`~repro.rng.child_rng`).  Every timed load draws from
``latency-noise``.  A measurement window's statistics draw from four
streams of their own, one per quantity (:data:`WINDOW_STREAMS`), so a
window's draws never move the per-sample stream, and each quantity of a
whole transmission can be drawn as one array.

Anchor points from Figure 9 (1-hop: 79 cycles at 1.5 GHz, 71 at
1.8 GHz, 63 at 2.2 GHz) fix the coefficients; see
:class:`repro.config.LatencyModelConfig`.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ..cache.hierarchy import Level
from ..config import LatencyModelConfig
from ..rng import child_rng

#: The streams of one measurement window's statistics, one per
#: quantity: segment jitter, tail count, tail mass and window bias.
WINDOW_STREAMS = ("latency-jitter", "latency-tail-count",
                  "latency-tail-mass", "latency-window-bias")


class LatencyModel:
    """Samples access latencies in TSC cycles."""

    #: Extra uncore cycles for a directory-served cache-to-cache transfer.
    SNOOP_EXTRA_CYCLES = 35.0

    def __init__(self, config: LatencyModelConfig, seed: int) -> None:
        config.validate()
        self.config = config
        self.seed = seed

    # -- noise streams (derived on first use) ------------------------------

    @cached_property
    def rng(self) -> np.random.Generator:
        """The per-sample stream: every timed load's jitter and tail."""
        return child_rng(self.seed, "latency-noise")

    @cached_property
    def jitter_rng(self) -> np.random.Generator:
        """One standard normal per window segment."""
        return child_rng(self.seed, WINDOW_STREAMS[0])

    @cached_property
    def tail_count_rng(self) -> np.random.Generator:
        """One binomial per window segment."""
        return child_rng(self.seed, WINDOW_STREAMS[1])

    @cached_property
    def tail_mass_rng(self) -> np.random.Generator:
        """One gamma per window segment with a tail."""
        return child_rng(self.seed, WINDOW_STREAMS[2])

    @cached_property
    def bias_rng(self) -> np.random.Generator:
        """One standard normal per measurement window."""
        return child_rng(self.seed, WINDOW_STREAMS[3])

    # -- deterministic components -----------------------------------------

    def mean_llc_cycles(self, hops: int, uncore_mhz: int) -> float:
        """Noise-free LLC-hit latency at a given hop count and frequency."""
        f_ghz = uncore_mhz / 1_000.0
        uncore_part = self.config.slice_cycles + self.config.hop_cycles * hops
        return self.config.core_cycles + uncore_part / f_ghz

    def mean_cycles(self, level: Level, hops: int, uncore_mhz: int,
                    contention_flows: float = 0.0) -> float:
        """Noise-free latency for an access served at ``level``."""
        if level is Level.L1:
            return self.config.l1_hit_cycles
        if level is Level.L2:
            return self.config.l2_hit_cycles
        f_ghz = uncore_mhz / 1_000.0
        base = self.mean_llc_cycles(hops, uncore_mhz)
        base += (
            self.config.contention_cycles_per_flow * contention_flows / f_ghz
        )
        if level is Level.REMOTE_CACHE:
            return base + self.SNOOP_EXTRA_CYCLES / f_ghz
        if level is Level.DRAM:
            return base + self.config.dram_extra_cycles
        return base

    # -- sampling ------------------------------------------------------------

    def _noise(self, count: int) -> np.ndarray:
        """Measurement jitter: tight Gaussian core plus a sparse tail."""
        noise = self.rng.normal(0.0, self.config.noise_sigma_cycles, count)
        tail_mask = self.rng.random(count) < self.config.noise_tail_prob
        tail = self.rng.exponential(self.config.noise_tail_cycles, count)
        # ``noise + tail_mask * tail``, in place.
        tail *= tail_mask
        noise += tail
        return noise

    def sample_cycles(self, level: Level, hops: int, uncore_mhz: int,
                      contention_flows: float = 0.0) -> float:
        """One noisy timed load."""
        mean = self.mean_cycles(level, hops, uncore_mhz, contention_flows)
        return float(max(mean + self._noise(1)[0],
                         self.config.l1_hit_cycles))

    def sample_many(self, count: int, level: Level, hops: int,
                    uncore_mhz: int,
                    contention_flows: float = 0.0) -> np.ndarray:
        """A batch of noisy timed loads under identical conditions."""
        mean = self.mean_cycles(level, hops, uncore_mhz, contention_flows)
        # ``max(mean + noise, l1)``, in place.
        samples = self._noise(count)
        samples += mean
        return np.maximum(samples, self.config.l1_hit_cycles, out=samples)

    def segment_llc_sum(self, count: int, hops: int, uncore_mhz: int,
                        contention_flows: float = 0.0) -> float:
        """Sum of ``count`` noisy LLC timed loads as one statistic.

        A measurement-window segment only ever contributes its *sum* to
        the windowed average, so the per-sample draws are replaced by
        their sufficient statistic: one Gaussian for the accumulated
        jitter (variance scales with ``count``), a binomial for how many
        samples landed in the right tail and a gamma for the total tail
        mass (a sum of ``k`` exponentials is Gamma(``k``)).  Each of the
        three comes from its own stream (:data:`WINDOW_STREAMS`), never
        from ``latency-noise``.  The DES receiver calls this once per
        segment, in time order; the batch backend draws a whole
        transmission's segments at once through
        :meth:`segment_llc_sums` (over :meth:`segment_llc_means`), which
        makes the same draws.

        The per-sample floor at the L1 hit latency is dropped: it sits
        ~40 sigma below any LLC mean, so the clip probability is below
        1e-300 and the statistic is exact in practice.
        """
        # :meth:`mean_cycles` for ``Level.LLC``, inline and in the same
        # expression order (bit for bit): this runs once per segment.
        config = self.config
        f_ghz = uncore_mhz / 1_000.0
        mean = config.core_cycles + (
            config.slice_cycles + config.hop_cycles * hops) / f_ghz
        mean += config.contention_cycles_per_flow * contention_flows / f_ghz
        sigma = config.noise_sigma_cycles * math.sqrt(count)
        # ``sigma * standard_normal()`` is ``normal(0.0, sigma)`` bit for
        # bit, from the same draw, without the argument checks; the sign
        # of a zero product cannot reach ``total``.
        total = count * mean + sigma * self.jitter_rng.standard_normal()
        tails = int(self.tail_count_rng.binomial(count,
                                                 config.noise_tail_prob))
        if tails:
            total += float(self.tail_mass_rng.gamma(
                tails, config.noise_tail_cycles))
        return total

    def segment_llc_means(self, hops: int, uncore_mhz: np.ndarray,
                          contention_flows: np.ndarray) -> np.ndarray:
        """The noise-free per-sample mean :meth:`segment_llc_sum` adds up,
        of many segments, bit for bit: every float operation is the
        scalar one, elementwise.  Draws nothing, so the segments of many
        seeds sharing these constants take one call."""
        config = self.config
        f_ghz = np.asarray(uncore_mhz, dtype=np.int64) / 1_000.0
        mean = config.core_cycles + (
            config.slice_cycles + config.hop_cycles * hops) / f_ghz
        mean += (config.contention_cycles_per_flow
                 * np.asarray(contention_flows, dtype=np.float64) / f_ghz)
        return mean

    def segment_llc_sums(self, counts: np.ndarray,
                         means: np.ndarray) -> np.ndarray:
        """:meth:`segment_llc_sum` of many segments, in order, bit for bit,
        given each segment's :meth:`segment_llc_means`.

        One array draw per stream: ``standard_normal(n)``,
        ``binomial(counts, p)`` and ``gamma`` over the nonzero tail
        counts.  Each equals the scalar draws the segments would make
        one at a time and leaves its stream where they would, and every
        float operation is the scalar one, elementwise.
        """
        config = self.config
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts * means
        totals += (config.noise_sigma_cycles * np.sqrt(counts)
                   * self.jitter_rng.standard_normal(len(counts)))
        tails = self.tail_count_rng.binomial(counts, config.noise_tail_prob)
        heavy = np.flatnonzero(tails)
        totals[heavy] += self.tail_mass_rng.gamma(tails[heavy],
                                                  config.noise_tail_cycles)
        return totals

    def window_bias(self) -> float:
        """Systemic bias affecting one whole measurement window.

        Sample means over a window do not converge to the true mean on
        real hardware — interrupts, prefetcher state and TLB pressure
        shift entire windows by a fraction of a cycle.  Modelled as one
        Gaussian draw per window, from its own stream.
        """
        # ``normal(0.0, scale)`` computes ``0.0 + scale * z``; the
        # ``0.0 +`` keeps its sign of zero when the jitter is zero.
        return 0.0 + (self.config.window_jitter_cycles
                      * self.bias_rng.standard_normal())

    def window_biases(self, count: int) -> np.ndarray:
        """:meth:`window_bias` of ``count`` windows, in order, bit for
        bit: one array draw."""
        return 0.0 + (self.config.window_jitter_cycles
                      * self.bias_rng.standard_normal(count))

    # -- inversion -------------------------------------------------------------

    def frequency_from_latency(self, latency_cycles: float,
                               hops: int) -> float:
        """Invert the LLC-hit curve: estimated uncore frequency in MHz.

        This is the receiver's unprivileged frequency probe
        (Section 4.2): the average measured latency pins down the uncore
        frequency because the curve is strictly monotone.
        """
        uncore_part = self.config.slice_cycles + self.config.hop_cycles * hops
        core_part = latency_cycles - self.config.core_cycles
        if core_part <= 0:
            return float("inf")
        return uncore_part / core_part * 1_000.0

    def loop_iteration_ns(self, latency_cycles: float,
                          core_mhz: int) -> float:
        """Wall time of one fenced measurement-loop iteration (Listing 3).

        The fences and timestamp reads serialise the loop, so each
        iteration costs the access latency plus a fixed harness overhead,
        all in core cycles.
        """
        cycles = latency_cycles + self.config.fence_overhead_cycles
        return cycles * 1_000.0 / core_mhz
