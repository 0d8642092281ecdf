"""Synthetic website activity and the browsing victim (Figure 12).

The paper fingerprints 100 real websites from uncore frequency traces.
We cannot load real pages, so each site gets a deterministic *activity
signature*: the time series of CPU-busy bursts a browser produces while
fetching, parsing and rendering that page.  Signatures are generated
from a per-site seeded RNG, so the same library is reproducible across
training and attack phases, while per-visit jitter (timing noise,
network variance) makes every visit a distinct sample — the learning
problem has the same shape as the paper's.

Signature structure, patterned after page-load waterfalls:

* an initial navigation burst (HTML fetch + parse);
* a per-site number of resource bursts with per-site duration and gap
  distributions (scripts, images, style recalculation);
* a final long-tail of idle punctuated by script timers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cpu.activity import ActivityProfile
from ..errors import ConfigError
from ..rng import child_rng
from ..units import ms
from .base import PhasedWorkload

#: Busy-phase cache traffic of the rendering browser.
_BUSY_RATE_PER_US = 12.0
_BUSY_STALL = 0.25


@dataclass(frozen=True)
class Burst:
    """One busy interval of a page load."""

    start_ms: float
    duration_ms: float
    intensity: float  # 0..1, scales cache traffic


@dataclass(frozen=True)
class WebsiteSignature:
    """A site's characteristic activity pattern."""

    site_id: int
    bursts: tuple[Burst, ...]
    total_ms: float


class WebsiteLibrary:
    """Deterministic signatures for ``num_sites`` synthetic websites."""

    def __init__(self, num_sites: int = 100, *, seed: int = 0,
                 trace_ms: float = 5_000.0) -> None:
        if num_sites <= 0:
            raise ConfigError(f"need at least one site, got {num_sites}")
        self.num_sites = num_sites
        self.seed = seed
        self.trace_ms = trace_ms
        self._cache: dict[int, WebsiteSignature] = {}

    def signature(self, site_id: int) -> WebsiteSignature:
        """The (cached) signature of one site."""
        if not 0 <= site_id < self.num_sites:
            raise ValueError(f"no such site {site_id}")
        if site_id not in self._cache:
            self._cache[site_id] = self._generate(site_id)
        return self._cache[site_id]

    def _generate(self, site_id: int) -> WebsiteSignature:
        rng = child_rng(self.seed, f"website-{site_id}")
        bursts: list[Burst] = []
        # Navigation burst: every page starts busy.
        nav_ms = float(rng.uniform(120.0, 600.0))
        bursts.append(Burst(0.0, nav_ms, float(rng.uniform(0.7, 1.0))))
        cursor = nav_ms + float(rng.uniform(30.0, 250.0))
        # Per-site distributions for the resource-loading phase.
        n_bursts = int(rng.integers(4, 18))
        burst_scale = float(rng.uniform(40.0, 400.0))
        gap_scale = float(rng.uniform(30.0, 350.0))
        for _ in range(n_bursts):
            duration = float(rng.exponential(burst_scale)) + 20.0
            intensity = float(rng.uniform(0.4, 1.0))
            if cursor + duration > self.trace_ms:
                break
            bursts.append(Burst(cursor, duration, intensity))
            cursor += duration + float(rng.exponential(gap_scale)) + 15.0
        # Long tail: periodic script timers on some sites.
        if rng.random() < 0.5 and cursor < self.trace_ms - 400.0:
            period = float(rng.uniform(250.0, 900.0))
            tick_ms = float(rng.uniform(20.0, 90.0))
            while cursor + tick_ms < self.trace_ms:
                bursts.append(Burst(cursor, tick_ms, 0.5))
                cursor += period
        return WebsiteSignature(site_id, tuple(bursts), self.trace_ms)


def _busy_profile(intensity: float) -> ActivityProfile:
    return ActivityProfile(
        active=True,
        llc_rate_per_us=_BUSY_RATE_PER_US * intensity,
        mean_hops=1.0,
        stall_ratio=_BUSY_STALL,
    )


def login_variant(signature: WebsiteSignature,
                  success: bool) -> WebsiteSignature:
    """The site's post-login activity, by outcome (Figure 12's hotcrp
    panel: the attacker "is able to differentiate between successful
    and unsuccessful login attempts").

    A successful login triggers the full dashboard render — a long
    burst train after the form submit; a failed one bounces straight
    back to the (cached) login page with a single short error-render
    blip.
    """
    submit_ms = signature.bursts[-1].start_ms + (
        signature.bursts[-1].duration_ms
    )
    cursor = submit_ms + 180.0  # server round trip
    extra: list[Burst] = []
    if success:
        for duration, gap in ((320.0, 60.0), (180.0, 90.0),
                              (240.0, 70.0), (140.0, 0.0)):
            extra.append(Burst(cursor, duration, 0.9))
            cursor += duration + gap
    else:
        extra.append(Burst(cursor, 70.0, 0.6))
        cursor += 70.0
    total = max(signature.total_ms, cursor + 100.0)
    return WebsiteSignature(
        site_id=signature.site_id,
        bursts=signature.bursts + tuple(extra),
        total_ms=total,
    )


class BrowserVictim(PhasedWorkload):
    """A victim visiting one website, with per-visit jitter.

    ``visit_rng`` perturbs burst timing and length (±8 % durations,
    small start shifts) — different visits to the same site produce
    similar but not identical traces.
    """

    def __init__(self, name: str, signature: WebsiteSignature,
                 visit_rng: np.random.Generator, *,
                 domain: int = 0) -> None:
        self.signature = signature
        phases = self._phases_from(signature, visit_rng)
        super().__init__(name, phases, repeat=False, domain=domain)

    @staticmethod
    def _phases_from(signature: WebsiteSignature,
                     rng: np.random.Generator) -> list[tuple]:
        idle = ActivityProfile()
        phases: list[tuple] = []
        cursor = 0.0
        for burst in signature.bursts:
            start = max(
                burst.start_ms + float(rng.normal(0.0, 12.0)), cursor
            )
            duration = burst.duration_ms * float(
                1.0 + rng.normal(0.0, 0.08)
            )
            duration = max(duration, 5.0)
            if start > cursor:
                phases.append((ms(start - cursor), idle))
            intensity = min(
                max(burst.intensity + float(rng.normal(0.0, 0.05)), 0.1),
                1.0,
            )
            phases.append((ms(duration), _busy_profile(intensity)))
            cursor = start + duration
        if cursor < signature.total_ms:
            phases.append((ms(signature.total_ms - cursor), idle))
        return phases
