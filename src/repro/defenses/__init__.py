"""Countermeasures against UFS channels (Section 6.1).

Four defenses, with the paper's conclusions:

* **fixed frequency** — min == max in ``UNCORE_RATIO_LIMIT`` disables
  UFS and kills the channel, but costs either energy (fixed high,
  ~7 % extra on analytics workloads) or performance (fixed low);
* **randomized frequency** — re-fix a random operating point every
  epoch: secure with a better energy/performance balance;
* **restricted range** — a narrow UFS window blunts the *side channel*
  (traces become hard to distinguish) but does NOT stop UF-variation:
  the 10 ms / 100 MHz dynamics inside the window are unchanged;
* **busy uncore** — a background thread pinning the uncore at
  ``freq_max`` removes the modulation entirely.
"""

from .countermeasures import (
    BusyUncoreDefense,
    RandomizedFrequencyDefense,
    apply_fixed_frequency,
    apply_restricted_range,
)
from .evaluation import (
    DefenseReport,
    analytics_energy_overhead,
    channel_under_defense,
    evaluate_defenses,
)

__all__ = [
    "BusyUncoreDefense",
    "DefenseReport",
    "RandomizedFrequencyDefense",
    "analytics_energy_overhead",
    "apply_fixed_frequency",
    "apply_restricted_range",
    "channel_under_defense",
    "evaluate_defenses",
]
