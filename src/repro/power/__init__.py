"""Power management: UFS, cross-socket coupling, PC-states, energy.

``UfsPmu`` implements the uncore frequency scaling control law
reconstructed in Section 3.5 of the paper:

* 100 MHz operating points, evaluated every ~10 ms;
* demand-driven targets from LLC and interconnect utilisation (Fig. 3);
* the stalled-core rule — more than 1/3 of active cores stalled pins
  the uncore at the maximum frequency (Fig. 4);
* fast (per-period) stepping only toward the maximum frequency, slow
  stepping for light demand (Section 4.3.1), fast stepping down;
* idle dither between 1.4 and 1.5 GHz (Fig. 3's "None" row);
* cross-socket coupling — a follower trails the leading socket by one
  100 MHz step and one evaluation period (Fig. 7).
"""

from .timeline import FrequencyTimeline
from .ufs import SocketSnapshot, UfsPmu
from .cstates import PackageCStateManager
from .energy import EnergyMeter

__all__ = [
    "EnergyMeter",
    "FrequencyTimeline",
    "PackageCStateManager",
    "SocketSnapshot",
    "UfsPmu",
]
