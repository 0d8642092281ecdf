"""UF-variation: the paper's primary contribution (Section 4).

The first covert channel exploiting Uncore Frequency Scaling.  The
sender encodes bits into the *direction of change* of the uncore
frequency — stall a core (or blast heavy LLC traffic) to drive it up
for a "1", go quiet to let it decay for a "0" — and the receiver reads
the direction from timed LLC accesses, because the access latency is
strictly monotone in the uncore frequency (Section 4.2).

Public surface:

* :class:`UncoreFrequencyProbe` — the unprivileged frequency sensor.
* :class:`UFSender` / :class:`UFReceiver` — the two channel endpoints.
* :class:`UFVariationChannel` — wiring + Algorithm 1 transmission.
* :class:`ExperimentContext` — the validated platform/seed/workers/
  backend bundle every experiment runner builds from its keywords.
* :func:`capacity_sweep` — the Figure 10 evaluation, returning a
  :class:`SweepResult`.
* :func:`capacity_under_stress` — the Table 2 reliability study.
"""

from .context import ExperimentContext
from .protocol import ChannelConfig, ChannelEndpoints, decode_bit
from .probe import UncoreFrequencyProbe
from .sender import SenderMode, UFSender
from .receiver import UFReceiver
from .channel import TransmissionResult, UFVariationChannel
from .evaluation import (
    CapacityPoint,
    SweepResult,
    capacity_sweep,
    measure_capacity,
)
from .reliability import StressCapacityResult, capacity_under_stress
from .framing import (
    DecodedFrame,
    ReliableTransfer,
    decode_frame,
    encode_frame,
    send_message,
    send_message_reliable,
)

__all__ = [
    "CapacityPoint",
    "DecodedFrame",
    "ExperimentContext",
    "ReliableTransfer",
    "ChannelConfig",
    "ChannelEndpoints",
    "SenderMode",
    "StressCapacityResult",
    "SweepResult",
    "TransmissionResult",
    "UFReceiver",
    "UFSender",
    "UFVariationChannel",
    "UncoreFrequencyProbe",
    "capacity_sweep",
    "capacity_under_stress",
    "decode_bit",
    "decode_frame",
    "encode_frame",
    "measure_capacity",
    "send_message",
    "send_message_reliable",
]
