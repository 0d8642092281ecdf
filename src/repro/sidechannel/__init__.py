"""UFS-based side-channel attacks (Section 5).

The attack methodology: the attacker runs one *stalling* helper thread
and one *non-stalling* helper thread.  With the victim idle, the
stalled fraction of active cores exceeds 1/3 and the uncore pins at
``freq_max``; when the victim's core becomes active (but not stalled),
the fraction drops below 1/3 and the frequency falls.  The uncore
frequency trace — collected unprivileged through the latency probe —
therefore mirrors the victim's core activity.

Two attacks are built on this observable:

* **file-size profiling** — the busy duration of a compression job
  reveals the input size at 300 KB granularity (Figure 11);
* **website fingerprinting** — an RNN classifier recognises which of
  100 sites a browser victim is loading from a 5 s trace (Figure 12;
  82.18 % top-1 / 91.48 % top-5 in the paper).  ``RnnClassifier``
  trains the paper's Elman cell; ``KnnClassifier`` is the
  non-recurrent baseline.
"""

from .methodology import AttackHelpers, UfsAttacker
from .tracer import FrequencyTraceCollector, TraceRecord
from .filesize import (
    FileSizeProfiler,
    FileSizeStudy,
    ProfiledRun,
    run_filesize_study,
)
from .features import bin_trace, normalize_traces
from .rnn import RnnClassifier, RnnConfig
from .knn import KnnClassifier
from .fingerprint import (
    FingerprintDataset,
    FingerprintResult,
    collect_dataset,
    run_fingerprinting_study,
)

__all__ = [
    "AttackHelpers",
    "FileSizeProfiler",
    "FileSizeStudy",
    "ProfiledRun",
    "FingerprintDataset",
    "FingerprintResult",
    "FrequencyTraceCollector",
    "KnnClassifier",
    "RnnClassifier",
    "RnnConfig",
    "TraceRecord",
    "UfsAttacker",
    "bin_trace",
    "collect_dataset",
    "normalize_traces",
    "run_filesize_study",
    "run_fingerprinting_study",
]
