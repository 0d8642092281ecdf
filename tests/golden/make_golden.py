"""Regenerate the golden trace corpora.

Run after an *intentional* simulator behaviour change::

    PYTHONPATH=src python -m tests.golden.make_golden

and commit the regenerated ``tests/golden/*.uftc`` files together with
the change that moved them.
"""

from __future__ import annotations


def main() -> None:
    from repro.trace import write_corpus

    from . import (
        GOLDEN_SEED,
        golden_path,
        golden_presets,
        simulate_golden_traces,
    )

    for preset in golden_presets():
        traces = simulate_golden_traces(preset)
        path = golden_path(preset)
        count = write_corpus(
            path, traces,
            meta={"preset": preset, "seed": GOLDEN_SEED},
        )
        print(f"{path}: {count} traces, {path.stat().st_size} bytes")


if __name__ == "__main__":
    main()
