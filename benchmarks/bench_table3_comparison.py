"""Table 3 — the full uncore-covert-channel comparison matrix.

The paper's eleven channels x eight scenarios (baseline, three
withheld prerequisites, three defenses, background stress).  Every cell
is measured by actually deploying the channel on the configured
platform; the check/cross matrix must match the paper's Table 3
exactly.
"""

from repro.analysis import format_table
from repro.channels import ALL_CHANNELS, SCENARIOS, evaluate_channel
from repro.channels.comparison import PAPER_TABLE3

from _harness import report, run_once


def test_table3_full_matrix(benchmark):
    def experiment():
        # The whole matrix is a grid of independent seeded trials;
        # REPRO_WORKERS > 1 evaluates cells in parallel processes with
        # bit-identical cells.
        from repro.channels.comparison import comparison_matrix
        from repro.config import RunnerConfig

        cells = comparison_matrix(
            bits=20, seed=1,
            workers=RunnerConfig.from_env().workers,
        )
        matrix = {channel_cls.name: {} for channel_cls in ALL_CHANNELS}
        for cell in cells:
            matrix[cell.channel][cell.scenario] = cell
        return matrix

    matrix = run_once(benchmark, experiment)

    header = ["Channel"] + [s.label for s in SCENARIOS]
    rows = []
    mismatches = []
    for channel_cls in ALL_CHANNELS:
        name = channel_cls.name
        row = [name]
        for scenario in SCENARIOS:
            cell = matrix[name][scenario.key]
            mark = "yes" if cell.functional else "no"
            expected = PAPER_TABLE3[name].get(scenario.key)
            if expected is not None and expected != cell.functional:
                mark += "!"
                mismatches.append((name, scenario.key))
            row.append(mark)
        rows.append(row)
    text = format_table(
        header,
        rows,
        title=(
            "Table 3: channel functionality by scenario "
            "('!' marks disagreement with the paper; "
            f"mismatches: {len(mismatches)})"
        ),
    )
    report("table3_comparison", text)
    assert not mismatches, f"cells disagree with Table 3: {mismatches}"


def test_table3_uf_variation_unique_resilience(benchmark):
    """The paper's punchline: UF-variation and Uncore-idle are the only
    channels alive under every defense, and only UF-variation also
    survives background noise."""

    def experiment():
        survivors = {}
        defense_keys = ("random_llc", "fine_partition",
                        "coarse_partition")
        for channel_cls in ALL_CHANNELS:
            alive = all(
                evaluate_channel(
                    channel_cls, scenario, bits=16, seed=2
                ).functional
                for scenario in SCENARIOS
                if scenario.key in defense_keys
            )
            survivors[channel_cls.name] = alive
        return survivors

    survivors = run_once(benchmark, experiment)
    alive = sorted(name for name, ok in survivors.items() if ok)
    report(
        "table3_defense_survivors",
        "channels functional under ALL partitioning/randomization "
        f"defenses: {', '.join(alive)} "
        "(paper: Uncore-idle and UF-variation only)",
    )
    assert set(alive) == {"UF-variation", "Uncore-idle"}
