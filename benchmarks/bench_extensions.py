"""Extensions beyond the paper's evaluation.

Two studies the paper motivates but does not run:

* **reliable messaging** — Hamming-coded frames over the raw channel:
  net goodput after FEC at the noisy high-rate operating point;
* **classifier ablation** — Elman RNN vs GRU vs kNN on the same
  fingerprinting traces.
"""

from dataclasses import replace

from repro.analysis import format_table
from repro.core import ChannelConfig, UFVariationChannel
from repro.core.framing import encode_frame, send_message_reliable
from repro.platform import System
from repro.sidechannel import collect_dataset
from repro.sidechannel.features import normalize_traces
from repro.sidechannel.rnn import RnnClassifier, RnnConfig
from repro.sidechannel.knn import KnnClassifier
from repro.analysis.stats import top_k_accuracy
from repro.units import ms

from _harness import report, run_once


def test_ext_framed_messaging(benchmark):
    """Hamming(7,4)-framed transfer at a noisy operating point."""

    def experiment():
        system = System(seed=23)
        channel = UFVariationChannel(
            system, config=ChannelConfig(interval_ns=ms(21))
        )
        payload = b"uncore encore"
        transfer = send_message_reliable(channel, payload,
                                         max_attempts=4)
        coded_bits = len(encode_frame(payload))
        raw_rate = channel.config.raw_rate_bps
        channel.shutdown()
        system.stop()
        return transfer, payload, coded_bits, raw_rate

    transfer, payload, coded_bits, raw_rate = run_once(benchmark,
                                                       experiment)
    decoded = transfer.frame
    goodput = (
        8 * len(payload) / (coded_bits * transfer.attempts) * raw_rate
    )
    report(
        "ext_framed_messaging",
        (
            f"sent {payload!r} as {coded_bits} coded+interleaved bits "
            f"at {raw_rate:.1f} bps raw, "
            f"{transfer.attempts} ARQ attempt(s)\n"
            f"received {decoded.payload!r} "
            f"(checksum {'ok' if decoded.checksum_ok else 'BAD'}, "
            f"{decoded.corrected_bits} bits FEC-corrected)\n"
            f"net goodput: {goodput:.1f} bit/s"
        ),
    )
    assert transfer.delivered
    assert decoded.payload == payload


def test_ext_classifier_ablation(benchmark):
    def experiment():
        dataset = collect_dataset(
            num_sites=16, train_visits=3, test_visits=2,
            trace_ms=4_000.0, seed=14,
        )
        train_x, train_y = normalize_traces(list(dataset.train), 96)
        test_x, test_y = normalize_traces(list(dataset.test), 96)
        config = RnnConfig(num_classes=16, epochs=400, seed=14)
        results = {}
        rnn = RnnClassifier(config)
        rnn.fit(train_x, train_y)
        results["Elman RNN"] = top_k_accuracy(
            rnn.predict_scores(test_x), test_y, 1
        )
        gru = RnnClassifier(replace(config, cell="gru"))
        gru.fit(train_x, train_y)
        results["GRU"] = top_k_accuracy(
            gru.predict_scores(test_x), test_y, 1
        )
        knn = KnnClassifier(k=3, num_classes=16)
        knn.fit(train_x, train_y)
        results["kNN"] = top_k_accuracy(
            knn.predict_scores(test_x), test_y, 1
        )
        return results

    results = run_once(benchmark, experiment)
    rows = [[name, f"{100 * acc:.1f}"] for name, acc in
            results.items()]
    report(
        "ext_classifier_ablation",
        format_table(
            ["classifier", "top-1 (%)"], rows,
            title="Fingerprinting classifier ablation (16 sites)",
        ),
    )
    assert all(acc >= 0.5 for acc in results.values())
