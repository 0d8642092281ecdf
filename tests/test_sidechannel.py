"""Side-channel attacks: methodology, tracer, features, classifiers,
file-size profiling and (small-scale) website fingerprinting."""

import numpy as np
import pytest

from repro.platform import System
from repro.sidechannel import (
    FrequencyTraceCollector,
    KnnClassifier,
    RnnClassifier,
    RnnConfig,
    UfsAttacker,
    collect_dataset,
    run_filesize_study,
    run_fingerprinting_study,
)
from repro.sidechannel.features import (
    bin_trace,
    to_activity,
    trace_features,
)
from repro.sidechannel.fingerprint import activity_separability
from repro.sidechannel.tracer import TraceRecord, active_duration_ms
from repro.workloads import CompressionVictim

CELLS = ("elman", "gru")


class TestMethodology:
    def test_helpers_pin_frequency_at_max(self):
        system = System(seed=11)
        attacker = UfsAttacker(system)
        attacker.settle()
        assert system.uncore_frequency_mhz(0) == 2400
        attacker.shutdown()
        system.stop()

    def test_victim_activity_drops_frequency(self):
        system = System(seed=11)
        attacker = UfsAttacker(system)
        attacker.settle()
        victim = CompressionVictim("v", 2048, start_delay_ms=1)
        system.launch(victim, 0, 5)
        system.run_ms(150)
        # 3 active cores, 1 stalled: 1/3 not exceeded -> freq falls.
        assert system.uncore_frequency_mhz(0) < 2000
        system.terminate(victim)
        attacker.shutdown()
        system.stop()


class TestTracer:
    def _trace(self, freqs, step=3.0):
        times = np.arange(len(freqs)) * step
        return TraceRecord(label=0, times_ms=times,
                           freqs_mhz=np.array(freqs, dtype=float))

    def test_collector_cadence(self):
        system = System(seed=11)
        attacker = UfsAttacker(system)
        collector = FrequencyTraceCollector(attacker,
                                            sample_period_ms=3.0)
        trace = collector.collect(duration_ms=60, label=5)
        assert trace.label == 5
        assert len(trace.freqs_mhz) == 20
        attacker.shutdown()
        system.stop()

    def test_active_duration_counts_low_samples(self):
        trace = self._trace([2400, 2400, 1500, 1500, 1600, 2400])
        assert active_duration_ms(trace, 2000) == pytest.approx(9.0)

    def test_flat_trace_has_no_excursion(self):
        trace = self._trace([2400] * 10)
        assert active_duration_ms(trace) == 0.0


class TestFeatures:
    def test_bin_trace_pools_to_requested_length(self):
        pooled = bin_trace(np.arange(1000, dtype=float), 10)
        assert pooled.shape == (10,)
        assert pooled[0] < pooled[-1]

    def test_bin_trace_preserves_mean_roughly(self):
        values = np.random.default_rng(0).uniform(1400, 2400, 997)
        pooled = bin_trace(values, 16)
        assert pooled.mean() == pytest.approx(values.mean(), rel=0.02)

    def test_activity_mapping_inverts_frequency(self):
        activity = to_activity(np.array([2400.0, 1400.0, 1900.0]))
        assert activity[0] == pytest.approx(0.0)
        assert activity[1] == pytest.approx(1.0)
        assert 0.4 < activity[2] < 0.6

    def test_activity_clipped_to_unit_range(self):
        activity = to_activity(np.array([3000.0, 1000.0]))
        assert activity[0] == 0.0
        assert activity[1] == 1.0

    def test_trace_features_shape(self):
        trace = TraceRecord(
            label=1,
            times_ms=np.arange(100.0),
            freqs_mhz=np.full(100, 2000.0),
        )
        assert trace_features(trace, 25).shape == (25,)


class TestClassifiers:
    def _toy_problem(self, n_classes=4, n_per_class=6, steps=32,
                     noise=0.05):
        rng = np.random.default_rng(0)
        prototypes = rng.random((n_classes, steps))
        features, labels = [], []
        for label in range(n_classes):
            for _ in range(n_per_class):
                features.append(
                    prototypes[label] + rng.normal(0, noise, steps)
                )
                labels.append(label)
        return np.array(features), np.array(labels)

    def test_knn_solves_toy_problem(self):
        x, y = self._toy_problem()
        knn = KnnClassifier(k=3)
        knn.fit(x, y)
        assert (knn.predict(x) == y).mean() == 1.0

    def test_knn_scores_normalised(self):
        x, y = self._toy_problem()
        knn = KnnClassifier(k=3)
        knn.fit(x, y)
        scores = knn.predict_scores(x[:5])
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_knn_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            KnnClassifier().predict(np.zeros((1, 4)))

    @pytest.mark.parametrize("cell, hidden_dim",
                             [("elman", 16), ("gru", 12)], ids=CELLS)
    def test_rnn_learns_toy_problem(self, cell, hidden_dim):
        x, y = self._toy_problem()
        model = RnnClassifier(RnnConfig(
            num_classes=4, hidden_dim=hidden_dim, epochs=120, seed=0,
            cell=cell,
        ))
        history = model.fit(x, y)
        assert history.accuracy[-1] > 0.9
        assert history.loss[-1] < history.loss[0]

    @pytest.mark.parametrize("cell", CELLS)
    def test_rnn_scores_are_probabilities(self, cell):
        x, y = self._toy_problem()
        model = RnnClassifier(RnnConfig(
            num_classes=4, hidden_dim=8, epochs=10, seed=0, cell=cell
        ))
        model.fit(x, y)
        scores = model.predict_scores(x[:3])
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert (scores >= 0).all()

    @pytest.mark.parametrize("cell", CELLS)
    def test_rnn_rejects_bad_labels(self, cell):
        model = RnnClassifier(RnnConfig(num_classes=2, epochs=1,
                                        cell=cell))
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, 8)), np.array([0, 5]))

    @pytest.mark.parametrize("cell", CELLS)
    def test_rnn_rejects_label_count_mismatch(self, cell):
        model = RnnClassifier(RnnConfig(num_classes=2, epochs=1,
                                        cell=cell))
        for labels in ([0, 1, 0, 1, 0, 1], [0, 1]):
            with pytest.raises(ValueError, match="labels"):
                model.fit(np.zeros((4, 8)), np.array(labels))
        assert model.history.loss == []

    @pytest.mark.parametrize("cell", CELLS)
    def test_rnn_rejects_wrong_input_dim(self, cell):
        model = RnnClassifier(RnnConfig(num_classes=2, input_dim=1,
                                        epochs=1, cell=cell))
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 8, 3)))

    @pytest.mark.parametrize("cell", CELLS)
    def test_rnn_deterministic_training(self, cell):
        x, y = self._toy_problem()
        config = RnnConfig(num_classes=4, hidden_dim=8, epochs=10,
                           seed=5, cell=cell)
        a = RnnClassifier(config)
        b = RnnClassifier(config)
        assert a.fit(x, y) == b.fit(x, y)
        assert np.array_equal(a.predict_scores(x), b.predict_scores(x))

    @pytest.mark.parametrize("cell", CELLS)
    def test_rnn_bptt_matches_finite_differences(self, cell):
        """Numeric check of the shared loss-and-gradients routine at
        every element of every parameter tensor."""
        model = RnnClassifier(RnnConfig(input_dim=1, hidden_dim=4,
                                        num_classes=3, epochs=1, seed=0,
                                        cell=cell))
        rng = np.random.default_rng(1)
        batch = model._as_batch(rng.random((3, 5, 1)))
        y = np.array([0, 1, 2])

        def loss():
            return model._loss_and_grads(batch, y)[0] / len(y)

        _, _, grads = model._loss_and_grads(batch, y)
        assert grads.keys() == model.params.keys()
        eps = 1e-6
        for name, param in model.params.items():
            for index in np.ndindex(param.shape):
                original = param[index]
                param[index] = original + eps
                loss_plus = loss()
                param[index] = original - eps
                loss_minus = loss()
                param[index] = original
                numeric = (loss_plus - loss_minus) / (2 * eps)
                analytic = grads[name][index]
                denominator = abs(numeric) + abs(analytic) + 1e-12
                assert abs(numeric - analytic) / denominator < 1e-5, (
                    name, index
                )

    def test_rnn_config_validation(self):
        for bad in (dict(hidden_dim=0), dict(batch_size=0),
                    dict(batch_size=-1), dict(grad_clip=0.0),
                    dict(grad_clip=-1.0), dict(cell="lstm")):
            with pytest.raises(ValueError):
                RnnConfig(**bad).validate()


class TestFileSizeAttack:
    def test_300kb_granularity_high_accuracy(self):
        """The headline Section 5 number: >99 % at 300 KB granularity
        (our smaller sweep should be perfect)."""
        study = run_filesize_study(
            sizes_kb=tuple(300.0 * s for s in range(1, 8)),
            trials=2,
            seed=12,
        )
        assert study.accuracy >= 0.95

    def test_calibration_curve_monotone(self):
        study = run_filesize_study(
            sizes_kb=(600.0, 1800.0, 3000.0), trials=1, seed=13
        )
        metrics = [m for _, m in study.calibration]
        assert metrics == sorted(metrics)


class TestFingerprinting:
    @pytest.fixture(scope="class")
    def dataset(self):
        return collect_dataset(num_sites=8, train_visits=3,
                               test_visits=2, trace_ms=3000, seed=14)

    def test_traces_carry_site_signal(self, dataset):
        assert activity_separability(dataset) > 1.5

    def test_rnn_identifies_sites(self, dataset):
        result = run_fingerprinting_study(
            dataset,
            rnn_config=RnnConfig(num_classes=8, epochs=400, seed=14),
        )
        assert result.top1 >= 0.5
        assert result.top5 >= result.top1

    def test_dataset_split_sizes(self, dataset):
        assert len(dataset.train) == 24
        assert len(dataset.test) == 16
        labels = {t.label for t in dataset.test}
        assert labels == set(range(8))
