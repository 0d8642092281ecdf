"""Side-channel attacks: methodology, tracer, features, classifiers,
file-size profiling and (small-scale) website fingerprinting."""

import numpy as np
import pytest

from repro.errors import ConfigError
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
    normalize_traces,
    to_activity,
    trace_features,
)
from repro.sidechannel.fingerprint import activity_separability
from repro.sidechannel.tracer import TraceRecord, active_duration_ms
from repro.workloads import CompressionVictim


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

    @pytest.mark.parametrize("period_ms", [0.0, -3.0, 1e-7])
    def test_collector_rejects_periods_under_one_ns(self, period_ms):
        """A zero period sampled back to back: 7,053 samples in 5 ms."""
        with pytest.raises(ConfigError):
            FrequencyTraceCollector(None, sample_period_ms=period_ms)

    def test_active_duration_counts_low_samples(self):
        trace = self._trace([2400, 2400, 1500, 1500, 1600, 2400])
        assert active_duration_ms(trace, 2000) == pytest.approx(9.0)

    def test_flat_trace_has_no_excursion(self):
        trace = self._trace([2400] * 10)
        assert active_duration_ms(trace) == 0.0


def _bin_trace_oracle(freqs_mhz, num_bins):
    """The per-bin loop ``bin_trace`` replaced: each bin's slice mean."""
    freqs = np.asarray(freqs_mhz, dtype=np.float64)
    if freqs.size == 0:
        return np.zeros(num_bins)
    edges = np.linspace(0, freqs.size, num_bins + 1).astype(int)
    pooled = np.empty(num_bins)
    for i in range(num_bins):
        lo, hi = edges[i], max(edges[i + 1], edges[i] + 1)
        pooled[i] = freqs[lo:min(hi, freqs.size)].mean() if lo < (
            freqs.size
        ) else freqs[-1]
    return pooled


_BIN_TRACE_SIZES = (*range(300), 1667, 1700, 5000, 20000)


class TestFeatures:
    @pytest.mark.parametrize("num_bins", [1, 7, 96, 128])
    def test_bin_trace_matches_the_per_bin_loop_bit_for_bit(self, num_bins):
        rng = np.random.default_rng(num_bins)
        for size in _BIN_TRACE_SIZES:
            freqs = rng.uniform(1400.0, 2400.0, size)
            pooled = bin_trace(freqs, num_bins)
            expected = _bin_trace_oracle(freqs, num_bins)
            assert pooled.tobytes() == expected.tobytes(), size

    def test_bin_trace_pools_to_requested_length(self):
        pooled = bin_trace(np.arange(1000, dtype=float), 10)
        assert pooled.shape == (10,)
        assert pooled[0] < pooled[-1]

    def test_bin_trace_preserves_mean_roughly(self):
        values = np.random.default_rng(0).uniform(1400, 2400, 997)
        pooled = bin_trace(values, 16)
        assert pooled.mean() == pytest.approx(values.mean(), rel=0.02)

    @pytest.mark.parametrize("num_bins", [0, -1])
    def test_bin_trace_rejects_fewer_than_one_bin(self, num_bins):
        with pytest.raises(ConfigError):
            bin_trace(np.arange(10, dtype=float), num_bins)

    @pytest.mark.parametrize("num_bins", [0, -1])
    def test_normalize_rejects_fewer_than_one_bin(self, num_bins):
        trace = TraceRecord(label=0, times_ms=np.arange(4) * 3.0,
                            freqs_mhz=np.full(4, 2400.0))
        with pytest.raises(ConfigError):
            normalize_traces([trace], num_bins)

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

    def test_rnn_learns_toy_problem(self):
        x, y = self._toy_problem()
        model = RnnClassifier(RnnConfig(
            num_classes=4, hidden_dim=16, epochs=120, seed=0,
        ))
        history = model.fit(x, y)
        assert history.accuracy[-1] > 0.9
        assert history.loss[-1] < history.loss[0]

    def test_rnn_scores_are_probabilities(self):
        x, y = self._toy_problem()
        model = RnnClassifier(RnnConfig(
            num_classes=4, hidden_dim=8, epochs=10, seed=0
        ))
        model.fit(x, y)
        scores = model.predict_scores(x[:3])
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert (scores >= 0).all()

    def test_rnn_rejects_bad_labels(self):
        model = RnnClassifier(RnnConfig(num_classes=2, epochs=1))
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, 8)), np.array([0, 5]))

    def test_rnn_rejects_label_count_mismatch(self):
        model = RnnClassifier(RnnConfig(num_classes=2, epochs=1))
        for labels in ([0, 1, 0, 1, 0, 1], [0, 1]):
            with pytest.raises(ValueError, match="labels"):
                model.fit(np.zeros((4, 8)), np.array(labels))
        assert model.history.loss == []

    def test_rnn_rejects_wrong_input_dim(self):
        model = RnnClassifier(RnnConfig(num_classes=2, input_dim=1,
                                        epochs=1))
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 8, 3)))

    def test_rnn_deterministic_training(self):
        x, y = self._toy_problem()
        config = RnnConfig(num_classes=4, hidden_dim=8, epochs=10,
                           seed=5)
        a = RnnClassifier(config)
        b = RnnClassifier(config)
        assert a.fit(x, y) == b.fit(x, y)
        assert np.array_equal(a.predict_scores(x), b.predict_scores(x))

    def test_rnn_bptt_matches_finite_differences(self):
        """Numeric check of the shared loss-and-gradients routine at
        every element of every parameter tensor."""
        model = RnnClassifier(RnnConfig(input_dim=1, hidden_dim=4,
                                        num_classes=3, epochs=1, seed=0))
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
                    dict(grad_clip=-1.0)):
            with pytest.raises(ValueError):
                RnnConfig(**bad).validate()

    @pytest.mark.parametrize("bad", [
        dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
        dict(grad_clip=float("nan")), dict(grad_clip=float("inf")),
        dict(learning_rate=True), dict(epochs=2.5), dict(hidden_dim=2.0),
        dict(num_classes=3.0), dict(batch_size=True), dict(input_dim=False),
    ], ids=repr)
    def test_rnn_config_rejects_non_finite_and_non_integer(self, bad):
        """Each of these once reached ``fit``: NaN weights, clipping
        silently off, or a ``TypeError`` deep in training."""
        with pytest.raises(ValueError):
            RnnConfig(**bad).validate()
        with pytest.raises(ValueError):
            RnnClassifier(RnnConfig(**bad))

    def test_rnn_config_accepts_numpy_scalars(self):
        RnnConfig(hidden_dim=np.int64(8), epochs=np.int32(2),
                  learning_rate=np.float32(0.01), grad_clip=1).validate()


class _ElmanOracle:
    """The per-step Elman step/backward pair the stacked trainer
    replaced: one cache tuple and three gradient updates per step."""

    @staticmethod
    def step(p, x, h_prev):
        h = np.tanh(x @ p["w_x"] + h_prev @ p["w_h"] + p["b_h"])
        return h, (h_prev, h)

    @staticmethod
    def backward(p, grads, x, grad_h, cache):
        h_prev, h = cache
        pre = grad_h * (1.0 - h ** 2)
        grads["w_x"] += x.T @ pre
        grads["b_h"] += pre.sum(axis=0)
        grads["w_h"] += h_prev.T @ pre
        return pre @ p["w_h"].T


class _PerStepRnn(RnnClassifier):
    """``RnnClassifier`` trained through the per-step oracle cell:
    a forward loop caching every step and a BPTT loop accumulating
    each weight gradient one step at a time, last step first."""

    def _loss_and_grads(self, batch, labels, ws=None):
        n, steps, _ = batch.shape
        h = np.zeros((n, self.config.hidden_dim))
        hiddens = np.empty((steps, n, self.config.hidden_dim))
        caches = []
        for t in range(steps):
            h, cache = _ElmanOracle.step(self.params, batch[:, t, :], h)
            hiddens[t] = h
            caches.append(cache)
        pooled = hiddens.mean(axis=0)
        logits = pooled @ self.params["w_o"] + self.params["b_o"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).sum())
        correct = int((logits.argmax(axis=1) == labels).sum())
        grad_logits = probs.copy()
        grad_logits[np.arange(n), labels] -= 1.0
        grad_logits /= n
        grads = {name: np.zeros_like(param)
                 for name, param in self.params.items()}
        grads["w_o"] = pooled.T @ grad_logits
        grads["b_o"] = grad_logits.sum(axis=0)
        grad_pooled = grad_logits @ self.params["w_o"].T / steps
        grad_h = np.zeros((n, self.config.hidden_dim))
        for t in range(steps - 1, -1, -1):
            grad_h = _ElmanOracle.backward(
                self.params, grads, batch[:, t, :], grad_h + grad_pooled,
                caches[t])
        return loss, correct, grads


class _AdamOracle:
    """Adam state for one tensor, as the trainer kept one per tensor
    before its parameters became views into one flat vector."""

    def __init__(self, param):
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self.t = 0

    def step(self, param, grad, lr):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        self.m *= beta1
        self.m += (1 - beta1) * grad
        self.v *= beta2
        self.v += (1 - beta2) * grad * grad
        m_hat = self.m / (1 - beta1**self.t)
        v_hat = self.v / (1 - beta2**self.t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _per_tensor_adam_fit(model, x, y):
    """``fit``'s epochs with each tensor's gradient clipped on its own
    norm and stepped by its own Adam; returns the per-epoch mean loss
    and how many gradients were clipped and how many left alone."""
    config = model.config
    batch_all = model._as_batch(x)
    n = len(y)
    opt = {name: _AdamOracle(param) for name, param in model.params.items()}
    rng = np.random.default_rng(config.seed + 1)
    losses, clipped, kept = [], 0, 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            index = order[start:start + config.batch_size]
            loss, _, grads = model._loss_and_grads(batch_all[index],
                                                   y[index])
            epoch_loss += loss
            for name, grad in grads.items():
                norm = np.linalg.norm(grad)
                if norm > config.grad_clip:
                    grad = grad * (config.grad_clip / norm)
                    clipped += 1
                else:
                    kept += 1
                opt[name].step(model.params[name], grad,
                               config.learning_rate)
        losses.append(epoch_loss / n)
    return losses, clipped, kept


class TestStackedBpttMatchesPerStepOracle:
    """The stacked trainer (input products and weight gradients formed
    once per minibatch) is bit-identical to the per-step loop."""

    GRID = [
        (d, n, steps, h)
        for d in (1, 3)
        for n in (1, 5, 64, 70)
        for steps in (1, 2, 37, 96)
        for h in (4, 64)
    ]

    @staticmethod
    def _pair(d, h, epochs=3, num_classes=3, **knobs):
        config = RnnConfig(input_dim=d, hidden_dim=h,
                           num_classes=num_classes, epochs=epochs, seed=7,
                           **knobs)
        return RnnClassifier(config), _PerStepRnn(config)

    @staticmethod
    def _data(d, n, steps, num_classes=3):
        rng = np.random.default_rng(d * 10_000 + n * 100 + steps)
        return (rng.normal(size=(n, steps, d)),
                rng.integers(0, num_classes, n))

    @pytest.mark.parametrize("d, n, steps, h", GRID)
    def test_loss_and_grads_bit_identical(self, d, n, steps, h):
        model, oracle = self._pair(d, h)
        x, y = self._data(d, n, steps)
        loss, correct, grads = model._loss_and_grads(x, y)
        want_loss, want_correct, want = oracle._loss_and_grads(x, y)
        assert loss == want_loss
        assert correct == want_correct
        assert list(grads) == list(want)
        for name in want:
            assert np.array_equal(grads[name], want[name]), name

    @pytest.mark.parametrize("d, n, steps, h", GRID)
    def test_fit_bit_identical(self, d, n, steps, h):
        model, oracle = self._pair(d, h)
        x, y = self._data(d, n, steps)
        assert model.fit(x, y) == oracle.fit(x, y)
        for name, want in oracle.params.items():
            assert np.array_equal(model.params[name], want), name

    @pytest.mark.parametrize("d, n, steps, h", GRID)
    def test_loss_and_grads_bit_identical_over_fig12_classes(
            self, d, n, steps, h):
        """The Fig. 12 head: one logit per site, 100 sites."""
        model, oracle = self._pair(d, h, num_classes=100)
        x, y = self._data(d, n, steps, num_classes=100)
        loss, correct, grads = model._loss_and_grads(x, y)
        want_loss, want_correct, want = oracle._loss_and_grads(x, y)
        assert (loss, correct) == (want_loss, want_correct)
        for name in want:
            assert np.array_equal(grads[name], want[name]), name

    @pytest.mark.parametrize("d, n, steps, h", GRID)
    def test_fit_bit_identical_over_fig12_classes(self, d, n, steps, h):
        model, oracle = self._pair(d, h, num_classes=100)
        x, y = self._data(d, n, steps, num_classes=100)
        assert model.fit(x, y) == oracle.fit(x, y)
        for name, want in oracle.params.items():
            assert np.array_equal(model.params[name], want), name

    @pytest.mark.parametrize("grad_clip", (1e-3, 5.0))
    @pytest.mark.parametrize("batch_size", (1, 3, 64))
    @pytest.mark.parametrize("num_classes", (2, 7))
    def test_fit_bit_identical_across_minibatches_and_clipping(
            self, num_classes, batch_size, grad_clip):
        """Single-trace and ragged minibatches (10 traces in threes),
        and a clip bound small enough to rescale every step."""
        model, oracle = self._pair(2, 8, num_classes=num_classes,
                                   batch_size=batch_size,
                                   grad_clip=grad_clip)
        x, y = self._data(2, 10, 6, num_classes=num_classes)
        assert model.fit(x, y) == oracle.fit(x, y)
        for name, want in oracle.params.items():
            assert np.array_equal(model.params[name], want), name

    @pytest.mark.parametrize("d", (1, 3))
    def test_signed_zeros_and_zero_trace_bit_identical(self, d):
        """Inputs holding +0.0 and -0.0, and one all-zero trace.  Equal
        arrays may still differ in the sign of a zero, so this compares
        bytes: a zero product must keep the per-step loop's sign."""
        model, oracle = self._pair(d, 8)
        x, y = self._data(d, 6, 12)
        x[0] = 0.0
        x[1, ::2] = -0.0
        x[2, 1::3] = 0.0
        x[3] = -0.0
        loss, correct, grads = model._loss_and_grads(x, y)
        want_loss, want_correct, want = oracle._loss_and_grads(x, y)
        assert (loss, correct) == (want_loss, want_correct)
        for name in want:
            assert grads[name].tobytes() == want[name].tobytes(), name
        assert model.fit(x, y) == oracle.fit(x, y)
        for name, param in oracle.params.items():
            assert model.params[name].tobytes() == param.tobytes(), name

    @pytest.mark.parametrize("d, num_classes", [(1, 4), (3, 100)])
    def test_flat_adam_matches_per_tensor_clip_and_adam(self, d,
                                                         num_classes):
        """One Adam step over the flat parameter vector, after each
        tensor is clipped on its own norm, is the per-tensor loop bit
        for bit, over ragged minibatches where some gradients exceed
        the clip bound and others do not."""
        model, _ = self._pair(d, 8, epochs=6, num_classes=num_classes,
                              batch_size=4, grad_clip=0.2)
        reference = RnnClassifier(model.config)
        x, y = self._data(d, 10, 12, num_classes=num_classes)
        history = model.fit(x, y)
        losses, clipped, kept = _per_tensor_adam_fit(reference, x, y)
        assert clipped and kept
        assert np.array_equal(history.loss, losses)
        for name, want in reference.params.items():
            assert np.array_equal(model.params[name], want), name

    def test_one_unit_hidden_state_bit_identical(self):
        """One hidden unit makes every gradient a one-element sum, the
        shape numpy would otherwise reduce pairwise."""
        model, oracle = self._pair(1, 1)
        x, y = self._data(1, 5, 37)
        model.fit(x, y)
        oracle.fit(x, y)
        for name, want in oracle.params.items():
            assert np.array_equal(model.params[name], want), name


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

    @pytest.mark.parametrize("trace_ms", [0.0, -5.0, float("nan")])
    def test_collection_rejects_empty_traces(self, trace_ms):
        """An empty trace bins to a constant waveform, which the
        classifier would grade as if something had been measured."""
        with pytest.raises(ConfigError):
            collect_dataset(num_sites=2, train_visits=1, test_visits=1,
                            trace_ms=trace_ms, seed=0)

    @pytest.mark.parametrize("train_visits, test_visits",
                             [(0, 1), (1, 0), (-1, 1), (1, -2)])
    def test_collection_rejects_empty_splits(self, tmp_path, train_visits,
                                             test_visits):
        """An empty split would leave the study nothing to train on or
        score; the error comes before anything is simulated or stored."""
        cache_dir = tmp_path / "store"
        with pytest.raises(ConfigError, match="visit"):
            collect_dataset(num_sites=2, train_visits=train_visits,
                            test_visits=test_visits, trace_ms=100.0,
                            seed=0, cache_dir=cache_dir)
        assert not cache_dir.exists()

    def test_dataset_split_sizes(self, dataset):
        assert len(dataset.train) == 24
        assert len(dataset.test) == 16
        labels = {t.label for t in dataset.test}
        assert labels == set(range(8))
