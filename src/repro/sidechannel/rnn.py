"""A recurrent classifier in pure numpy (the paper's attack model).

The paper trains an RNN on uncore-frequency traces to fingerprint
websites, reusing the model of MeshUp [57].  PyTorch is unavailable
here, so this module implements the same family from scratch:

* a recurrent cell, chosen by ``RnnConfig.cell``:

  - ``"elman"`` (the default, the paper's model):
    ``h_t = tanh(x_t W_x + h_{t-1} W_h + b_h)``;
  - ``"gru"``, the gated ablation partner (reset gate r, update gate
    z, candidate c)::

        r_t = sigmoid(x_t W_xr + h_{t-1} W_hr + b_r)
        z_t = sigmoid(x_t W_xz + h_{t-1} W_hz + b_z)
        c_t = tanh   (x_t W_xc + (r_t * h_{t-1}) W_hc + b_c)
        h_t = (1 - z_t) * h_{t-1} + z_t * c_t

* mean-pooled hidden states feeding a softmax classification head,
  shared by both cells so a comparison isolates the recurrence;
* full backpropagation through time with gradient clipping;
* Adam optimisation with minibatches.

A cell supplies only its parameter init, forward step and backward
step; the forward loop, BPTT loop and training loop are shared.
Everything is vectorised over the batch, so training on a few hundred
traces of ~100 steps takes seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class _Elman:
    """``h = tanh(x W_x + h_prev W_h + b_h)``."""

    @staticmethod
    def init(rng, d: int, h: int) -> dict[str, np.ndarray]:
        return {
            "w_x": rng.normal(0.0, 1.0 / np.sqrt(d), (d, h)),
            "w_h": rng.normal(0.0, 1.0 / np.sqrt(h), (h, h)),
            "b_h": np.zeros(h),
        }

    @staticmethod
    def step(p, x, h_prev):
        h = np.tanh(x @ p["w_x"] + h_prev @ p["w_h"] + p["b_h"])
        return h, (h_prev, h)

    @staticmethod
    def backward(p, grads, x, grad_h, cache):
        """Accumulate this step's gradients; return d loss / d h_prev."""
        h_prev, h = cache
        pre = grad_h * (1.0 - h ** 2)
        grads["w_x"] += x.T @ pre
        grads["b_h"] += pre.sum(axis=0)
        grads["w_h"] += h_prev.T @ pre
        return pre @ p["w_h"].T


class _Gru:
    """Single-layer GRU (see the module docstring for the equations)."""

    @staticmethod
    def init(rng, d: int, h: int) -> dict[str, np.ndarray]:
        params = {}
        for gate in ("r", "z", "c"):
            params[f"w_x{gate}"] = rng.normal(0, 1.0 / np.sqrt(d), (d, h))
            params[f"w_h{gate}"] = rng.normal(0, 1.0 / np.sqrt(h), (h, h))
            params[f"b_{gate}"] = np.zeros(h)
        return params

    @staticmethod
    def step(p, x, h_prev):
        r = _sigmoid(x @ p["w_xr"] + h_prev @ p["w_hr"] + p["b_r"])
        z = _sigmoid(x @ p["w_xz"] + h_prev @ p["w_hz"] + p["b_z"])
        c = np.tanh(x @ p["w_xc"] + (r * h_prev) @ p["w_hc"] + p["b_c"])
        h = (1.0 - z) * h_prev + z * c
        return h, (h_prev, r, z, c)

    @staticmethod
    def backward(p, grads, x, grad_h, cache):
        """Accumulate this step's gradients; return d loss / d h_prev."""
        h_prev, r, z, c = cache
        # h = (1 - z) h_prev + z c
        grad_z = grad_h * (c - h_prev)
        grad_c = grad_h * z
        grad_h_prev = grad_h * (1.0 - z)
        # candidate
        pre_c = grad_c * (1.0 - c**2)
        grads["w_xc"] += x.T @ pre_c
        grads["w_hc"] += (r * h_prev).T @ pre_c
        grads["b_c"] += pre_c.sum(axis=0)
        grad_rh = pre_c @ p["w_hc"].T
        grad_r = grad_rh * h_prev
        grad_h_prev += grad_rh * r
        # gates
        pre_r = grad_r * r * (1.0 - r)
        grads["w_xr"] += x.T @ pre_r
        grads["w_hr"] += h_prev.T @ pre_r
        grads["b_r"] += pre_r.sum(axis=0)
        grad_h_prev += pre_r @ p["w_hr"].T
        pre_z = grad_z * z * (1.0 - z)
        grads["w_xz"] += x.T @ pre_z
        grads["w_hz"] += h_prev.T @ pre_z
        grads["b_z"] += pre_z.sum(axis=0)
        grad_h_prev += pre_z @ p["w_hz"].T
        return grad_h_prev


_CELLS = {"elman": _Elman, "gru": _Gru}


@dataclass(frozen=True)
class RnnConfig:
    """Architecture and training hyperparameters."""

    input_dim: int = 1
    hidden_dim: int = 64
    num_classes: int = 100
    learning_rate: float = 1e-2
    epochs: int = 300
    batch_size: int = 64
    grad_clip: float = 5.0
    seed: int = 0
    cell: str = "elman"

    def validate(self) -> None:
        if min(self.input_dim, self.hidden_dim, self.num_classes) <= 0:
            raise ValueError("model dimensions must be positive")
        if min(self.learning_rate, self.epochs, self.batch_size,
               self.grad_clip) <= 0:
            raise ValueError("training hyperparameters must be positive")
        if self.cell not in _CELLS:
            raise ValueError(
                f"unknown cell {self.cell!r} (expected one of "
                f"{', '.join(_CELLS)})"
            )


@dataclass
class _Adam:
    """Adam state for one parameter tensor."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, param: np.ndarray) -> "_Adam":
        return cls(np.zeros_like(param), np.zeros_like(param))

    def step(self, param: np.ndarray, grad: np.ndarray,
             lr: float) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        self.m = beta1 * self.m + (1 - beta1) * grad
        self.v = beta2 * self.v + (1 - beta2) * grad * grad
        m_hat = self.m / (1 - beta1**self.t)
        v_hat = self.v / (1 - beta2**self.t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class _History:
    """Per-epoch training metrics."""

    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)


class RnnClassifier:
    """Recurrent cell + softmax head, trained with BPTT/Adam."""

    def __init__(self, config: RnnConfig) -> None:
        config.validate()
        self.config = config
        self._cell = _CELLS[config.cell]
        rng = np.random.default_rng(config.seed)
        h, d, c = config.hidden_dim, config.input_dim, config.num_classes
        # Draw order (cell weights, then the head) fixes the init.
        self.params = self._cell.init(rng, d, h)
        self.params["w_o"] = rng.normal(0.0, 1.0 / np.sqrt(h), (h, c))
        self.params["b_o"] = np.zeros(c)
        self._opt = {name: _Adam.like(param)
                     for name, param in self.params.items()}
        self.history = _History()

    # -- forward -----------------------------------------------------------

    def _forward(self, batch: np.ndarray):
        """Run the recurrence over (n, steps, input_dim) ``batch``;
        returns (per-step cell caches, mean hidden, logits)."""
        n, steps, _ = batch.shape
        h = np.zeros((n, self.config.hidden_dim))
        hiddens = np.empty((steps, n, self.config.hidden_dim))
        caches = []
        for t in range(steps):
            h, cache = self._cell.step(self.params, batch[:, t, :], h)
            hiddens[t] = h
            caches.append(cache)
        pooled = hiddens.mean(axis=0)
        logits = pooled @ self.params["w_o"] + self.params["b_o"]
        return caches, pooled, logits

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        """Class scores for (n, steps) or (n, steps, input_dim) input."""
        _, _, logits = self._forward(self._as_batch(features))
        return _softmax(logits)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard top-1 predictions."""
        return self.predict_scores(features).argmax(axis=1)

    def _as_batch(self, features: np.ndarray) -> np.ndarray:
        array = np.asarray(features, dtype=np.float64)
        if array.ndim == 2:
            array = array[:, :, None]
        if array.shape[-1] != self.config.input_dim:
            raise ValueError(
                f"expected input dim {self.config.input_dim}, got "
                f"{array.shape[-1]}"
            )
        return array

    # -- training ------------------------------------------------------------

    def _loss_and_grads(self, batch: np.ndarray, labels: np.ndarray):
        """Forward + BPTT on one minibatch: (summed cross-entropy,
        correct top-1 count, gradient per parameter of the mean loss)."""
        n, steps, _ = batch.shape
        caches, pooled, logits = self._forward(batch)
        probs = _softmax(logits)
        loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).sum())
        correct = int((logits.argmax(axis=1) == labels).sum())
        grad_logits = probs.copy()
        grad_logits[np.arange(n), labels] -= 1.0
        grad_logits /= n
        grads = {name: np.zeros_like(param)
                 for name, param in self.params.items()}
        grads["w_o"] = pooled.T @ grad_logits
        grads["b_o"] = grad_logits.sum(axis=0)
        # Mean pooling distributes the head gradient over every step.
        grad_pooled = grad_logits @ self.params["w_o"].T / steps
        grad_h = np.zeros((n, self.config.hidden_dim))
        for t in range(steps - 1, -1, -1):
            grad_h = self._cell.backward(
                self.params, grads, batch[:, t, :], grad_h + grad_pooled,
                caches[t],
            )
        return loss, correct, grads

    def fit(self, features: np.ndarray, labels: np.ndarray) -> _History:
        """Train on (n, steps[, input_dim]) features and int labels."""
        batch_all = self._as_batch(features)
        labels = np.asarray(labels, dtype=np.int64)
        n = batch_all.shape[0]
        if labels.shape != (n,):
            raise ValueError(
                f"expected {n} labels (one per trace), got shape "
                f"{labels.shape}"
            )
        if labels.min() < 0 or labels.max() >= self.config.num_classes:
            raise ValueError("labels outside the configured class range")
        rng = np.random.default_rng(self.config.seed + 1)
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            correct = 0
            for start in range(0, n, self.config.batch_size):
                index = order[start:start + self.config.batch_size]
                loss, hits, grads = self._loss_and_grads(
                    batch_all[index], labels[index]
                )
                epoch_loss += loss
                correct += hits
                for name, grad in grads.items():
                    norm = np.linalg.norm(grad)
                    if norm > self.config.grad_clip:
                        grad = grad * (self.config.grad_clip / norm)
                    self._opt[name].step(self.params[name], grad,
                                         self.config.learning_rate)
            self.history.loss.append(epoch_loss / n)
            self.history.accuracy.append(correct / n)
        return self.history
