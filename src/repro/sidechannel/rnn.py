"""A recurrent classifier in pure numpy (the paper's attack model).

The paper trains an RNN on uncore-frequency traces to fingerprint
websites, reusing the model of MeshUp [57].  PyTorch is unavailable
here, so this module implements the same family from scratch:

* an Elman recurrent cell:
  ``h_t = tanh(x_t W_x + h_{t-1} W_h + b_h)``;
* mean-pooled hidden states feeding a softmax classification head;
* full backpropagation through time with gradient clipping;
* Adam optimisation with minibatches.

Only the recurrence runs step by step: ``h_prev @ W_h`` going forward
and ``@ W_h.T`` going back.  Everything else runs once per minibatch
over stacked time-major ``(steps, n, .)`` arrays.  The cell supplies

* ``init``: its parameters;
* ``project``: every step's input products ``x W_x`` in one
  ``np.matmul``, the stacked hidden states ``hs[0..steps]`` and the
  bias broadcast to an ``(n, h)`` block;
* ``run``: the forward loop, each step in the order
  ``(x W_x + h_prev W_h) + b`` (the bias is not folded into the
  projection: that would round differently);
* ``backprop``: the activation derivatives of every step, hoisted out
  of the loop, then the BPTT loop from the last step down, which
  overwrites each step's slot with its pre-activation gradient;
* ``gradients``: after the loop, every weight as
  ``sum_t left[t].T @ pre[t]`` and every bias as ``sum_t pre[t]``.

The cell owns its time loops so that a step pays only for its numpy
calls: the ufuncs are bound to locals, and every product and
elementwise result is written with ``out=`` into a buffer (adding a
same-shape bias block costs about a third of a broadcast add).  The
derivative and pre-activation buffers reuse the projection arrays the
forward pass is done with.  Every array comes from a ``_Workspace``
that one ``fit`` reuses for all its minibatches, and the workspace
also keeps each stacked array's per-step views, so the loops list them
once per ``fit`` and not once per minibatch.

The classifier calls both loops and runs the head and Adam.
The stacked gradients are bit-identical to accumulating one term per
step: BPTT adds the terms from the last step down, and
``_sum_from_last`` adds the stacked terms in that same order (numpy
reduces an outer axis one slice at a time, here over a reversed view).
A weight's terms are formed a cache-sized chunk of steps at a time,
the last chunk first, and each chunk's reversed sum starts from the
running total of the chunks after it: the same additions in the same
order as one reversed sum over every step.  Each term is the same
product of the same operands, so the trained weights do not depend on
the hoist.

Every parameter tensor is a view into one flat vector, and each
gradient, clipped on its own norm, is written into the matching view
of one flat gradient vector.  One ``_Adam`` step then updates every
weight per minibatch.  Adam is elementwise, so that step makes, on
every element, the operations in the order that one step per tensor
made.  Everything is vectorised over the batch, so training on a few
hundred traces of ~100 steps takes seconds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _sum_from_last(stacked: np.ndarray) -> np.ndarray:
    """``stacked[-1] + stacked[-2] + ... + stacked[0]``, added in that
    order, as BPTT adds one term per step from the last step down.

    numpy reduces an outer axis one slice at a time, in the order of
    the (here reversed) view.  A one-element slice would make that axis
    the inner loop, which numpy sums pairwise, so that case adds step by
    step instead.
    """
    if stacked[0].size > 1:
        return stacked[::-1].sum(axis=0)
    total = stacked[-1].copy()
    for term in stacked[-2::-1]:
        total += term
    return total


#: Elements of the weight-gradient terms ``_weight_grad`` forms per
#: ``np.matmul``.  At h=64 that is 16 steps of ``W_h`` terms, 512 KB,
#: which stay in L2 between the matmul and the sum; the terms of all
#: 96 steps of a Fig. 12 trace (3 MB) would not.
_GRAD_CHUNK_ELEMENTS = 1 << 16


class _Workspace:
    """Stacked arrays by name and shape, reused by every minibatch of
    one ``fit``.

    Every minibatch asks for the same arrays.  Allocated afresh, the
    stacked arrays of each minibatch can make glibc return the heap to
    the kernel after each minibatch and fault it back in on the next,
    which costs more than the hoist saves.  Callers write every element
    they read.
    """

    def __init__(self) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}
        self._rows: dict[tuple, list[np.ndarray]] = {}

    def get(self, name: str, *shape: int) -> np.ndarray:
        key = (name, shape)
        if key not in self._arrays:
            self._arrays[key] = np.empty(shape)
        return self._arrays[key]

    def rows(self, name: str, *shape: int) -> list[np.ndarray]:
        """The per-step views of ``get(name, *shape)``, listed once."""
        key = (name, shape)
        if key not in self._rows:
            self._rows[key] = list(self.get(name, *shape))
        return self._rows[key]


def _weight_grad(ws: _Workspace, left: np.ndarray,
                 pre: np.ndarray) -> np.ndarray:
    """``sum_t left[t].T @ pre[t]`` over stacked ``(steps, n, .)``,
    added as ``_sum_from_last`` adds.

    The terms are formed a chunk of steps at a time, the last chunk
    first, into one workspace buffer.  Each chunk's reversed sum writes
    the running total; the next chunk copies it into the slot after its
    own terms, so its reversed sum starts from that total and goes on
    from the chunk's last step down: the additions of one reversed sum
    over every step, in the same order.  (numpy starts every sum from
    +0.0, which leaves such a total as it is: a sum that started from
    +0.0 is never -0.0.)
    """
    left_t = left.transpose(0, 2, 1)
    steps = len(pre)
    shape = (left.shape[2], pre.shape[2])
    size = shape[0] * shape[1]
    if size == 1:
        return _sum_from_last(np.matmul(left_t, pre))
    chunk = min(steps, max(1, _GRAD_CHUNK_ELEMENTS // size))
    terms = ws.get("terms", chunk + 1, *shape)
    total = None
    for stop in range(steps, 0, -chunk):
        begin = max(stop - chunk, 0)
        count = stop - begin
        np.matmul(left_t[begin:stop], pre[begin:stop], out=terms[:count])
        if total is not None:
            terms[count] = total
            count += 1
        total = np.add.reduce(terms[:count][::-1], axis=0, out=total)
    return total


def _bias_grad(pre: np.ndarray) -> np.ndarray:
    """``sum_t pre[t].sum(axis=0)`` over stacked ``(steps, n, h)``."""
    return _sum_from_last(pre.sum(axis=1))


def _bias_block(ws: _Workspace, name: str, bias: np.ndarray,
                n: int) -> np.ndarray:
    """``bias`` broadcast to ``(n, h)`` once per minibatch, so each step
    adds a same-shape block (the same sums as the broadcast add)."""
    block = ws.get(name, n, len(bias))
    block[...] = bias
    return block


def _views(flat: np.ndarray,
           like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Consecutive views into ``flat``, one per tensor of ``like``, of
    its shape and in its order."""
    views = {}
    start = 0
    for name, tensor in like.items():
        views[name] = flat[start:start + tensor.size].reshape(tensor.shape)
        start += tensor.size
    return views


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
    def project(p, xs, ws):
        """Forward state: every step's ``x W_x``, the hidden states
        (``hs[0]`` is the zero initial state), the per-step views of
        both and the bias block."""
        steps, n, _ = xs.shape
        h = p["w_h"].shape[0]
        hs = ws.get("hs", steps + 1, n, h)
        hs[0] = 0.0
        xw = np.matmul(xs, p["w_x"], out=ws.get("xw", steps, n, h))
        return {"xw": xw, "hs": hs,
                "xw_rows": ws.rows("xw", steps, n, h),
                "hs_rows": ws.rows("hs", steps + 1, n, h),
                "b_h": _bias_block(ws, "b_h", p["b_h"], n)}

    @staticmethod
    def run(p, s):
        """The forward loop over every step."""
        add, tanh = np.add, np.tanh
        w_h, b_h = p["w_h"], s["b_h"]
        hs = s["hs_rows"]
        for h_prev, h, xw in zip(hs, hs[1:], s["xw_rows"]):
            h_prev.dot(w_h, h)
            add(xw, h, out=h)
            add(h, b_h, out=h)
            tanh(h, out=h)

    @staticmethod
    def backprop(p, s, grad_pooled, ws):
        """BPTT from the last step down.  ``1 - h**2`` of every step
        goes into the spent input products; each step then turns its
        slot of ``pre`` into its pre-activation gradient."""
        pre = s.pop("xw")
        np.square(s["hs"][1:], out=pre)
        s["pre"] = np.subtract(1.0, pre, out=pre)
        add, multiply = np.add, np.multiply
        w_h_t = p["w_h"].T
        grad_h = ws.get("grad_h", *grad_pooled.shape)
        grad_h[...] = 0.0
        grad_step = ws.get("grad_step", *grad_pooled.shape)
        for pre_t in reversed(s.pop("xw_rows")):
            add(grad_h, grad_pooled, out=grad_step)
            multiply(pre_t, grad_step, out=pre_t)
            pre_t.dot(w_h_t, grad_h)

    @staticmethod
    def gradients(xs, s, ws):
        pre = s["pre"]
        return {"w_x": _weight_grad(ws, xs, pre),
                "w_h": _weight_grad(ws, s["hs"][:-1], pre),
                "b_h": _bias_grad(pre)}


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

    def validate(self) -> None:
        counts = (self.input_dim, self.hidden_dim, self.num_classes,
                  self.epochs, self.batch_size)
        if not all(isinstance(count, numbers.Integral)
                   and not isinstance(count, bool) for count in counts):
            raise ValueError("model dimensions, epochs and batch size "
                             "must be integers")
        rates = (self.learning_rate, self.grad_clip)
        if not all(isinstance(rate, numbers.Real)
                   and not isinstance(rate, bool) and math.isfinite(rate)
                   for rate in rates):
            raise ValueError("learning rate and gradient clip must be "
                             "finite numbers")
        if min(self.input_dim, self.hidden_dim, self.num_classes) <= 0:
            raise ValueError("model dimensions must be positive")
        if min(self.learning_rate, self.epochs, self.batch_size,
               self.grad_clip) <= 0:
            raise ValueError("training hyperparameters must be positive")


@dataclass
class _Adam:
    """Adam state for one parameter vector."""

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
        # In place, in the same operations and order as
        # ``m = beta1 * m + (1 - beta1) * grad`` (and v alike).
        self.m *= beta1
        self.m += (1 - beta1) * grad
        self.v *= beta2
        self.v += (1 - beta2) * grad * grad
        m_hat = self.m / (1 - beta1**self.t)
        v_hat = self.v / (1 - beta2**self.t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class _History:
    """Per-epoch training metrics."""

    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)


class RnnClassifier:
    """Elman cell + softmax head, trained with BPTT/Adam."""

    def __init__(self, config: RnnConfig) -> None:
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        h, d, c = config.hidden_dim, config.input_dim, config.num_classes
        # Draw order (cell weights, then the head) fixes the init.
        params = _Elman.init(rng, d, h)
        params["w_o"] = rng.normal(0.0, 1.0 / np.sqrt(h), (h, c))
        params["b_o"] = np.zeros(c)
        # Every tensor is a view into one flat vector, which one Adam
        # step updates per minibatch.
        self._flat = np.concatenate([p.ravel() for p in params.values()])
        self.params = _views(self._flat, params)
        self._opt = _Adam.like(self._flat)
        self.history = _History()

    # -- forward -----------------------------------------------------------

    def _forward(self, batch: np.ndarray, ws: _Workspace):
        """Run the recurrence over (n, steps, input_dim) ``batch``;
        returns (time-major inputs, cell state, mean hidden, logits)."""
        xs = batch.transpose(1, 0, 2)
        state = _Elman.project(self.params, xs, ws)
        _Elman.run(self.params, state)
        pooled = state["hs"][1:].mean(axis=0)
        logits = pooled @ self.params["w_o"] + self.params["b_o"]
        return xs, state, pooled, logits

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        """Class scores for (n, steps) or (n, steps, input_dim) input."""
        *_, logits = self._forward(self._as_batch(features), _Workspace())
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

    def _loss_and_grads(self, batch: np.ndarray, labels: np.ndarray,
                        ws: _Workspace | None = None):
        """Forward + BPTT on one minibatch: (summed cross-entropy,
        correct top-1 count, gradient per parameter of the mean loss).
        ``ws`` carries the stacked arrays from one minibatch to the
        next."""
        if ws is None:
            ws = _Workspace()
        n, steps, _ = batch.shape
        xs, state, pooled, logits = self._forward(batch, ws)
        probs = _softmax(logits)
        loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).sum())
        correct = int((logits.argmax(axis=1) == labels).sum())
        grad_logits = probs.copy()
        grad_logits[np.arange(n), labels] -= 1.0
        grad_logits /= n
        # Mean pooling distributes the head gradient over every step.
        grad_pooled = grad_logits @ self.params["w_o"].T / steps
        _Elman.backprop(self.params, state, grad_pooled, ws)
        grads = _Elman.gradients(xs, state, ws)
        grads["w_o"] = pooled.T @ grad_logits
        grads["b_o"] = grad_logits.sum(axis=0)
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
        ws = _Workspace()
        clip, lr = self.config.grad_clip, self.config.learning_rate
        grad_flat = np.empty_like(self._flat)
        grad_views = _views(grad_flat, self.params)
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            correct = 0
            for start in range(0, n, self.config.batch_size):
                index = order[start:start + self.config.batch_size]
                loss, hits, grads = self._loss_and_grads(
                    batch_all[index], labels[index], ws
                )
                epoch_loss += loss
                correct += hits
                for name, grad in grads.items():
                    norm = np.linalg.norm(grad)
                    if norm > clip:
                        np.multiply(grad, clip / norm, out=grad_views[name])
                    else:
                        grad_views[name][...] = grad
                self._opt.step(self._flat, grad_flat, lr)
            self.history.loss.append(epoch_loss / n)
            self.history.accuracy.append(correct / n)
        return self.history
