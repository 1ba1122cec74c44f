"""Minimal feedforward networks with hand-written backprop and Adam.

Small fully-connected nets with rectifier hidden units are all the sampling
agent needs; keeping forward, backward and the optimizer in plain numpy makes
training bit-reproducible and lets the analytic gradients be verified against
finite differences directly.

Nets of equal shape can run side by side as one stacked net
(:meth:`Mlp.stack`): its weights are ``(n, in, out)`` and its biases
``(n, 1, out)``, so one forward or backward call makes one matrix multiply
per member and layer, each the same BLAS call as the member's own pass.
Its ``flat`` vector is the members' vectors end to end, ``[q1.flat |
q2.flat]`` for two, and the members are returned as views into it, so Adam
and the soft update step all of them in one pass.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Mlp", "Adam"]


class Mlp:
    """Fully-connected net: linear layers with ReLU between, linear output.

    Weights use symmetric uniform fan-in initialization, U(-s, s) with
    s = 1/sqrt(fan_in), for both weights and biases.

    All parameters live in one contiguous vector ``flat``, laid out w0, b0,
    w1, b1, ...; ``weights`` and ``biases`` are views into it, so Adam and the
    soft update make one pass per net.  Edit the views in place; rebinding
    them or ``flat`` detaches them from each other.

    A stacked net (``n_stacked`` = n > 0, made by :meth:`stack`) holds n such
    layouts end to end in ``flat`` and views them as ``(n, in, out)``
    weights and ``(n, 1, out)`` biases.  It takes the same 2-D input as its
    members and returns their outputs as ``(n, rows, out)``.
    """

    def __init__(self, dims: Sequence[int], rng: np.random.Generator, dtype=np.float32):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.dims = tuple(int(d) for d in dims)
        self.dtype = np.dtype(dtype)
        arrays = []
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            arrays.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(self.dtype))
            arrays.append(rng.uniform(-bound, bound, size=fan_out).astype(self.dtype))
        self._view(np.concatenate([np.ravel(a) for a in arrays]))

    def _view(self, flat: np.ndarray, n_stacked: int = 0) -> None:
        """Adopt ``flat`` and view it as layers: one net's w0, b0, w1, b1,
        ..., or ``n_stacked`` of them end to end."""
        self.flat = flat
        self.n_stacked = n_stacked
        lead = (n_stacked,) if n_stacked else ()
        rows = flat.reshape(*lead, -1)
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            w = rows[..., offset:offset + fan_in * fan_out]
            offset += fan_in * fan_out
            b = rows[..., offset:offset + fan_out]
            offset += fan_out
            self.weights.append(w.reshape(*lead, fan_in, fan_out, copy=False))
            self.biases.append(b.reshape(*lead, 1, fan_out, copy=False) if n_stacked else b)

    def _new(self, flat: np.ndarray, n_stacked: int = 0) -> "Mlp":
        net = object.__new__(Mlp)
        net.dims = self.dims
        net.dtype = self.dtype
        net._view(flat, n_stacked)
        return net

    @staticmethod
    def stack(nets: Sequence["Mlp"]) -> tuple["Mlp", list["Mlp"]]:
        """One stacked net over a copy of the parameters of ``nets``, and
        the members again as plain nets viewing their part of it."""
        first = nets[0]
        if any(n.n_stacked or n.dims != first.dims or n.dtype != first.dtype for n in nets):
            raise ValueError("only plain nets of one shape and dtype stack")
        flat = np.concatenate([n.flat for n in nets])
        return first._new(flat, len(nets)), [first._new(row) for row in flat.reshape(len(nets), -1)]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping post-activation values for backprop."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim == 1:
            a = a[None, :]
        cache = [a]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            # in place on the fresh product: a stacked pass's temporaries
            # are n times a member's, and each new one costs page faults
            a = a @ w
            a += b
            if i != last:
                np.maximum(a, 0.0, out=a)  # ReLU
            cache.append(a)
        return a, cache

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Gradients of a scalar loss w.r.t. all weights and biases, given
        the loss gradient at the output.  Returns [(dW, db), ...] per layer;
        a stacked net's carry the stack axis first, ``(n, in, out)`` and
        ``(n, out)``."""
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * self.n_layers  # type: ignore[list-item]
        delta = np.asarray(grad_out, dtype=self.dtype)
        if delta.ndim == 1:
            delta = delta[None, :]
        for i in range(self.n_layers - 1, -1, -1):
            a_in = cache[i]
            grads[i] = (np.swapaxes(a_in, -1, -2) @ delta, delta.sum(axis=-2))
            if i > 0:
                delta = delta @ np.swapaxes(self.weights[i], -1, -2)
                delta *= cache[i] > 0  # ReLU mask of the input activation
        return grads

    def parameters(self) -> list[np.ndarray]:
        """The views [w0, b0, w1, b1, ...] of ``flat``."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def copy(self) -> "Mlp":
        return self._new(self.flat.copy(), self.n_stacked)

    def to_arrays(self) -> dict:
        return {
            "dims": list(self.dims),
            "dtype": self.dtype.name,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_arrays(cls, doc: dict) -> "Mlp":
        """Inverse of :meth:`to_arrays`.  A missing key, a wrong type or a
        layer shape that disagrees with ``dims`` raises ``ValueError``."""
        net = object.__new__(cls)
        try:
            net.dims = tuple(int(d) for d in doc["dims"])
            net.dtype = np.dtype(doc["dtype"])
            net.weights = [np.array(w, dtype=net.dtype) for w in doc["weights"]]
            net.biases = [np.array(b, dtype=net.dtype) for b in doc["biases"]]
        except KeyError as exc:
            raise ValueError(f"network missing key {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"network has a value of the wrong type: {exc}") from exc
        shapes = [(w.shape, b.shape) for w, b in zip(net.weights, net.biases)]
        expected = [((i, o), (o,)) for i, o in zip(net.dims[:-1], net.dims[1:])]
        if net.dtype.kind != "f" or len(net.biases) != len(net.weights) or shapes != expected:
            raise ValueError(f"network dtype or layer shapes inconsistent with dims {net.dims}")
        net._view(np.concatenate([np.ravel(a) for a in net.parameters()]))
        return net


class Adam:
    """Adam over a list of parameter arrays, updating in place."""

    def __init__(self, params: Sequence[np.ndarray], lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            g = g.astype(p.dtype, copy=False)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
