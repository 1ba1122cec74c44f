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

The members of a stacked net are independent until their caller joins the
outputs, so a large pass runs them on two threads: the calling thread runs
member 0's whole forward or backward pass while the net's helper thread
runs the others'.  Each member makes the same BLAS calls as in a serial
pass, so the bits are the serial pass's, and writes only its own slices of
the buffers, the output and the gradients.  NumPy releases the interpreter
lock inside those calls, so the two threads run at once.  Handing work to
the helper costs a fixed 0.15-0.2 ms, so only a pass whose work per
member, rows x parameters, is above ``THREADED_WORK`` takes the threaded
path; the rest stay serial.  The helper is a one-thread executor that each
stacked net owns, or shares with a net that shares its buffers; its thread
starts at the first threaded pass and ends when the nets that hold it are
collected.  A pass waits for the helper before it returns or raises, and
raises the calling thread's exception first.  The helper calls only numpy
and this module's private functions, never a public method such as
``Mlp.forward_cached`` or ``Adam.step``: tracing wraps those with a span
stack that is not thread-safe, and counts one call per pass.

Passes write into buffers that each net keeps and reuses, one set per row
count it has seen: the hidden activations of :meth:`Mlp.forward_cached`
and the ReLU masks of :meth:`Mlp.backward`.  A multi-MB array made fresh
on every call is handed back to the OS when freed and faults its pages in
again on the next call.  :meth:`Mlp.backward` writes each layer's delta
into the activation buffer it has just consumed, so it keeps no delta
buffers and consumes its cache.  A cache holds its hidden activations
until ``backward`` consumes it or until the next pass on as many rows of
the same net, or of a net that shares its buffers.  What outlives the call
is always fresh: the output (and so what :meth:`Mlp.forward` returns) and
the gradients of :meth:`Mlp.backward`.

:meth:`Mlp.to_arrays` packs ``flat`` as base64 of its little-endian bytes,
with that element type (``"<f4"`` for float32) in ``stored`` beside the
net's ``dtype``; :meth:`Mlp.from_arrays` decodes the packed values and casts
them to ``dtype``, so a float32 net read as float64 gets its values exactly.
"""
from __future__ import annotations

import base64
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

__all__ = ["Mlp", "Adam"]

# A stacked net's pass runs its members on two threads when each member's
# work, rows x parameters per member, is above this.  Handing the second
# member to the helper thread and waiting for it costs 0.15-0.2 ms (2-core
# x86-64 VM, 1 BLAS thread), so a 2-member forward and backward runs faster
# threaded only from about 5 M: at 32-32 widths 3.1 M (512 rows) took 0.86
# ms threaded against 0.66 ms serial, and at the paper's widths 9.4 M (64
# rows) 1.31 ms against 1.56 ms and 150 M (1,024 rows) 9.8 ms against 19.5.
THREADED_WORK = 1 << 23


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

    Each net keeps its pass buffers in ``_buffers`` and a stacked net its
    helper thread in ``_helper`` (see the module docstring); a copy or a
    stack starts with no buffers, and a stacked one with its own helper.
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
        self._buffers: dict[tuple[str, int], list[np.ndarray]] = {}
        # runs members 1.. of a threaded pass; its thread starts at the first one
        self._helper = ThreadPoolExecutor(1, thread_name_prefix="semsample-mlp") if n_stacked > 1 else None
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
        the members again as plain nets viewing their part of it.

        The stacked net's passes run the members on two threads when each
        member's work, rows x parameters, is above ``THREADED_WORK``, and
        one after the other below it, where the handoff would cost more
        than it saves (see the module docstring)."""
        first = nets[0]
        if any(n.n_stacked or n.dims != first.dims or n.dtype != first.dtype for n in nets):
            raise ValueError("only plain nets of one shape and dtype stack")
        flat = np.concatenate([n.flat for n in nets])
        return first._new(flat, len(nets)), [first._new(row) for row in flat.reshape(len(nets), -1)]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _buffers_for(self, kind: str, rows: int) -> list[np.ndarray]:
        """One array per hidden layer, ``(rows, width)`` or ``(n, rows,
        width)``: ReLU masks for ``kind`` "mask", activations of the net's
        dtype for "act".  Made when first asked for at ``rows`` rows, reused
        after."""
        key = (kind, rows)
        if key not in self._buffers:
            lead = (self.n_stacked,) if self.n_stacked else ()
            dtype = bool if kind == "mask" else self.dtype
            self._buffers[key] = [np.empty((*lead, rows, d), dtype) for d in self.dims[1:-1]]
        return self._buffers[key]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping post-activation values for backprop.  The
        output is fresh; the hidden activations in the cache are this net's
        buffers, valid until :meth:`backward` consumes them or until the
        next pass on as many rows."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim == 1:
            a = a[None, :]
        rows = a.shape[-2]
        hidden = self._buffers_for("act", rows)
        if not self._threaded(rows):
            return _forward(a, self.weights, self.biases, hidden)
        out = np.empty((self.n_stacked, rows, self.dims[-1]), self.dtype)
        self._on_members(lambda k: _forward(
            a, [w[k] for w in self.weights], [b[k] for b in self.biases], [h[k] for h in hidden], out[k]))
        return out, [a, *hidden, out]

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Gradients of a scalar loss w.r.t. all weights and biases, given
        the loss gradient at the output.  Returns [(dW, db), ...] per layer;
        a stacked net's carry the stack axis first, ``(n, in, out)`` and
        ``(n, out)``.  The gradients are fresh arrays.  Each layer's delta
        overwrites the hidden activation it replaces in ``cache``, so the
        cache is consumed."""
        delta = np.asarray(grad_out, dtype=self.dtype)
        if delta.ndim == 1:
            delta = delta[None, :]
        rows = delta.shape[-2]
        masks = self._buffers_for("mask", rows)
        if not self._threaded(rows):
            return _backward(cache, delta, self.weights, masks)
        grads = [(np.empty_like(w), np.empty((self.n_stacked, w.shape[-1]), self.dtype))
                 for w in self.weights]
        # the input cache[0] is every member's; the rest is stacked
        self._on_members(lambda k: _backward(
            [cache[0], *(c[k] for c in cache[1:])], delta[k], [w[k] for w in self.weights],
            [m[k] for m in masks], [(dw[k], db[k]) for dw, db in grads]))
        return grads

    def _threaded(self, rows: int) -> bool:
        """Whether a pass on ``rows`` rows runs the members on two threads:
        only a stacked net's, and only when each member's work is above
        :data:`THREADED_WORK`."""
        return self.n_stacked > 1 and rows * (self.flat.size // self.n_stacked) > THREADED_WORK

    def _on_members(self, task: Callable[[int], object]) -> None:
        """Run ``task(k)`` for every member k: member 0 on this thread while
        the helper runs the others.  Waits for the helper before returning
        or raising; this thread's exception wins over the helper's."""
        def others() -> None:
            for k in range(1, self.n_stacked):
                task(k)

        helper = self._helper.submit(others)
        try:
            task(0)
        finally:
            wait([helper])
        helper.result()

    def parameters(self) -> list[np.ndarray]:
        """The views [w0, b0, w1, b1, ...] of ``flat``."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def copy(self) -> "Mlp":
        return self._new(self.flat.copy(), self.n_stacked)

    def to_arrays(self) -> dict:
        """``flat`` packed as base64 of its little-endian bytes."""
        stored = self.dtype.newbyteorder("<")
        return {
            "dims": list(self.dims),
            "dtype": self.dtype.name,
            "stored": stored.str,
            "flat": base64.b64encode(self.flat.astype(stored, copy=False).tobytes()).decode("ascii"),
        }

    @classmethod
    def from_arrays(cls, doc: dict) -> "Mlp":
        """Inverse of :meth:`to_arrays`, the values cast from the packed
        type to ``dtype``.  A missing key, a wrong type, a packed type that
        is not a little-endian float, bad base64 or a byte count that
        disagrees with ``dims`` raises ``ValueError``."""
        net = object.__new__(cls)
        try:
            net.dims = tuple(int(d) for d in doc["dims"])
            net.dtype = np.dtype(doc["dtype"])
            stored = np.dtype(doc["stored"])
            text = doc["flat"]
        except KeyError as exc:
            raise ValueError(f"network missing key {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"network has a value of the wrong type: {exc}") from exc
        try:
            packed = base64.b64decode(text, validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ValueError(f"network flat is not base64: {exc}") from exc
        if net.dtype.kind != "f" or len(net.dims) < 2 or min(net.dims) < 1:
            raise ValueError(f"network dtype {net.dtype} or dims {net.dims} is not a float net")
        if stored.kind != "f" or stored.str != doc["stored"] or stored.str[0] != "<":
            raise ValueError(f"network stored type {doc['stored']!r} is not a little-endian float type")
        count = sum(i * o + o for i, o in zip(net.dims[:-1], net.dims[1:]))
        if len(packed) != count * stored.itemsize:
            raise ValueError(f"network flat holds {len(packed)} bytes, dims {net.dims} "
                             f"need {count * stored.itemsize} as {stored.str}")
        net._view(np.frombuffer(packed, dtype=stored).astype(net.dtype))
        return net


def _forward(a, weights, biases, hidden, out=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """One pass through the layers, a plain net's or a whole stacked net's,
    with the hidden activations written into ``hidden`` and the output into
    ``out`` (fresh if None).  Returns the output and the cache."""
    cache = [a]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = np.matmul(a, w, out=out if i == last else hidden[i])
        a += b
        if i != last:
            np.maximum(a, 0.0, out=a)  # ReLU
        cache.append(a)
    return a, cache


def _backward(cache, delta, weights, masks, grads=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backprop through the layers of :func:`_forward`'s cache, the ReLU
    masks written into ``masks`` and the gradients into ``grads``' (dW, db)
    pairs (fresh if None)."""
    grads = grads or [(None, None)] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        a_in = cache[i]
        dw, db = grads[i]
        grads[i] = (np.matmul(a_in.swapaxes(-1, -2), delta, out=dw), delta.sum(axis=-2, out=db))
        if i > 0:
            mask = np.greater(a_in, 0, out=masks[i - 1])  # ReLU mask of the input activation
            delta = np.matmul(delta, weights[i].swapaxes(-1, -2), out=a_in)
            delta *= mask
    return grads


class Adam:
    """Adam over a list of parameter arrays, updating in place.

    After each step, moment entries below the smallest normal float are set
    to 0.  A parameter whose gradient has stopped (a dead ReLU unit's) has
    moments that decay toward 0 and turn subnormal, and arithmetic on
    subnormals runs many times slower.  Flushing ``v`` leaves the
    denominator at ``eps``; flushing a float32 ``m`` moves a parameter by
    at most lr * 2**-96 (at eps 1e-8), under half an ulp of any parameter
    much larger than lr * 2**-72.
    """

    def __init__(self, params: Sequence[np.ndarray], lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        # per parameter array, two scratch arrays in place of fresh
        # temporaries and one for the flush's mask
        self._scratch = [(np.empty_like(p), np.empty_like(p), np.empty(np.shape(p), bool))
                         for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v, (s, r, small) in zip(params, grads, self.m, self.v, self._scratch):
            g = g.astype(p.dtype, copy=False)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=s)
            v *= b2
            v += np.multiply(1.0 - b2, np.square(g, out=s), out=s)
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            step = np.multiply(self.lr, np.divide(m, bias1, out=s), out=s)
            denom = np.sqrt(np.divide(v, bias2, out=r), out=r)
            denom += self.eps
            p -= np.divide(step, denom, out=s)
            tiny = np.finfo(m.dtype).tiny
            np.copyto(m, 0, where=np.less(np.abs(m, out=s), tiny, out=small))
            np.copyto(v, 0, where=np.less(v, tiny, out=small))  # v holds no negatives
