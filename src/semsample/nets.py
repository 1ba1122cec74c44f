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
and the soft update step all of them in one pass.  A contiguous slice of
the members is a stacked net of its own over their part of ``flat``
(:meth:`Mlp.substack`), so one vector can hold several stacks that
overlap.  :class:`Adam` steps one array, such as that vector, and can
step members at different learning rates, each on its range of it.

Every pass here is serial and starts no thread.  The trainer runs each
SAC update on one lane, its own thread, or at the paper's widths on two,
with a helper thread that it owns (see :class:`semsample.agent.Trainer`),
through this module's private functions: :func:`_forward` and
:func:`_backward` of a stacked net or of one member, one layer's
gradients (:func:`_layer_grads`) beside the delta it passes down
(:func:`_layer_delta`), and :meth:`Adam._step_part` on a flat vector or
part of it.  A member's pass makes the BLAS calls of its part of the
stacked pass, so two lanes give the bits of one.  No pass is split by
rows or columns: a matrix product cut at a row or column boundary can round
differently from the whole one (cuts at 333 or 17 of 1,024 rows changed
bits at the paper's widths), while Adam's step is elementwise, so its
parts give the bits of the whole.  Code that runs off the calling thread
calls only numpy and these private functions, never a public method such
as ``Mlp.forward_cached`` or ``Adam.step``: tracing wraps those with a
span stack that is not thread-safe, and counts one call per pass.

Passes write into buffers that each net keeps and reuses, one set per row
count it has seen: the hidden activations of :meth:`Mlp.forward_cached`
and the ReLU masks of :meth:`Mlp.backward`.  A multi-MB array made fresh
on every call is handed back to the OS when freed and faults its pages in
again on the next call.  :meth:`Mlp.backward` writes each layer's delta
into the activation buffer it has just consumed, so it keeps no delta
buffers and consumes its cache.  Each layer's mask is read right after it
is written, so a member's masks are views of one block, rows x its widest
hidden layer; no two members share a byte, so two threads may
backpropagate two members at once.  A cache holds its hidden activations
until ``backward`` consumes it or until the next pass on as many rows of
the same net, or of a net that shares its buffers.  What outlives the call
is always fresh: the output (and so what :meth:`Mlp.forward` returns) and
the gradients of :meth:`Mlp.backward`.  :meth:`Adam._step_part` uses the
gradient it is handed as scratch, which the trainer refills on every
backward; :meth:`Adam.step` steps a copy.

:meth:`Mlp.to_arrays` packs ``flat`` as base64 of its little-endian bytes,
with that element type (``"<f4"`` for float32) in ``stored`` beside the
net's ``dtype``; :meth:`Mlp.from_arrays` decodes the packed values and casts
them to ``dtype``, so a float32 net read as float64 gets its values exactly.
"""
from __future__ import annotations

import base64
import numbers
from typing import Optional, Sequence

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

    Each net keeps its pass buffers in ``_buffers`` (see the module
    docstring); a copy or a stack starts with none.
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

    def substack(self, k: slice) -> "Mlp":
        """Members ``k``, a contiguous slice, of a stacked net, as a stacked
        net viewing their part of ``flat``; it starts with no buffers."""
        rows = self.flat.reshape(self.n_stacked, -1)[k]
        return self._new(rows.reshape(-1, copy=False), len(rows))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _buffers_for(self, kind: str, rows: int) -> list[np.ndarray]:
        """One array per hidden layer, ``(rows, width)`` or ``(n, rows,
        width)``: ReLU masks for ``kind`` "mask", activations of the net's
        dtype for "act".  The masks are views at the start of one bool
        block per member of rows x the widest hidden layer, so a member's
        layers share its block.  Made when first asked for at ``rows``
        rows, reused after."""
        key = (kind, rows)
        if key not in self._buffers:
            lead = (self.n_stacked,) if self.n_stacked else ()
            hidden = self.dims[1:-1]
            if kind == "mask":
                block = np.empty((*lead, rows * max(hidden, default=0)), bool)
                self._buffers[key] = [block[..., :rows * d].reshape(*lead, rows, d, copy=False)
                                      for d in hidden]
            else:
                self._buffers[key] = [np.empty((*lead, rows, d), self.dtype) for d in hidden]
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
        return _forward(a, self.weights, self.biases, self._buffers_for("act", a.shape[-2]))

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
        return _backward(cache, delta, self.weights, self._buffers_for("mask", delta.shape[-2]))

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
        grads[i] = _layer_grads(a_in, delta, *grads[i])
        if i > 0:
            # the delta overwrites the activation it replaces, read above
            delta = _layer_delta(a_in, delta, weights[i], masks[i - 1], a_in)
    return grads


def _layer_grads(a_in, delta, dw=None, db=None) -> tuple[np.ndarray, np.ndarray]:
    """A layer's (dW, db) from its input activation and output delta,
    written into ``dw`` and ``db`` (fresh if None)."""
    return np.matmul(a_in.swapaxes(-1, -2), delta, out=dw), np.add.reduce(delta, axis=-2, out=db)


def _layer_delta(a_in, delta, w, mask, out) -> np.ndarray:
    """The delta at a layer's input activation ``a_in``, written into
    ``out``, with the ReLU mask of ``a_in`` written into ``mask`` first."""
    np.greater(a_in, 0, out=mask)
    delta = np.matmul(delta, w.swapaxes(-1, -2), out=out)
    delta *= mask
    return delta


class Adam:
    """Adam over one parameter array, updating it in place.

    ``lr`` is the learning rate of every entry, or, for a 1-D vector, a
    sequence of (entries, rate) pairs: slices that cover the vector, each
    stepping at its own rate.  A step multiplies each slice's scaled first
    moments by its rate, so it gives the bits of separate optimizers over
    the slices at a shared step count.

    After each step, moment entries below the smallest normal float are set
    to 0.  A parameter whose gradient has stopped (a dead ReLU unit's) has
    moments that decay toward 0 and turn subnormal, and arithmetic on
    subnormals runs many times slower.  Flushing ``v`` leaves the
    denominator at ``eps``; flushing a float32 ``m`` moves a parameter by
    at most lr * 2**-96 (at eps 1e-8), under half an ulp of any parameter
    much larger than lr * 2**-72.

    A step's temporaries go into a copy of the gradient, one float scratch
    array of ``param``'s shape and one bool array for the flush's mask, so
    a step allocates nothing but that copy; :meth:`_step_part` skips even
    the copy and writes into the gradient it is handed.
    """

    def __init__(self, param: np.ndarray, lr: float | Sequence[tuple[slice, float]],
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        # a scratch array beside the gradient, which the step also uses as
        # scratch, in place of fresh temporaries, and one for the flush's mask
        self._scratch = (np.empty_like(param), np.empty(np.shape(param), bool))
        # the flush's threshold, the smallest normal float
        self._tiny = np.finfo(self.m.dtype).tiny
        # the (start, stop, rate) of each range of entries
        if isinstance(lr, numbers.Real):
            self._rates = ((0, self.m.size, lr),)
        else:
            self._rates = tuple((*entries.indices(self.m.size)[:2], rate) for entries, rate in lr)

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """Step ``p`` with gradient ``g``, which is left as it was."""
        self._step_part(self._count_step(), p, np.array(g, p.dtype))

    def _count_step(self) -> tuple[float, float]:
        """Count one step; returns its bias corrections for
        :meth:`_step_part`."""
        self.t += 1
        return 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t

    def _step_part(self, bias: tuple[float, float], p: np.ndarray, g: np.ndarray,
                   part: Optional[slice] = None) -> None:
        """Step ``p`` with gradient ``g``; only the entries ``part``, a
        slice of a 1-D vector, of both when given.  The step is
        elementwise, so the parts of an array give the bits of the whole.
        It overwrites ``g``'s entries with scratch, unless ``g`` is of
        another dtype than ``p``."""
        m, v, (r, small) = self.m, self.v, self._scratch
        if part is not None:
            p, g, m, v, r, small = (a[part] for a in (p, g, m, v, r, small))
        b1, b2 = self.beta1, self.beta2
        bias1, bias2 = bias
        g = g.astype(p.dtype, copy=False)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=r)
        v *= b2
        v += np.multiply(1.0 - b2, np.square(g, out=g), out=g)
        # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        step = np.divide(m, bias1, out=g)
        rates = self._rates
        if len(rates) == 1:  # one rate, whatever the part
            np.multiply(rates[0][2], step, out=step)
        else:
            start, stop = (0, self.m.size) if part is None else part.indices(self.m.size)[:2]
            step = step.reshape(-1, copy=False)
            for lo, hi, rate in rates:
                lo, hi = max(lo, start) - start, min(hi, stop) - start
                if lo < hi:
                    np.multiply(rate, step[lo:hi], out=step[lo:hi])
        denom = np.sqrt(np.divide(v, bias2, out=r), out=r)
        denom += self.eps
        p -= np.divide(g, denom, out=g)
        # the flush multiplies by the mask of entries kept, 1 or 0, and adds
        # +0.0, which turns the -0.0 of a negative flushed entry into +0.0
        # (a NaN stays NaN): the bits of writing 0 to the flushed entries,
        # for every value arithmetic makes, without the masked write, which
        # ran 2-3x slower than both passes at 32-32 widths.  v holds no
        # negatives and no -0.0 (it starts at +0.0 and only adds squares),
        # so its flush needs no add
        m *= np.greater_equal(np.abs(m, out=r), self._tiny, out=small)
        m += 0.0
        v *= np.greater_equal(v, self._tiny, out=small)
