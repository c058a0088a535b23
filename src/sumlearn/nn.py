"""Minimal layer kit with explicit backprop, shared by the autoencoder and CNN.

Everything is plain numpy. Layers cache what they need on forward and fill
their grad buffers on backward; SGDMomentum updates parameters in place.
`forward(x, cache=False)` runs the same arithmetic but keeps no backward
cache (and drops any older one), for inference-only passes. A Conv2d
forward pass drops the previous pass's im2col matrix before it builds the
next, so a layer never holds two at once, and its backward pass drops the
matrix once dW is formed, so each forward pass serves one backward pass.
`nn.backward` fills the parameter gradients and returns nothing: no caller
reads the gradient w.r.t. the network input, so the first weighted layer is
called with `input_grad=False` and skips its input-gradient product, and
parameter-free layers in front of it are not run.
Determinism: all randomness comes from the rng handed to the constructors
and to `fit`.

Memory layout: image layers take and return (B, C, H, W) arrays, but
Conv2d and MaxPool2x2 work channels-last. They read their input and
gradient through (B, H, W, C) transposed views. Conv2d's output and both
layers' input gradients are (B, C, H, W) transposed views of (B, H, W, C)
buffers; MaxPool2x2's output and ReLU keep the layout they are given. So
between a CNN's first convolution and its Flatten, activations and
gradients stay channels-last in memory. Any (B, C, H, W) array is accepted;
one that is not channels-last costs strided reads, not a different result.

Conv2d's input gradient (col2im) is formed per window offset: one batched
product gives a (kh*kw, B*Ho*Wo, C) array, one contiguous slab per offset,
and each slab is added into its shifted window of the input gradient in
(p, q) order, the order of the im2col columns.

`Network` is what the autoencoder and the CNN have in common: the weighted
layers, the weights' dtype, one tensor file per network (`save`/`load`,
tensors W0, b0, W1, ... and the meta that rebuilds the layers), and
`inputs`, the one path from a store's pixels to a batch. `fit` is the one
mini-batch SGD-with-momentum loop that trains either network.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import decode
from .errors import DivergenceError
from .tensorfile import load_tensors, save_tensors


def weight_tensors(layers):
    """Tensors W0, b0, W1, b1, ... of the given weighted layers, in order:
    the file format of a saved network."""
    return {f"{name}{i}": getattr(layer, name) for i, layer in enumerate(layers) for name in "Wb"}


class Network:
    """Base of the autoencoder and the CNN. A subclass sets `layers` and
    `input_shape` (one input's shape) and defines `meta()`, its tensor file's
    meta, and `from_meta(meta, dtype)`, which rebuilds the layers from it."""

    def weighted_layers(self):
        return [layer for layer in self.layers if layer.params()]

    @property
    def dtype(self):
        return self.weighted_layers()[0].W.dtype

    def inputs(self, pixels):
        """Rows of a store's pixels as a batch: decoded, cast to the weights'
        dtype and shaped (rows, *input_shape). A row of the wrong width is
        refused."""
        width = math.prod(self.input_shape)
        if pixels.ndim != 2 or pixels.shape[1] != width:
            raise ValueError(
                f"{type(self).__name__} takes rows of {width} pixels, got shape {pixels.shape}"
            )
        return decode(pixels).astype(self.dtype, copy=False).reshape(-1, *self.input_shape)

    def save(self, path, meta=None):
        """The weights as W{i}/b{i} and `meta` plus the network's own meta."""
        save_tensors(path, weight_tensors(self.weighted_layers()), meta={**(meta or {}), **self.meta()})

    @classmethod
    def load(cls, path):
        """The network a `save` wrote. A file whose tensors' names, shapes or
        dtypes differ from those of the layers its meta rebuilds is refused
        with a ValueError naming the first tensor that differs."""
        meta, tensors = load_tensors(path)
        if "W0" not in tensors:
            raise ValueError(f"{path}: no tensor 'W0'")
        network = cls.from_meta(meta, tensors["W0"].dtype.type)
        expected = weight_tensors(network.weighted_layers())
        for name in [*expected, *sorted(tensors.keys() - expected.keys())]:
            want, got = (_describe(t.get(name)) for t in (expected, tensors))
            if want != got:
                raise ValueError(f"{path}: tensor {name!r} is {got}, the network its meta describes needs {want}")
        for i, layer in enumerate(network.weighted_layers()):  # grads stay the zeros built above
            layer.W, layer.b = tensors[f"W{i}"], tensors[f"b{i}"]
        return network


def _describe(tensor):
    return "missing" if tensor is None else f"{tensor.dtype.name} {tensor.shape}"


def he_normal(rng, fan_in, shape, dtype):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)


class Dense:
    def __init__(self, n_in, n_out, rng, dtype=np.float64):
        self.W = he_normal(rng, n_in, (n_in, n_out), dtype)
        self.b = np.zeros(n_out, dtype=dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x, cache=True):
        self._x = x if cache else None
        return x @ self.W + self.b

    def backward(self, grad, input_grad=True):
        self.dW[...] = self._x.T @ grad
        self.db[...] = grad.sum(axis=0)
        return grad @ self.W.T if input_grad else None

    def params(self):
        return [(self.W, self.dW), (self.b, self.db)]


class ReLU:
    def forward(self, x, cache=True):
        mask = x > 0
        self._mask = mask if cache else None
        return x * mask

    def backward(self, grad):
        return grad * self._mask

    def params(self):
        return []


class Conv2d:
    """Valid (no-padding) stride-1 convolution on (B, C, H, W) input.

    im2col rows are ordered (kh, kw, C). With several channels they are one
    copy of a sliding-window view whose (kw, C) runs are contiguous when the
    input is channels-last in memory; a single channel copies one slice per
    window offset instead, since its runs would be only kw values long.
    W keeps its (F, C, kh, kw) shape; `_wmat` reorders it to match the
    columns.
    """

    def __init__(self, in_channels, filters, kernel, rng, dtype=np.float64):
        kh, kw = kernel
        fan_in = in_channels * kh * kw
        self.W = he_normal(rng, fan_in, (filters, in_channels, kh, kw), dtype)
        self.b = np.zeros(filters, dtype=dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.kernel = (kh, kw)

    def _wmat(self):
        # (kh*kw*C, F) matrix for the im2col product
        return self.W.transpose(2, 3, 1, 0).reshape(-1, self.W.shape[0])

    def forward(self, x, cache=True):
        kh, kw = self.kernel
        xl = x.transpose(0, 2, 3, 1)  # (B, H, W, C)
        b_, h, w, c = xl.shape
        ho, wo = h - kh + 1, w - kw + 1
        self._cols = None
        if c > 1:
            windows = sliding_window_view(xl, (kh, kw), axis=(1, 2))  # (B, Ho, Wo, C, kh, kw)
            cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
        else:
            cols = np.empty((b_, ho, wo, kh, kw, c), dtype=x.dtype)
            for p in range(kh):
                for q in range(kw):
                    cols[:, :, :, p, q, :] = xl[:, p : p + ho, q : q + wo, :]
        cols = cols.reshape(b_ * ho * wo, -1)
        self._xshape = xl.shape
        out = cols @ self._wmat()
        self._cols = cols if cache else None
        out += self.b
        return out.reshape(b_, ho, wo, -1).transpose(0, 3, 1, 2)

    def backward(self, grad, input_grad=True):
        kh, kw = self.kernel
        f, c = self.W.shape[:2]
        b_, ho, wo = grad.shape[0], grad.shape[2], grad.shape[3]
        g = grad.transpose(0, 2, 3, 1).reshape(-1, f)  # (B*Ho*Wo, F)
        self.dW[...] = (self._cols.T @ g).reshape(kh, kw, c, f).transpose(3, 2, 0, 1)
        self._cols = None  # spent; freed before the input-gradient slabs are built
        self.db[...] = g.sum(axis=0)
        if not input_grad:
            return None
        wk = self.W.transpose(2, 3, 0, 1).reshape(kh * kw, f, c)
        if c > 1:
            slabs = np.matmul(g, wk)  # (kh*kw, B*Ho*Wo, C)
        else:  # one (B*Ho*Wo, kh*kw) GEMM, read transposed: per offset the
            # product would be matrix-vector, slower and summed in another order
            slabs = (g @ wk[:, :, 0].T).T
        slabs = slabs.reshape(kh, kw, b_, ho, wo, c)
        dx = np.zeros(self._xshape, dtype=grad.dtype)  # (B, H, W, C)
        for p in range(kh):
            for q in range(kw):
                dx[:, p : p + ho, q : q + wo, :] += slabs[p, q]
        return dx.transpose(0, 3, 1, 2)

    def params(self):
        return [(self.W, self.dW), (self.b, self.db)]


class MaxPool2x2:
    """2x2 max pooling, stride 2, floor on odd sizes.

    Backward routes the gradient to the first maximal element of each
    window (argmax tie rule), in the order (0,0), (0,1), (1,0), (1,1).
    Only that index is kept, as uint8, never the input.
    """

    def forward(self, x, cache=True):
        xl = x.transpose(0, 2, 3, 1)  # (B, H, W, C)
        self._xshape = xl.shape
        ho, wo = xl.shape[1] // 2, xl.shape[2] // 2
        q0, q1, q2, q3 = (
            xl[:, p : 2 * ho : 2, q : 2 * wo : 2, :] for p in (0, 1) for q in (0, 1)
        )
        top, bottom = np.maximum(q0, q1), np.maximum(q2, q3)
        self._index = None
        if cache:
            first = (q1 > q0).view(np.uint8)  # 0 or 1: first max of the top pair
            second = (q3 > q2).view(np.uint8) + np.uint8(2)  # 2 or 3: bottom pair
            self._index = first + (bottom > top).view(np.uint8) * (second - first)
        out = np.maximum(top, bottom, out=top)
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad):
        g = grad.transpose(0, 2, 3, 1)  # (B, Ho, Wo, C)
        ho, wo = g.shape[1:3]
        dx = np.zeros(self._xshape, dtype=grad.dtype)  # (B, H, W, C)
        for k in range(4):
            p, q = divmod(k, 2)
            np.multiply(g, self._index == k, out=dx[:, p : 2 * ho : 2, q : 2 * wo : 2, :])
        return dx.transpose(0, 3, 1, 2)

    def params(self):
        return []


class Flatten:
    def forward(self, x, cache=True):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)

    def params(self):
        return []


def forward(layers, x, cache=True):
    for layer in layers:
        x = layer.forward(x, cache=cache)
    return x


def backward(layers, grad):
    """Fill the parameter gradients of `layers` from the loss gradient
    `grad`; returns nothing. The input gradient of the first weighted layer
    is not computed, and the parameter-free layers before it are not run."""
    first = next(i for i, layer in enumerate(layers) if layer.params())
    for layer in reversed(layers[first + 1 :]):
        grad = layer.backward(grad)
    layers[first].backward(grad, input_grad=False)


def parameters(layers):
    out = []
    for layer in layers:
        out.extend(layer.params())
    return out


class SGDMomentum:
    def __init__(self, layers, lr, momentum=0.9):
        self.lr = lr
        self.momentum = momentum
        self._params = parameters(layers)
        self._velocity = [np.zeros_like(p) for p, _ in self._params]

    def step(self):
        for (p, g), v in zip(self._params, self._velocity):
            v *= self.momentum
            v -= self.lr * g
            p += v


def fit(layers, batch, n, loss, epochs, rng, lr, momentum, batch_size):
    """Mini-batch SGD with momentum over `n` examples; returns the mean loss
    of each epoch.

    Each epoch cuts `rng.permutation(n)` into `batch_size` slices. For a
    slice `idx`, `batch(idx)` gives the (input, target) pair and
    `loss(output, target)` the loss and its gradient. A non-finite loss
    raises DivergenceError. `forward` and `backward` are read as module
    globals, as perfbench's tracer expects.
    """
    opt = SGDMomentum(layers, lr=lr, momentum=momentum)
    history = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            x, target = batch(idx)
            value, grad = loss(forward(layers, x), target)
            if not np.isfinite(value):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            backward(layers, grad)
            opt.step()
            total += float(value) * len(idx)
        history.append(total / n)
    return history


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy and gradient w.r.t. logits."""
    n = logits.shape[0]
    probs = softmax(logits)
    eps = np.finfo(probs.dtype).tiny
    loss = -np.log(probs[np.arange(n), labels] + eps).mean()
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def mse(pred, target):
    """Mean squared error over all entries and gradient w.r.t. pred."""
    diff = pred - target
    loss = float((diff**2).mean())
    return loss, 2.0 * diff / diff.size
