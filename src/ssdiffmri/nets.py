"""Hand-rolled convolutional denoiser and discriminator with analytic gradients.

No learning framework: layers cache their forward activations and implement
exact backward passes into flat parameter/gradient/moment arrays, which is
all the Adam update needs. Gradient correctness is pinned by central
finite-difference tests.

Activations are channels-last (batch, rows, cols, channels); that keeps the
im2col gather contiguous, which dominates the runtime otherwise.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensorio

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class ParamBlock:
    name: str
    shape: tuple
    start: int
    stop: int


@dataclass
class ModelState:
    """Flat parameter vector with parallel gradient and Adam moment buffers."""

    params: np.ndarray
    grads: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int
    blocks: list
    buffers: dict = field(default_factory=dict)

    def view(self, name, which="params"):
        blk = self._block(name)
        return getattr(self, which)[blk.start:blk.stop].reshape(blk.shape)

    def _block(self, name):
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError(f"no parameter block named {name!r}")

    def zero_grads(self):
        self.grads[:] = 0.0

    def require_finite(self, which="grads"):
        arr = getattr(self, which)
        for blk in self.blocks:
            if not np.all(np.isfinite(arr[blk.start:blk.stop])):
                raise FloatingPointError(
                    f"non-finite {which} in parameter block {blk.name!r}"
                )

    def require_finite_grads(self):
        self.require_finite("grads")


class _StateBuilder:
    """Accumulates block layouts, then materializes one flat ModelState."""

    def __init__(self, dtype):
        self.dtype = dtype
        self.blocks = []
        self.inits = []
        self.buffers = {}
        self.size = 0

    def add(self, name, shape, init):
        n = int(np.prod(shape))
        self.blocks.append(ParamBlock(name, tuple(shape), self.size, self.size + n))
        self.inits.append(init)
        self.size += n

    def add_buffer(self, name, array):
        self.buffers[name] = np.asarray(array, dtype=self.dtype)

    def build(self):
        params = np.zeros(self.size, dtype=self.dtype)
        for blk, init in zip(self.blocks, self.inits):
            params[blk.start:blk.stop] = np.asarray(init, dtype=self.dtype).ravel()
        zeros = lambda: np.zeros(self.size, dtype=self.dtype)
        return ModelState(params=params, grads=zeros(), m=zeros(), v=zeros(),
                          step=0, blocks=self.blocks, buffers=self.buffers)


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class _Conv3x3:
    """3x3 same-padding convolution via im2col and one GEMM.

    Weights live as a (9*cin, cout) matrix so both the forward product and
    the weight-gradient product run in their fastest BLAS orientation.
    """

    def __init__(self, state, name, cin, cout):
        self.state = state
        self.name = name
        self.cin = cin
        self.cout = cout
        self._cache = None

    def _im2col(self, x):
        B, H, W, C = x.shape
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
        # window dims are appended last: (B, H, W, C, 3, 3) -> (.., 3, 3, C)
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(B * H * W, 9 * C)

    def forward(self, x, keep_cache):
        B, H, W, C = x.shape
        cols = self._im2col(x)
        out = cols @ self.state.view(f"{self.name}.w") + self.state.view(f"{self.name}.b")
        if keep_cache:
            self._cache = (cols, (B, H, W, C))
        return out.reshape(B, H, W, self.cout)

    def backward(self, g, accumulate=True):
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward without cached forward")
        cols, (B, H, W, C) = self._cache
        gmat = g.reshape(B * H * W, self.cout)
        if accumulate:
            self.state.view(f"{self.name}.w", "grads")[...] += cols.T @ gmat
            self.state.view(f"{self.name}.b", "grads")[...] += gmat.sum(axis=0)
        # column gradients tap-major, (3, 3, B, H, W, C): one GEMM per tap
        # against that tap's (C, cout) weight rows, so every tap's scatter
        # below adds a contiguous image instead of a C-wide strided slice
        w_taps = self.state.view(f"{self.name}.w").reshape(9, C, self.cout)
        dcols = np.matmul(gmat, w_taps.transpose(0, 2, 1)).reshape(3, 3, B, H, W, C)
        dxp = np.zeros((B, H + 2, W + 2, C), dtype=g.dtype)
        for i in range(3):
            for j in range(3):
                dxp[:, i:i + H, j:j + W, :] += dcols[i, j]
        return dxp[:, 1:H + 1, 1:W + 1, :]

    @staticmethod
    def register(builder, name, cin, cout, rng):
        builder.add(f"{name}.w", (9 * cin, cout),
                    _he_uniform(rng, (9 * cin, cout), 9 * cin))
        builder.add(f"{name}.b", (cout,), np.zeros(cout))


class _ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, keep_cache):
        if keep_cache:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, g):
        if self._mask is None:
            raise RuntimeError("relu: backward without cached forward")
        return g * self._mask


class _BatchNorm:
    """Per-channel normalization: batch statistics in train mode, frozen
    running averages in eval mode."""

    def __init__(self, state, name, channels):
        self.state = state
        self.name = name
        self.channels = channels
        self._cache = None

    def forward(self, x, train, keep_cache, update_running=True):
        gamma = self.state.view(f"{self.name}.gamma")
        beta = self.state.view(f"{self.name}.beta")
        run_mean = self.state.buffers[f"{self.name}.run_mean"]
        run_var = self.state.buffers[f"{self.name}.run_var"]
        if train:
            mu = x.mean(axis=(0, 1, 2))
            var = x.var(axis=(0, 1, 2))
            if update_running:
                run_mean *= 1.0 - BN_MOMENTUM
                run_mean += BN_MOMENTUM * mu
                run_var *= 1.0 - BN_MOMENTUM
                run_var += BN_MOMENTUM * var
        else:
            mu, var = run_mean, run_var
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mu) * ivar
        if keep_cache:
            self._cache = (xhat, ivar, train)
        return gamma * xhat + beta

    def backward(self, g, accumulate=True):
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward without cached forward")
        xhat, ivar, train = self._cache
        gamma = self.state.view(f"{self.name}.gamma")
        if accumulate:
            self.state.view(f"{self.name}.gamma", "grads")[...] += (g * xhat).sum(axis=(0, 1, 2))
            self.state.view(f"{self.name}.beta", "grads")[...] += g.sum(axis=(0, 1, 2))
        dxhat = g * gamma
        if not train:
            return dxhat * ivar
        B, H, W, C = g.shape
        n = B * H * W
        s1 = dxhat.sum(axis=(0, 1, 2))
        s2 = (dxhat * xhat).sum(axis=(0, 1, 2))
        return (ivar / n) * (n * dxhat - s1 - xhat * s2)

    @staticmethod
    def register(builder, name, channels):
        builder.add(f"{name}.gamma", (channels,), np.ones(channels))
        builder.add(f"{name}.beta", (channels,), np.zeros(channels))
        builder.add_buffer(f"{name}.run_mean", np.zeros(channels))
        builder.add_buffer(f"{name}.run_var", np.ones(channels))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


@dataclass(frozen=True)
class DenoiserSpec:
    """Channel chain of the residual reference denoiser.

    ``channels`` runs input -> hidden... -> output; the input covers the
    noisy sample (2), the step embedding (1), and the conditioning image (2).
    """

    channels: tuple = (5, 32, 32, 32, 32, 2)

    @property
    def param_count(self):
        total = 0
        for cin, cout in zip(self.channels[:-1], self.channels[1:]):
            total += 9 * cin * cout + cout
        return total


@dataclass(frozen=True)
class DiscriminatorSpec:
    """Four 3x3 convolutions (each ReLU + batch norm) and a sigmoid scalar head."""

    in_channels: int = 4
    width: int = 16
    n_layers: int = 4

    @property
    def param_count(self):
        total = 0
        cin = self.in_channels
        for _ in range(self.n_layers):
            total += 9 * cin * self.width + self.width
            total += 2 * self.width  # batch norm gamma/beta
            cin = self.width
        return total + self.width + 1  # scalar head


class Denoiser:
    """Residual stack of 3x3 convolutions predicting the clean image.

    Inputs and outputs are channels-last: (batch, rows, cols, 2) with the
    real and imaginary parts as the two channels.
    """

    def __init__(self, spec, seed=0, dtype=np.float64):
        self.spec = spec
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        builder = _StateBuilder(dtype)
        for i, (cin, cout) in enumerate(zip(spec.channels[:-1], spec.channels[1:])):
            _Conv3x3.register(builder, f"conv{i}", cin, cout, rng)
        self.state = builder.build()
        self.convs = [
            _Conv3x3(self.state, f"conv{i}", cin, cout)
            for i, (cin, cout) in enumerate(zip(spec.channels[:-1], spec.channels[1:]))
        ]
        self.relus = [_ReLU() for _ in range(len(self.convs) - 1)]
        self._cached = False

    def forward(self, y_t, t_frac, cond=None, train=False, keep_cache=False):
        """Map (noisy sample, step fraction, conditioning) to a clean estimate.

        `t_frac` is a length-B vector of t/T values injected as a constant
        channel.
        """
        y_t = np.asarray(y_t, dtype=self.dtype)
        B, H, W, C = y_t.shape
        if C != 2:
            raise ValueError("y_t must have 2 trailing channels (real, imag)")
        t_frac = np.asarray(t_frac, dtype=self.dtype).reshape(B, 1, 1, 1)
        tchan = np.broadcast_to(t_frac, (B, H, W, 1))
        if cond is None:
            cond = np.zeros_like(y_t)
        cond = np.asarray(cond, dtype=self.dtype)
        x = np.concatenate([y_t, tchan, cond], axis=-1)
        if x.shape[-1] != self.spec.channels[0]:
            raise ValueError(
                f"assembled input has {x.shape[-1]} channels, spec wants {self.spec.channels[0]}"
            )
        h = x
        for i, conv in enumerate(self.convs):
            h = conv.forward(h, keep_cache)
            if i < len(self.relus):
                h = self.relus[i].forward(h, keep_cache)
        self._cached = keep_cache
        return h + y_t

    def backward(self, upstream):
        """Accumulate parameter gradients; returns the gradient w.r.t. the
        assembled input channels."""
        if not self._cached:
            raise RuntimeError("denoiser backward without cached forward")
        res = g = np.asarray(upstream, dtype=self.dtype)
        for i in reversed(range(len(self.convs))):
            if i < len(self.relus):
                g = self.relus[i].backward(g)
            g = self.convs[i].backward(g)
        g = g.copy()
        g[..., :2] += res
        return g


class Discriminator:
    """Conv/ReLU/BN stack with a global-average sigmoid head scoring
    (sample, conditioning) channel pairs."""

    def __init__(self, spec, seed=0, dtype=np.float64):
        self.spec = spec
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        builder = _StateBuilder(dtype)
        cin = spec.in_channels
        for i in range(spec.n_layers):
            _Conv3x3.register(builder, f"conv{i}", cin, spec.width, rng)
            _BatchNorm.register(builder, f"bn{i}", spec.width)
            cin = spec.width
        builder.add("head.w", (spec.width,), _he_uniform(rng, (spec.width,), spec.width))
        builder.add("head.b", (1,), np.zeros(1))
        self.state = builder.build()
        self.convs = [_Conv3x3(self.state, f"conv{i}",
                               spec.in_channels if i == 0 else spec.width, spec.width)
                      for i in range(spec.n_layers)]
        self.relus = [_ReLU() for _ in range(spec.n_layers)]
        self.bns = [_BatchNorm(self.state, f"bn{i}", spec.width)
                    for i in range(spec.n_layers)]
        self._cache = None

    def forward(self, sample, cond, train=False, keep_cache=False, update_running=True):
        """Score each batch element in (0, 1); sample and conditioning are
        concatenated as channels."""
        sample = np.asarray(sample, dtype=self.dtype)
        cond = np.asarray(cond, dtype=self.dtype)
        if sample.shape != cond.shape:
            raise ValueError("sample and conditioning shapes must match")
        x = np.concatenate([sample, cond], axis=-1)
        if x.shape[-1] != self.spec.in_channels:
            raise ValueError(
                f"got {x.shape[-1]} input channels, spec wants {self.spec.in_channels}"
            )
        h = x
        for conv, relu, bn in zip(self.convs, self.relus, self.bns):
            h = conv.forward(h, keep_cache)
            h = relu.forward(h, keep_cache)
            h = bn.forward(h, train, keep_cache, update_running)
        pooled = h.mean(axis=(1, 2))
        z = pooled @ self.state.view("head.w") + self.state.view("head.b")[0]
        score = _sigmoid(z)
        if keep_cache:
            self._cache = (pooled, score, h.shape)
        return score

    def backward(self, dscore, accumulate=True):
        """Backprop from per-element score gradients; returns the gradient
        w.r.t. the concatenated input channels."""
        if self._cache is None:
            raise RuntimeError("discriminator backward without cached forward")
        pooled, score, hshape = self._cache
        dz = np.asarray(dscore, dtype=self.dtype) * score * (1.0 - score)
        w = self.state.view("head.w")
        if accumulate:
            self.state.view("head.w", "grads")[...] += pooled.T @ dz
            self.state.view("head.b", "grads")[...] += dz.sum()
        B, H, W, C = hshape
        g = (dz[:, None] * w[None, :])[:, None, None, :] / (H * W)
        g = np.broadcast_to(g, hshape).astype(self.dtype, copy=True)
        for conv, relu, bn in zip(reversed(self.convs), reversed(self.relus),
                                  reversed(self.bns)):
            g = bn.backward(g, accumulate)
            g = relu.backward(g)
            g = conv.backward(g, accumulate)
        return g

    def input_grad(self, sample, cond, train=False):
        """Gradient of the summed scores w.r.t. the sample channels.

        Leaves parameter gradients untouched; running statistics are not
        updated by the extra forward pass.
        """
        n = sample.shape[0]
        self.forward(sample, cond, train=train, keep_cache=True, update_running=False)
        g = self.backward(np.ones(n, dtype=self.dtype), accumulate=False)
        return g[..., : sample.shape[-1]]

    def penalty_param_grads(self, sample, cond, input_grads, scale, h=1e-3, train=False):
        """Accumulate d/dtheta of ``scale * 0.5 * sum_b ||input_grads[b]||^2``.

        Uses a centered finite difference of the backward pass along the
        cached input gradient, which avoids hand-written double backprop;
        the O(h^2) error is negligible for a regularizer.
        """
        gnorm = float(np.sqrt(np.mean(input_grads**2)))
        if gnorm == 0.0:
            return
        step = h / gnorm
        bump = step * input_grads
        n = sample.shape[0]
        coeff = scale / (2.0 * step)
        for sgn in (+1.0, -1.0):
            self.forward(sample + sgn * bump, cond, train=train,
                         keep_cache=True, update_running=False)
            self.backward(np.full(n, sgn * coeff, dtype=self.dtype))
        self._cache = None


def adam_step(state, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam update in place; gradients are zeroed afterward."""
    state.require_finite_grads()
    state.step += 1
    g = state.grads
    state.m *= beta1
    state.m += (1.0 - beta1) * g
    state.v *= beta2
    state.v += (1.0 - beta2) * g * g
    mhat = state.m / (1.0 - beta1**state.step)
    vhat = state.v / (1.0 - beta2**state.step)
    state.params -= lr * mhat / (np.sqrt(vhat) + eps)
    state.require_finite("params")
    state.zero_grads()


def save_state(state, directory, prefix, include_moments=True):
    """Write one CKSP tensor per parameter block plus a JSON index."""
    os.makedirs(directory, exist_ok=True)
    index = {"blocks": {}, "buffers": list(state.buffers), "step": state.step,
             "moments_included": bool(include_moments)}
    for blk in state.blocks:
        index["blocks"][blk.name] = list(blk.shape)
        tensorio.write_tensor(state.view(blk.name).astype(np.complex128),
                              os.path.join(directory, f"{prefix}.{blk.name}.cksp"))
        if include_moments:
            for which in ("m", "v"):
                tensorio.write_tensor(
                    state.view(blk.name, which).astype(np.complex128),
                    os.path.join(directory, f"{prefix}.{blk.name}.{which}.cksp"))
    for name, buf in state.buffers.items():
        tensorio.write_tensor(buf.astype(np.complex128),
                              os.path.join(directory, f"{prefix}.buf.{name}.cksp"))
    with open(os.path.join(directory, f"{prefix}.index.json"), "w") as f:
        json.dump(index, f, indent=2, sort_keys=True)


def load_state(state, directory, prefix):
    """Restore parameters, moments, buffers, and the step counter in place."""
    with open(os.path.join(directory, f"{prefix}.index.json")) as f:
        index = json.load(f)
    for blk in state.blocks:
        t = tensorio.read_tensor(os.path.join(directory, f"{prefix}.{blk.name}.cksp"))
        state.view(blk.name)[...] = t.real.astype(state.params.dtype)
        if index["moments_included"]:
            for which in ("m", "v"):
                t = tensorio.read_tensor(
                    os.path.join(directory, f"{prefix}.{blk.name}.{which}.cksp"))
                state.view(blk.name, which)[...] = t.real.astype(state.params.dtype)
    for name in state.buffers:
        t = tensorio.read_tensor(os.path.join(directory, f"{prefix}.buf.{name}.cksp"))
        state.buffers[name][...] = t.real.astype(state.params.dtype)
    state.step = int(index["step"])
