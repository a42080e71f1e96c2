"""Hand-rolled convolutional denoiser and discriminator with analytic gradients.

No learning framework: layers cache their forward activations and implement
exact backward passes into flat parameter/gradient/moment arrays, which is
all the Adam update needs. Gradient correctness is pinned by central
finite-difference tests.

Activations are channels-last (batch, rows, cols, channels); that keeps the
im2col gather contiguous. A conv caches its zero-padded input, not the
im2col: nine times the input would dominate a training step's memory. The
GEMMs instead form the columns in blocks of whole image rows of at most
``_BLOCK_BYTES`` (one block when the whole im2col fits). A conv's input
gradient is the output gradient's im2col times the flipped kernel; its
weight gradient comes from the narrower of the two im2cols (the input's
when cin < cout, else the output gradient's), against the other side's
pixels.

Rule: per-channel work never runs on rows C elements long. With 2-32
channels innermost, numpy's inner loop would do almost nothing per call, so
per-channel sums are one BLAS product (``_channel_sum``), and per-channel
broadcasts act on ``_rows`` views W*C wide against the channel vector tiled
W times (``np.tile(v, W)``).
"""

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

from . import tensorio

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# bytes of im2col a conv forms at a time: one core's L2 on a desk machine
_BLOCK_BYTES = 2 << 20


@dataclass
class ParamBlock:
    name: str
    shape: tuple
    start: int
    stop: int


class ModelState:
    """Flat parameter vector with parallel gradient and Adam moment buffers.

    Layers claim consecutive blocks of the flat arrays with ``add`` and keep
    the returned views, so the block order is the construction order.
    """

    def __init__(self, size, dtype):
        self.params = np.zeros(size, dtype=dtype)
        self.grads = np.zeros(size, dtype=dtype)
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        self.step = 0
        self.blocks = []
        self.buffers = {}

    def add(self, name, shape, init):
        """Claim the next block, fill it with `init`, and return its
        (parameter, gradient) views."""
        start = self.blocks[-1].stop if self.blocks else 0
        blk = ParamBlock(name, tuple(shape), start, start + int(np.prod(shape)))
        self.blocks.append(blk)
        param = self.params[blk.start:blk.stop].reshape(blk.shape)
        param[...] = init
        return param, self.grads[blk.start:blk.stop].reshape(blk.shape)

    def zero_grads(self):
        self.grads[:] = 0.0

    def snapshot(self):
        """Copies of everything an update changes: params, Adam moments,
        buffers and the step count."""
        arrays = (self.params, self.m, self.v, *self.buffers.values())
        return [a.copy() for a in arrays], self.step

    def restore(self, snap):
        """Return in place to a `snapshot` (the layers keep their views),
        with zero gradients."""
        arrays, self.step = snap
        for dst, src in zip((self.params, self.m, self.v, *self.buffers.values()), arrays):
            dst[...] = src
        self.zero_grads()

    def require_finite(self, which="grads"):
        arr = getattr(self, which)
        for blk in self.blocks:
            if not np.all(np.isfinite(arr[blk.start:blk.stop])):
                raise FloatingPointError(
                    f"non-finite {which} in parameter block {blk.name!r}"
                )


def _channel_sum(x, channels):
    """Per-channel sum of channel-innermost `x` (any leading shape, `_rows`
    views included), as one gemv."""
    flat = x.reshape(-1, channels)
    return np.ones(flat.shape[0], flat.dtype) @ flat


def _rows(x):
    """View channels-last (B, H, W, C) `x` as (B*H, W*C): one image row per row."""
    return x.reshape(-1, x.shape[-2] * x.shape[-1])


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _pad(x):
    """Zero-pad channels-last (B, H, W, C) `x` by one pixel on each side
    (``np.pad`` takes about five times as long on a B=1 desk image)."""
    B, H, W, C = x.shape
    xp = np.zeros((B, H + 2, W + 2, C), x.dtype)
    xp[:, 1:-1, 1:-1] = x
    return xp


def _im2col_blocks(xp):
    """Yield (flat output rows, pixel index, im2col block) of padded `xp`
    in blocks of whole image rows, each at most `_BLOCK_BYTES` (at least
    one row). The pixel index selects the block's pixels from any
    (B, H, W, ...) array.

    A block holds whole images when an image fits, else consecutive rows of
    one image. An input whose whole im2col fits is one block.
    """
    B, Hp, Wp, C = xp.shape
    H, W = Hp - 2, Wp - 2
    # window dims are appended last: (B, H, W, C, 3, 3) -> (.., 3, 3, C)
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    win = win.transpose(0, 1, 2, 4, 5, 3)
    rows = max(1, _BLOCK_BYTES // (W * 9 * C * xp.itemsize))
    if rows >= H:
        per = rows // H
        blocks = ((slice(b * H * W, (b + per) * H * W), slice(b, b + per))
                  for b in range(0, B, per))
    else:
        blocks = ((slice((b * H + r) * W, (b * H + min(r + rows, H)) * W),
                   (b, slice(r, r + rows)))
                  for b in range(B) for r in range(0, H, rows))
    for flat, pix in blocks:
        yield flat, pix, win[pix].reshape(-1, 9 * C)


class _Conv3x3:
    """3x3 same-padding convolution as im2col GEMMs.

    Weights live as a (9*cin, cout) matrix. The cache holds the zero-padded
    input, not its im2col, which is nine times larger. The forward pass
    forms the input's im2col; the backward pass forms the output gradient's
    and, for a widening layer's weight gradient, the input's again. Both
    run in blocks that fit a core's L2 (`_im2col_blocks`), with one GEMM
    per block for each product.
    """

    def __init__(self, state, name, cin, cout, rng):
        self.state = state  # read by perfbench's tracer to tell the nets apart
        self.name = name
        self.cin = cin
        self.cout = cout
        self.w, self.dw = state.add(f"{name}.w", (9 * cin, cout),
                                    _he_uniform(rng, (9 * cin, cout), 9 * cin))
        self.b, self.db = state.add(f"{name}.b", (cout,), 0.0)
        self._cache = None

    def forward(self, x, keep_cache):
        B, H, W, _ = x.shape
        xp = _pad(x)
        out = np.empty((B * H * W, self.cout), np.result_type(x, self.w))
        for flat, _, cols in _im2col_blocks(xp):
            np.matmul(cols, self.w, out=out[flat])
        out_rows = out.reshape(B * H, W * self.cout)
        out_rows += np.tile(self.b, W)
        if keep_cache:
            self._cache = xp
        return out.reshape(B, H, W, self.cout)

    def backward(self, g, accumulate=True, input_grad=True):
        """Accumulate the parameter gradients (if `accumulate`) and return
        the input gradient, or None when `input_grad` is false.

        The transpose of a same-padded 3x3 conv is the same conv of g with
        the kernel flipped in both spatial axes and cin, cout swapped, so the
        input gradient is the im2col of the padded `g` times the flipped
        kernel. The weight gradient comes from the narrower im2col, chosen by
        layer shape alone so that `input_grad` leaves it unchanged: when
        cin < cout, the cached input's im2col against g's pixels; otherwise
        the input's pixels against g's im2col, whose column tap (ky, kx)
        meets kernel tap (2 - ky, 2 - kx).
        """
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward without cached forward")
        cin, cout = self.cin, self.cout
        dw_from_x = accumulate and cin < cout
        dw_from_g = accumulate and not dw_from_x
        dx = None
        if accumulate:
            self.db += _channel_sum(g, cout)
        if dw_from_x:
            dw = np.zeros(self.dw.shape, self.dw.dtype)
            g_pix = g.reshape(-1, cout)
            for flat, _, cols in _im2col_blocks(self._cache):
                dw += cols.T @ g_pix[flat]
            self.dw += dw
        if input_grad:
            dx = np.empty((g.size // cout, cin), np.result_type(g, self.w))
            w_flip = (self.w.reshape(3, 3, cin, cout)[::-1, ::-1]
                      .transpose(0, 1, 3, 2).reshape(9 * cout, cin))
        if dw_from_g:
            dw_flip = np.zeros((cin, 9 * cout), self.dw.dtype)
            x = self._cache[:, 1:-1, 1:-1]
        if input_grad or dw_from_g:
            for flat, pix, cols in _im2col_blocks(_pad(g)):
                if input_grad:
                    np.matmul(cols, w_flip, out=dx[flat])
                if dw_from_g:
                    dw_flip += x[pix].reshape(-1, cin).T @ cols
        if dw_from_g:
            self.dw += (dw_flip.reshape(cin, 3, 3, cout)[:, ::-1, ::-1]
                        .transpose(1, 2, 0, 3).reshape(9 * cin, cout))
        return None if dx is None else dx.reshape(g.shape[:-1] + (cin,))


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
        self.name = name
        self.gamma, self.dgamma = state.add(f"{name}.gamma", (channels,), 1.0)
        self.beta, self.dbeta = state.add(f"{name}.beta", (channels,), 0.0)
        dtype = state.params.dtype
        self.run_mean = state.buffers[f"{name}.run_mean"] = np.zeros(channels, dtype)
        self.run_var = state.buffers[f"{name}.run_var"] = np.ones(channels, dtype)
        self._cache = None

    def forward(self, x, train, keep_cache, update_running=True):
        run_mean, run_var = self.run_mean, self.run_var
        B, H, W, C = x.shape
        if train:
            n = B * H * W
            mu = _channel_sum(x, C) / n
            xc = _rows(x) - np.tile(mu, W)
            var = _channel_sum(xc * xc, C) / n
            if update_running:
                run_mean *= 1.0 - BN_MOMENTUM
                run_mean += BN_MOMENTUM * mu
                run_var *= 1.0 - BN_MOMENTUM
                run_var += BN_MOMENTUM * var
        else:
            mu, var = run_mean, run_var
            xc = _rows(x) - np.tile(mu, W)
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat = xc
        xhat *= np.tile(ivar, W)
        if keep_cache:
            self._cache = (xhat, ivar, train)
        out = xhat * np.tile(self.gamma, W)
        out += np.tile(self.beta, W)
        return out.reshape(x.shape)

    def backward(self, g, accumulate=True):
        """Input gradient from the two per-channel sums s1 = sum(g) and
        s2 = sum(g * xhat): dx = gamma * ivar * (g - s1 / n - xhat * s2 / n)
        in train mode, one per-channel affine map of g and xhat, and
        dx = gamma * ivar * g in eval mode."""
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward without cached forward")
        xhat, ivar, train = self._cache
        B, H, W, C = g.shape
        g_rows = _rows(g)
        if accumulate or train:
            s1 = _channel_sum(g_rows, C)
            s2 = _channel_sum(g_rows * xhat, C)
        if accumulate:
            self.dgamma += s2
            self.dbeta += s1
        scale = self.gamma * ivar
        dx = g_rows * np.tile(scale, W)
        if train:
            n = B * H * W
            dx -= xhat * np.tile(scale * s2 / n, W)
            dx -= np.tile(scale * s1 / n, W)
        return dx.reshape(g.shape)


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
        self.state = ModelState(spec.param_count, dtype)
        self.convs = [
            _Conv3x3(self.state, f"conv{i}", cin, cout, rng)
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
        """Accumulate parameter gradients. The input gradient is not formed:
        nothing upstream of the denoiser has parameters."""
        if not self._cached:
            raise RuntimeError("denoiser backward without cached forward")
        g = np.asarray(upstream, dtype=self.dtype)
        for i in reversed(range(len(self.convs))):
            if i < len(self.relus):
                g = self.relus[i].backward(g)
            g = self.convs[i].backward(g, input_grad=i > 0)


class Discriminator:
    """Conv/ReLU/BN stack with a global-average sigmoid head scoring
    (sample, conditioning) channel pairs."""

    def __init__(self, spec, seed=0, dtype=np.float64):
        self.spec = spec
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.state = ModelState(spec.param_count, dtype)
        self.convs, self.bns = [], []
        for i in range(spec.n_layers):
            cin = spec.in_channels if i == 0 else spec.width
            self.convs.append(_Conv3x3(self.state, f"conv{i}", cin, spec.width, rng))
            self.bns.append(_BatchNorm(self.state, f"bn{i}", spec.width))
        self.relus = [_ReLU() for _ in range(spec.n_layers)]
        self.head_w, self.head_dw = self.state.add(
            "head.w", (spec.width,), _he_uniform(rng, (spec.width,), spec.width))
        self.head_b, self.head_db = self.state.add("head.b", (1,), 0.0)
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
        B, H, W, C = h.shape
        pooled = np.ones(H * W, h.dtype) @ h.reshape(B, H * W, C) / (H * W)
        z = pooled @ self.head_w + self.head_b[0]
        score = _sigmoid(z)
        if keep_cache:
            self._cache = (pooled, score, h.shape)
        return score

    def backward(self, dscore, accumulate=True, input_grad=True):
        """Backprop from per-element score gradients; returns the gradient
        w.r.t. the concatenated input channels, or None when `input_grad`
        is false (the first conv then skips forming it)."""
        if self._cache is None:
            raise RuntimeError("discriminator backward without cached forward")
        pooled, score, hshape = self._cache
        dz = np.asarray(dscore, dtype=self.dtype) * score * (1.0 - score)
        if accumulate:
            self.head_dw += pooled.T @ dz
            self.head_db += dz.sum()
        B, H, W, C = hshape
        g_row = dz[:, None] * np.tile(self.head_w, W) / (H * W)
        g = np.repeat(g_row[:, None, :], H, axis=1).reshape(hshape)
        for i in reversed(range(len(self.convs))):
            g = self.bns[i].backward(g, accumulate)
            g = self.relus[i].backward(g)
            g = self.convs[i].backward(g, accumulate, input_grad or i > 0)
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
            self.backward(np.full(n, sgn * coeff, dtype=self.dtype), input_grad=False)
        self._cache = None


def adam_step(state, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam update in place; gradients are zeroed afterward."""
    state.require_finite("grads")
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


# the flat arrays a checkpoint holds per block, and their file suffixes
_BLOCK_FILES = (("params", ""), ("m", ".m"), ("v", ".v"))


def save_state(state, directory, prefix):
    """Write one CKSP tensor per parameter block and per Adam moment block,
    one per buffer, and a JSON index."""
    os.makedirs(directory, exist_ok=True)
    index = {"blocks": {}, "buffers": list(state.buffers), "step": state.step}
    for blk in state.blocks:
        index["blocks"][blk.name] = list(blk.shape)
        for which, suffix in _BLOCK_FILES:
            flat = getattr(state, which)[blk.start:blk.stop]
            tensorio.write_tensor(flat.reshape(blk.shape).astype(np.complex128),
                                  os.path.join(directory, f"{prefix}.{blk.name}{suffix}.cksp"))
    for name, buf in state.buffers.items():
        tensorio.write_tensor(buf.astype(np.complex128),
                              os.path.join(directory, f"{prefix}.buf.{name}.cksp"))
    with open(os.path.join(directory, f"{prefix}.index.json"), "w") as f:
        json.dump(index, f, indent=2, sort_keys=True)


def _read_into(view, path):
    """Fill `view` from the CKSP tensor at `path`; ValueError naming the
    file when the shapes differ."""
    t = tensorio.read_tensor(path)
    if t.shape != view.shape:
        raise ValueError(f"{path}: holds shape {t.shape}, the model has {view.shape}")
    view[...] = t.real


def load_state(state, directory, prefix):
    """Restore parameters, moments, buffers, and the step counter in place;
    a file that does not fit the state raises ValueError naming it."""
    path = os.path.join(directory, f"{prefix}.index.json")
    with open(path) as f:
        try:
            step = json.load(f)["step"]
        except (ValueError, KeyError, TypeError):
            step = None
    if type(step) is not int or step < 0:
        raise ValueError(f"{path}: not a checkpoint index with a step count")
    for blk in state.blocks:
        for which, suffix in _BLOCK_FILES:
            _read_into(getattr(state, which)[blk.start:blk.stop].reshape(blk.shape),
                       os.path.join(directory, f"{prefix}.{blk.name}{suffix}.cksp"))
    for name, buf in state.buffers.items():
        _read_into(buf, os.path.join(directory, f"{prefix}.buf.{name}.cksp"))
    state.step = step


_PREFIXES = ("denoiser", "disc")  # file-name prefixes of the nets in a checkpoint


def save_checkpoint(directory, den_state, disc_state):
    """Publish both nets' states as one checkpoint directory, complete or
    not at all: the files go into the sibling ``<directory>.tmp`` (a stale
    one is cleared first), which is renamed onto `directory` (OSError if
    that is a non-empty directory) or removed when a write fails."""
    tmp = os.path.normpath(directory) + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        for prefix, state in zip(_PREFIXES, (den_state, disc_state)):
            save_state(state, tmp, prefix)
        os.replace(tmp, directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def load_checkpoint(directory, den_state, disc_state):
    """Restore both nets; RuntimeError unless their step counts agree."""
    for prefix, state in zip(_PREFIXES, (den_state, disc_state)):
        load_state(state, directory, prefix)
    if den_state.step != disc_state.step:
        raise RuntimeError(
            f"{directory}: denoiser has {den_state.step} steps but the "
            f"discriminator has {disc_state.step}; not a checkpoint of one run")
