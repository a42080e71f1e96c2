"""Hand-rolled convolutional denoiser and discriminator with analytic gradients.

No learning framework: layers cache their forward activations and implement
exact backward passes into flat parameter/gradient/moment arrays, which is
all the Adam update needs. Gradient correctness is pinned by central
finite-difference tests.

Both nets take complex (B, H, W) images, as ``kspace``, ``diffusion`` and
the data-consistency projection do, and the denoiser returns complex128
images. A gradient with respect to an image, taken or returned, is the
complex ``dL/dRe + i dL/dIm``. Inside, an image is two channels (real,
imag), its float64 parts cast to the net's dtype; that layout is private
to this module.

A cache lives from a caching forward until the net's ``release_caches``.
``Trainer.train_step`` calls it for both nets at the end of every step,
whether it completes or is rolled back, and for the discriminator as soon
as the generator's adversarial gradient is formed, its caches' last
reader, so they are gone before the recon loss and the denoiser's
backward; ``penalty_param_grads`` drops its own when it returns. Within
that span ``backward`` may run any number of times; after it, ``backward``
raises until the next caching forward. The denoiser keeps no ReLU mask:
each ReLU's output is the next conv's cached input, and ``output > 0`` is
``pre-activation > 0`` (for zeros, -0.0 and NaN too). The discriminator
keeps its ReLU masks, because a batch norm reads those outputs.

Activations are channels-last (batch, rows, cols, channels); that keeps the
im2col gather contiguous. A conv caches its zero-padded input, not the
im2col: nine times the input would dominate a training step's memory. The
GEMMs instead form the columns in blocks of whole image rows of at most
``_BLOCK_BYTES`` (one block when the whole im2col fits), in one buffer per
thread that is kept between calls. A conv's input gradient is the output
gradient's im2col times the flipped kernel; its weight gradient comes from
the narrower of the two im2cols (the input's when cin < cout, else the
output gradient's), against the other side's pixels.

Rule: per-channel work never runs on rows C elements long. With 2-32
channels innermost, numpy's inner loop would do almost nothing per call, so
per-channel sums are one BLAS product (``_channel_sum``), and per-channel
broadcasts act on ``_rows`` views W*C wide against the channel vector tiled
W times (``np.tile(v, W)``).
"""

import json
import os
import shutil
import threading
from dataclasses import dataclass

import numpy as np

from . import tensorio

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# input channels: the denoiser reads the noisy sample (real, imag), the step
# fraction and the conditioning (real, imag); the discriminator the sample and
# the conditioning
_DENOISER_IN, _DISC_IN = 5, 4
# bytes of im2col a conv forms at a time. Both the kept block and what
# OpenBLAS packs for its GEMM grow with it: with 2 threads, a first
# (rows, 216) @ (216, 24) float32 GEMM added 2.4 MB of resident memory on a
# 2 MiB operand and 0.86 MB on a 512 KiB one. A sweep over 256 KiB-2 MiB
# on 2 cores left 512 KiB without a time cost; 256 KiB slowed a desk
# reconstruction by a quarter.
_BLOCK_BYTES = 512 << 10
# the buffer `_im2col_blocks` forms its blocks in, one per thread
_scratch = threading.local()


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


def _channels(x, dtype):
    """Complex images (...) as channels-last (..., 2) (real, imag) in `dtype`."""
    x = np.asarray(x)
    return np.asarray(np.stack([x.real, x.imag], axis=-1), dtype)


def _complex(c):
    """Channels-last (..., 2) (real, imag) as complex128 images (...)."""
    c = np.asarray(c, np.float64)
    return c[..., 0] + 1j * c[..., 1]


def _check_pair(x, cond):
    if np.ndim(x) != 3 or np.shape(cond) != np.shape(x):
        raise ValueError("images and conditioning must be (B, H, W) arrays of one shape")


def _conv_size(cin, cout):
    """Parameters of a 3x3 conv: its weights and biases."""
    return 9 * cin * cout + cout


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

    Every block is a view of one buffer per thread, kept between calls and
    valid until the next block is yielded. A new array per block kept two
    blocks alive at each switch: a desk reconstruction's traced temporaries
    peaked at 2.5 MB instead of 1.7 MB (5.0 MB with 2 MiB blocks), and with
    2 MiB blocks, under glibc's default malloc thresholds, it faulted 8400
    pages back in, about half its time.
    """
    B, Hp, Wp, C = xp.shape
    H, W = Hp - 2, Wp - 2
    # window dims are appended last: (B, H, W, C, 3, 3) -> (.., 3, 3, C)
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    win = win.transpose(0, 1, 2, 4, 5, 3)
    rows = max(1, _BLOCK_BYTES // (W * 9 * C * xp.itemsize))
    if rows >= H:
        per = min(rows // H, B)
        blocks = ((slice(b * H * W, (b + per) * H * W), slice(b, b + per))
                  for b in range(0, B, per))
        pixels = per * H * W
    else:
        blocks = ((slice((b * H + r) * W, (b * H + min(r + rows, H)) * W),
                   (b, slice(r, r + rows)))
                  for b in range(B) for r in range(0, H, rows))
        pixels = rows * W
    nbytes = pixels * 9 * C * xp.itemsize
    if getattr(_scratch, "buf", np.empty(0, np.uint8)).nbytes < nbytes:
        _scratch.buf = np.empty(nbytes, np.uint8)
    buf = _scratch.buf[:nbytes].view(xp.dtype).reshape(pixels, 9 * C)
    for flat, pix in blocks:
        block = win[pix]
        cols = buf[:block.size // (9 * C)]
        cols.reshape(block.shape)[...] = block
        yield flat, pix, cols


class _Conv3x3:
    """3x3 same-padding convolution as im2col GEMMs.

    Weights live as a (9*cin, cout) matrix. The cache holds the zero-padded
    input, not its im2col, which is nine times larger. The forward pass
    forms the input's im2col; the backward pass forms the output gradient's
    and, for a widening layer's weight gradient, the input's again. Both
    run in blocks of at most `_BLOCK_BYTES` (`_im2col_blocks`), with one
    GEMM per block for each product.
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
    """The discriminator's ReLU, in place: its input is a conv's output,
    which nothing else reads. It keeps its mask because a batch norm, not
    a conv, reads its output."""

    def __init__(self):
        self._cache = None  # the mask x > 0

    def forward(self, x, keep_cache):
        if keep_cache:
            self._cache = x > 0
        return np.maximum(x, 0.0, out=x)

    def backward(self, g):
        if self._cache is None:
            raise RuntimeError("relu: backward without cached forward")
        return g * self._cache


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

    def forward(self, x, train, update_running=True):
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
    """Logistic function held below 1 (float32 rounds it to 1 from z = 17)."""
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
    return np.minimum(s, np.nextafter(s.dtype.type(1), 0))


class Denoiser:
    """Residual stack of five 3x3 convolutions, `hidden` channels between
    them, with ReLUs, predicting the clean image. A ReLU's mask is read
    from the next conv's cached input, so only the convs cache."""

    def __init__(self, hidden, seed=0, dtype=np.float64):
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        chain = (_DENOISER_IN,) + (hidden,) * 4 + (2,)
        pairs = list(zip(chain[:-1], chain[1:]))
        self.state = ModelState(sum(_conv_size(*p) for p in pairs), dtype)
        self.convs = [_Conv3x3(self.state, f"conv{i}", cin, cout, rng)
                      for i, (cin, cout) in enumerate(pairs)]
        self._cached = False

    def forward(self, y_t, t_frac, cond, keep_cache=False):
        """Map (noisy images, step fractions, conditioning images) to clean
        estimates.

        `y_t` and `cond` are (B, H, W) images; `t_frac` is a length-B vector
        of t/T values injected as a constant channel.
        """
        _check_pair(y_t, cond)
        y = _channels(y_t, self.dtype)
        B, H, W, _ = y.shape
        t_frac = np.asarray(t_frac, dtype=self.dtype).reshape(B, 1, 1, 1)
        tchan = np.broadcast_to(t_frac, (B, H, W, 1))
        h = np.concatenate([y, tchan, _channels(cond, self.dtype)], axis=-1)
        for conv in self.convs[:-1]:
            h = conv.forward(h, keep_cache)
            np.maximum(h, 0.0, out=h)  # ReLU, in place: the next conv caches its output
        h = self.convs[-1].forward(h, keep_cache)
        self._cached = keep_cache
        return _complex(h + y)

    def backward(self, upstream):
        """Accumulate parameter gradients from the gradient w.r.t. the
        output image. The input gradient is not formed: nothing upstream of
        the denoiser has parameters."""
        if not self._cached:
            raise RuntimeError("denoiser backward without cached forward")
        g = _channels(upstream, self.dtype)
        for i in reversed(range(len(self.convs))):
            if i + 1 < len(self.convs):
                # the ReLU's mask: its output, which the next conv cached padded
                g = g * (self.convs[i + 1]._cache[:, 1:-1, 1:-1] > 0)
            g = self.convs[i].backward(g, input_grad=i > 0)

    def release_caches(self):
        """Drop every conv's cached input; `backward` raises until the next
        caching forward."""
        for conv in self.convs:
            conv._cache = None
        self._cached = False


class Discriminator:
    """Four 3x3 convolutions `width` channels wide, each followed by a ReLU
    and batch norm, and a global-average sigmoid head scoring (sample,
    conditioning) image pairs."""

    def __init__(self, width, seed=0, dtype=np.float64):
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        size = (_conv_size(_DISC_IN, width) + 3 * _conv_size(width, width)
                + 4 * 2 * width + width + 1)  # batch norm gamma/beta, scalar head
        self.state = ModelState(size, dtype)
        self.convs, self.bns = [], []
        for i in range(4):
            cin = _DISC_IN if i == 0 else width
            self.convs.append(_Conv3x3(self.state, f"conv{i}", cin, width, rng))
            self.bns.append(_BatchNorm(self.state, f"bn{i}", width))
        self.relus = [_ReLU() for _ in self.convs]
        self.head_w, self.head_dw = self.state.add(
            "head.w", (width,), _he_uniform(rng, (width,), width))
        self.head_b, self.head_db = self.state.add("head.b", (1,), 0.0)
        self._cache = None

    def forward(self, sample, cond, train=False, update_running=True):
        """Score each (B, H, W) image pair in (0, 1). The activations are
        cached for `backward`."""
        _check_pair(sample, cond)
        return self._score(_channels(sample, self.dtype), _channels(cond, self.dtype),
                           train, update_running)

    def _score(self, sample, cond, train, update_running):
        """`forward` on channels-last pairs in the net's dtype."""
        h = np.concatenate([sample, cond], axis=-1)
        for conv, relu, bn in zip(self.convs, self.relus, self.bns):
            h = conv.forward(h, keep_cache=True)
            h = relu.forward(h, keep_cache=True)
            h = bn.forward(h, train, update_running)
        B, H, W, C = h.shape
        pooled = np.ones(H * W, h.dtype) @ h.reshape(B, H * W, C) / (H * W)
        z = pooled @ self.head_w + self.head_b[0]
        score = _sigmoid(z)
        self._cache = (pooled, score, h.shape)
        return score

    def backward(self, dscore, accumulate=True):
        """Backprop from per-element score gradients. With `accumulate`, add
        the parameter gradients and return None (the first conv skips its
        input gradient); without, return the gradient w.r.t. the sample
        image and touch no parameter gradient."""
        g = self._backprop(dscore, accumulate)
        return None if accumulate else _complex(g)

    def _backprop(self, dscore, accumulate):
        """`backward`, with the input gradient as the sample's channels."""
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
            g = self.convs[i].backward(g, accumulate, not accumulate or i > 0)
        return None if accumulate else g[..., :2]

    def release_caches(self):
        """Drop every layer's activations and the head's; `backward` raises
        until the next forward."""
        for layer in (*self.convs, *self.relus, *self.bns):
            layer._cache = None
        self._cache = None

    def penalty_param_grads(self, sample, cond, scale, h=1e-3):
        """Accumulate d/dtheta of ``scale * 0.5 * sum_b ||g_b||^2``, with g
        the input gradient of the scores, and return each element's
        ``||g_b||^2`` (float64).

        The input gradient comes from the cache of the latest forward, which
        must be the train-mode forward of (`sample`, `cond`); the running
        statistics are left alone. The parameter gradient is a centered
        finite difference of the train-mode backward pass along the input
        gradient, which avoids hand-written double backprop. It is not
        accurate: at the training setting (float32, ``h=1e-3``) its cosine
        with a float64 reference was 0.80-0.97, from float32 cancellation
        between the two bumped passes and from ReLU pre-activations that
        the bump moves across zero. ROADMAP item 1 replaces it with the
        exact forward-over-reverse gradient.
        """
        gi = self._backprop(np.ones(len(sample), self.dtype), accumulate=False)
        sq_norms = np.sum(np.asarray(gi, np.float64) ** 2, axis=(1, 2, 3))
        gnorm = float(np.sqrt(np.mean(gi**2)))
        if gnorm > 0.0:
            step = h / gnorm
            bump = step * gi
            coeff = scale / (2.0 * step)
            s, c = _channels(sample, np.float64), _channels(cond, self.dtype)
            for sgn in (+1.0, -1.0):
                self._score(np.asarray(s + sgn * bump, self.dtype), c, train=True,
                            update_running=False)
                self.backward(np.full(len(sample), sgn * coeff, dtype=self.dtype))
        self.release_caches()
        return sq_norms


def adam_step(state, lr):
    """Bias-corrected Adam update in place; gradients are zeroed afterward."""
    state.require_finite("grads")
    state.step += 1
    g = state.grads
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
    mhat = state.m / (1.0 - ADAM_BETA1**state.step)
    vhat = state.v / (1.0 - ADAM_BETA2**state.step)
    state.params -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
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
            tensorio.write_tensor(flat.reshape(blk.shape),
                                  os.path.join(directory, f"{prefix}.{blk.name}{suffix}.cksp"))
    for name, buf in state.buffers.items():
        tensorio.write_tensor(buf, os.path.join(directory, f"{prefix}.buf.{name}.cksp"))
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
