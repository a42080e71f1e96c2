"""Per-layer tracer: wraps the package's public callables from outside.

Each wrapped call is a span timed with ``time.perf_counter``. A span's self
time is its duration minus the time of the wrapped spans it encloses, so
the self times of one traced region add up to the region's wall time minus
what the benchmark's own code spent. No profiler is used: cProfile charges
every Python call and shifts the proportions towards call-heavy code.

Wrapping replaces every module attribute that is bound to the original
function object, because ``pipeline`` and ``losses`` import ``fft2c`` and
``ifft2c`` by name; patching ``ssdiffmri.kspace`` alone would miss those
calls. Methods are wrapped on their class. A callable named in ``SPECS``
that the package no longer has is reported as absent, not as an error.
"""

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("kspace", "masks", "diffusion", "nets", "losses", "pipeline",
           "metrics", "stats", "tensorio", "cli")


@dataclass(frozen=True)
class Spec:
    """One wrapped callable: ``module``-relative attribute path and the
    metric prefix its calls are reported under."""

    module: str
    path: str
    name: str
    group: str = ""          # inclusive time is summed over outermost spans
    measure: object = None   # (args, kwargs, result) -> {counter: int amount}


def _net_of(state):
    return "disc" if any(b.name == "head.w" for b in state.blocks) else "denoiser"


# counters are integers, so their totals repeat exactly


def _conv_forward(args, kwargs, result):
    conv, x = args[0], args[1]
    B, H, W, C = x.shape
    return {"nets.conv.flop": 2 * B * H * W * 9 * C * conv.cout,
            "nets.conv.im2col_bytes": B * H * W * 9 * C * x.itemsize}


def _conv_backward(args, kwargs, result):
    conv, g = args[0], args[1]
    accumulate = args[2] if len(args) > 2 else kwargs.get("accumulate", True)
    B, H, W, _ = g.shape
    gemms = 2 if accumulate else 1   # input gradient, plus weight gradient
    return {"nets.conv.flop": gemms * 2 * B * H * W * 9 * conv.cin * conv.cout}


def _written_bytes(args, kwargs, result):
    return {"tensorio.write_tensor.bytes": os.path.getsize(args[1])}


def _read_bytes(args, kwargs, result):
    return {"tensorio.read_tensor.bytes": os.path.getsize(args[0])}


def _conv_name(kind):
    return lambda args: f"nets.{_net_of(args[0].state)}.{args[0].name}.{kind}"


def _bn_name(kind):
    return lambda args: f"nets.disc.{args[0].name}.{kind}"


SPECS = [
    Spec("kspace", "fft2c", "kspace.fft2c"),
    Spec("kspace", "ifft2c", "kspace.ifft2c"),
    Spec("kspace", "encode", "kspace.encode"),
    Spec("kspace", "encode_adjoint", "kspace.encode_adjoint"),
    Spec("masks", "partition_mask", "masks.partition_mask"),
    Spec("masks", "apply_mask", "masks.apply_mask"),
    Spec("masks", "make_random_mask", "masks.make_random_mask"),
    Spec("diffusion", "sample_yt", "diffusion.sample_yt"),
    Spec("diffusion", "sample_forward_jump", "diffusion.sample_forward_jump"),
    Spec("diffusion", "posterior_params_strided", "diffusion.posterior_params_strided"),
    Spec("nets", "Denoiser.forward", "nets.denoiser.forward", "nets.denoiser"),
    Spec("nets", "Denoiser.backward", "nets.denoiser.backward", "nets.denoiser"),
    Spec("nets", "Discriminator.forward", "nets.disc.forward", "nets.disc"),
    Spec("nets", "Discriminator.backward", "nets.disc.backward", "nets.disc"),
    Spec("nets", "Discriminator.input_grad", "nets.disc.input_grad", "nets.disc"),
    Spec("nets", "Discriminator.penalty_param_grads",
         "nets.disc.penalty_param_grads", "nets.disc"),
    Spec("nets", "adam_step", "nets.adam_step"),
    Spec("nets", "_Conv3x3.forward", _conv_name("forward"), measure=_conv_forward),
    Spec("nets", "_Conv3x3.backward", _conv_name("backward"), measure=_conv_backward),
    Spec("nets", "_BatchNorm.forward", _bn_name("forward")),
    Spec("nets", "_BatchNorm.backward", _bn_name("backward")),
    Spec("losses", "recon_loss_masked", "losses.recon_loss_masked"),
    Spec("losses", "disc_loss", "losses.disc_loss"),
    Spec("losses", "gen_loss", "losses.gen_loss"),
    Spec("pipeline", "dc_project", "pipeline.dc_project"),
    Spec("pipeline", "dc_project_kspace", "pipeline.dc_project_kspace"),
    Spec("pipeline", "dc_backward", "pipeline.dc_backward"),
    Spec("pipeline", "_loss_noise_pair", "pipeline._loss_noise_pair"),
    Spec("pipeline", "_recon_grad_wrt_pred", "pipeline._recon_grad_wrt_pred"),
    Spec("pipeline", "Trainer.train_step", "pipeline.train_step", "pipeline.train_step"),
    Spec("pipeline", "reconstruct", "pipeline.reconstruct",
         measure=lambda a, k, r: {"pipeline.reconstruct.model_calls": r.model_calls}),
    Spec("pipeline", "evaluate_run", "pipeline.evaluate_run"),
    Spec("metrics", "nmse", "metrics.nmse"),
    Spec("metrics", "psnr", "metrics.psnr"),
    Spec("metrics", "ssim", "metrics.ssim"),
    Spec("stats", "bootstrap_ci", "stats.bootstrap_ci"),
    Spec("stats", "anova_oneway", "stats.anova_oneway"),
    Spec("stats", "tukey_hsd", "stats.tukey_hsd"),
    Spec("tensorio", "write_tensor", "tensorio.write_tensor", measure=_written_bytes),
    Spec("tensorio", "read_tensor", "tensorio.read_tensor", measure=_read_bytes),
    Spec("tensorio", "generate_phantom", "tensorio.generate_phantom"),
    Spec("tensorio", "generate_sensitivities", "tensorio.generate_sensitivities"),
] + [Spec("cli", f"cmd_{c}", f"cli.{c}") for c in
     ("phantom", "undersample", "train", "recon", "zerofill", "eval", "stats")]


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores, and only
    calls made while ``active`` is true are recorded."""

    def __init__(self, specs=SPECS):
        self.specs = specs
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.absent = set()
        self.active = False
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []

    def _wrap(self, spec, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = spec.name(args) if callable(spec.name) else spec.name
            if spec.group:
                tracer._depth[spec.group] += 1
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tracer.self_s[name] += dt - child[0]
                tracer.calls[name] += 1
                if spec.group:
                    tracer._depth[spec.group] -= 1
                    if tracer._depth[spec.group] == 0:
                        tracer.inclusive_s[spec.group] += dt
            if spec.measure is not None:
                for key, amount in spec.measure(args, kwargs, result).items():
                    tracer.counters[key] += amount
            return result

        return traced

    def install(self):
        package = [m for n, m in sys.modules.items()
                   if n == "ssdiffmri" or n.startswith("ssdiffmri.")]
        for spec in self.specs:
            owner = sys.modules.get(f"ssdiffmri.{spec.module}")
            *outer, attr = spec.path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.absent.add(f"{spec.module}.{spec.path}")
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(spec, original)
            if outer:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def module_self_s(self):
        """Self time summed per package module (first name component)."""
        out = dict.fromkeys(MODULES, 0.0)
        for name, secs in self.self_s.items():
            out[name.split(".")[0]] += secs
        return out
