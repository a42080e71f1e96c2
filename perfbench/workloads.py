"""The three closed-loop workloads: one caller that waits for each result.

Every workload builds its inputs from the workload seed, runs whole units
of work (a train step, a pass over the recon pool, a CLI pass) until the
run length is used up, times each operation with ``time.perf_counter``,
and checks every output. An operation that raises or misses a check counts
as failed.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from ssdiffmri import cli, kspace, masks, metrics, pipeline, stats, tensorio
from ssdiffmri.diffusion import make_schedule

clock = time.perf_counter

# criterion-6 desk geometry and training config (tests/test_acceptance.py)
DESK = dict(R=4.0, rho=0.5, T=100, stride_k=25, batch_size=4, lr=1e-3,
            adv_weight=0.1, hidden=24, disc_width=10, seed=7,
            epochs=40, max_steps=1800, t_start=50)
SIZE, COILS, ELLIPSES, CENTER = 64, 4, 8, 0.04
N_TRAIN, N_HELD = 200, 40
QUALITY_STEPS = 40      # fixed train-step budget behind train-desk quality
WARMUP = 2              # first train steps / recon slices left out of timings
EVALS_PER_STEP = 4      # train-desk: metric evaluations timed after each step
CLI_SLICES = 200        # `phantom` default
CLI_TRAIN = ["--hidden", "8", "--disc-width", "4", "--max-steps", "4",
             "--lr", "1e-3", "--t-start", "50"]
CLI_CHECKPOINT_EVERY = 2
CLI_CHECKPOINTS = ("step_000002", "step_000004", "final")
CKPT_FILES = 94         # 92 CKSP tensors plus 2 JSON indexes


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


class Ops:
    """Attempted and failed operation counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def op(self, label):
        """One operation: any exception inside, a failed check included,
        marks it failed and the run goes on."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            if self.failed <= 3:
                print(f"operation failed: {label}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)


def finite(a):
    a = np.asarray(a)
    return bool(np.isfinite(a.real).all() and np.isfinite(a.imag).all())


def check_recon(res, measured, acquired):
    """Data-consistency invariant of every reconstruction."""
    fk = res.final_kspace
    require(fk is not None and finite(fk), "final k-space missing or non-finite")
    require(finite(res.image), "reconstruction is non-finite")
    cols = acquired.sampled
    require(np.array_equal(fk[..., cols], measured[..., cols]),
            "acquired k-space columns differ from the measurement")


def eval_slice(truth, image):
    return (metrics.nmse(truth, image), metrics.psnr(truth, image),
            metrics.ssim(truth, image))


def held_out_set():
    """The criterion-6 sensitivities and 40 held-out slices."""
    sens = tensorio.generate_sensitivities(COILS, SIZE, SIZE, seed=99)
    return sens, [desk_slice(sens, 50000 + i, 60000 + i) for i in range(N_HELD)]


def desk_slice(sens, ph_seed, mask_seed):
    ph = tensorio.generate_phantom(SIZE, SIZE, ELLIPSES, seed=ph_seed)
    om = masks.make_random_mask(SIZE, DESK["R"], CENTER, seed=mask_seed)
    op = kspace.EncodingOperator(sens, om, SIZE, SIZE)
    meas = kspace.encode(ph, op)
    return ph, om, meas, kspace.zero_filled(meas, op)


class Workload:
    """Shared bookkeeping; subclasses define ``setup``, ``start``, ``unit``
    (one closed-loop unit of work) and ``digest`` (outputs to compare)."""

    min_units = 1

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.ops = Ops()
        self.tracer = None
        self.op_times = []
        self.eval_times = []
        self.slices_done = 0
        self.busy_s = 0.0
        self.detail = {}
        self.quality = None

    @contextlib.contextmanager
    def traced(self):
        """The program's share of a unit: the tracer, if any, records calls
        inside it, and its wall time adds to ``busy_s``."""
        if self.tracer is not None:
            self.tracer.active = True
        t0 = clock()
        try:
            yield
        finally:
            self.busy_s += clock() - t0
            if self.tracer is not None:
                self.tracer.active = False

    def warmup(self):
        pass

    def held_out_quality(self, den, sched, cfg, allow_untrained=False):
        """Reconstruct the criterion-6 held-out slices; PSNR and SSIM of each,
        and their gains over zero-filled."""
        sens, held = self.held
        psnr, ssim, dpsnr, dssim = [], [], [], []
        for i, (ph, om, meas, zf) in enumerate(held):
            with self.ops.op(f"held-out recon {i}"):
                res = pipeline.reconstruct(meas, om, sens, den, sched, cfg, seed=i,
                                           allow_untrained=allow_untrained)
                check_recon(res, meas, om)
                _, p, s = eval_slice(ph, res.image)
                _, pz, sz = eval_slice(ph, zf)
                psnr.append(p)
                ssim.append(s)
                dpsnr.append(p - pz)
                dssim.append(s - sz)
        self.quality = (psnr, ssim, dpsnr, dssim)


class TrainDesk(Workload):
    """``Trainer.train_step`` at the criterion-6 geometry and config."""

    name = "train-desk"
    op_name = "train step"
    min_units = QUALITY_STEPS

    def setup(self):
        # the criterion-6 training set: every run trains the same model, so
        # the quality figures repeat exactly; step cost does not depend on
        # the data values, so the workload seed is not used
        self.held = held_out_set()
        self.sens = self.held[0]
        self.slices = []
        for i in range(N_TRAIN):
            _, om, meas, _ = desk_slice(self.sens, 1000 + i, 2000 + i)
            self.slices.append(pipeline.SliceData(i, meas, om))
        self.cfg = pipeline.TrainConfig(**DESK)

    def start(self):
        den, disc = pipeline.build_models(self.cfg)
        self.trainer = pipeline.Trainer(den, disc, self.sens, self.cfg)
        self.reports = []
        self.snapshot = None
        self.op_times = []
        self._batches = self._epoch_batches()

    def _epoch_batches(self):
        """Batches in ``Trainer.fit`` order, epoch after epoch."""
        B = self.cfg.batch_size
        for epoch in range(self.cfg.epochs):
            order = np.random.default_rng([self.cfg.seed, 3, epoch]).permutation(N_TRAIN)
            for lo in range(0, N_TRAIN, B):
                yield [self.slices[i] for i in order[lo:lo + B]]

    def warmup(self):
        for _ in range(WARMUP):
            self.unit(record=False)

    def unit(self, record=True):
        batch = next(self._batches)
        with self.ops.op(f"train step {self.trainer.global_step}"):
            with self.traced():
                t0 = clock()
                rep = self.trainer.train_step(batch)
                dt = clock() - t0
            if record:
                self.op_times.append(dt)
                self.slices_done += len(batch)
                self._time_eval()
            self.reports.append(rep)
            require(all(np.isfinite(v) for v in
                        (rep.l_recon, rep.l_disc, rep.l_gen, rep.l_final)),
                    "non-finite loss")
        if self.snapshot is None and self.trainer.global_step == QUALITY_STEPS:
            st = self.trainer.denoiser.state
            self.snapshot = (st.params.copy(),
                             {k: v.copy() for k, v in st.buffers.items()}, st.step)

    def _time_eval(self):
        """Metric evaluations between steps (zero-filled held-out slices),
        so eval timings are sampled evenly through the run."""
        for _ in range(EVALS_PER_STEP):
            ph, _, _, zf = self.held[1][len(self.eval_times) % N_HELD]
            t0 = clock()
            eval_slice(ph, zf)
            self.eval_times.append(clock() - t0)

    def digest(self):
        st = self.trainer.denoiser.state
        return ([(r.l_recon, r.l_disc, r.l_gen, r.l_final) for r in self.reports],
                hashlib.sha256(st.params.tobytes()).hexdigest(),
                hashlib.sha256(self.trainer.disc.state.params.tobytes()).hexdigest())

    def finish(self):
        """Quality of the denoiser after exactly QUALITY_STEPS steps."""
        require(self.snapshot is not None, "quality step budget not reached")
        den = pipeline.build_models(self.cfg)[0]
        params, buffers, step = self.snapshot
        den.state.params[...] = params
        for k, v in buffers.items():
            den.state.buffers[k][...] = v
        den.state.step = step
        self.held_out_quality(den, self.trainer.sched, self.cfg)


class ReconDesk(Workload):
    """``pipeline.reconstruct`` one desk slice at a time, then the
    per-slice metrics, and one ``evaluate_run`` plus ``compare_methods``
    per pass over the pool."""

    name = "recon-desk"
    op_name = "recon slice"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        sens_seed, ph_base, mask_base = (int(v) for v in rng.integers(0, 2**31 - N_HELD, 3))
        self.sens = tensorio.generate_sensitivities(COILS, SIZE, SIZE, seed=sens_seed)
        self.pool = [desk_slice(self.sens, ph_base + i, mask_base + i)
                     for i in range(N_HELD)]
        self.zf_psnr = np.array([metrics.psnr(ph, zf) for ph, _, _, zf in self.pool])
        self.held = held_out_set()
        self.cfg = pipeline.TrainConfig(**DESK)
        # sampler cost does not depend on the weights: a fixed-seed init
        self.den = pipeline.build_models(self.cfg)[0]
        self.sched = make_schedule(self.cfg.T, self.cfg.beta_1, self.cfg.beta_T)

    def start(self):
        self.op_times = []
        self.passes = []
        self.first_pass = None

    def _recon(self, i):
        _, om, meas, _ = self.pool[i]
        return pipeline.reconstruct(meas, om, self.sens, self.den, self.sched,
                                    self.cfg, seed=i, allow_untrained=True)

    def warmup(self):
        for i in range(WARMUP):
            self._recon(i)

    def unit(self):
        images, psnr = [], []
        for i, (ph, om, meas, _) in enumerate(self.pool):
            with self.ops.op(f"recon slice {i}"):
                with self.traced():
                    t0 = clock()
                    res = self._recon(i)
                    t1 = clock()
                    _, p, _ = eval_slice(ph, res.image)
                    t2 = clock()
                self.op_times.append(t1 - t0)
                self.eval_times.append(t2 - t1)
                self.slices_done += 1
                check_recon(res, meas, om)
                if self.first_pass:
                    require(np.array_equal(res.image, self.first_pass[i]),
                            "same-seed reconstruction changed between passes")
                images.append(res.image)
                psnr.append(p)
        with self.ops.op("pass evaluation"):
            require(len(images) == len(self.pool), "pass lost slices")
            with self.traced():
                rep = pipeline.evaluate_run(images, [p[0] for p in self.pool],
                                            method="model")
                cmp = stats.compare_methods({"model": rep.psnr, "zf": self.zf_psnr})
            require(np.array_equal(rep.psnr, np.array(psnr)),
                    "evaluate_run PSNR differs from per-slice PSNR")
            require(np.isfinite(cmp.anova_f) and len(cmp.pairwise) == 1,
                    "compare_methods result is malformed")
        self.first_pass = self.first_pass or images
        self.passes.append([hashlib.sha256(im.tobytes()).hexdigest() for im in images])

    def digest(self):
        return self.passes

    def finish(self):
        # quality on the fixed held-out set, so it does not vary with the seed
        self.held_out_quality(self.den, self.sched, self.cfg, allow_untrained=True)


class CliPipeline(Workload):
    """In-process ``ssdiffmri.cli.run`` over the full command sequence, in
    a fresh directory on each pass."""

    name = "cli-pipeline"
    op_name = "cli pass"

    def setup(self):
        # fixed command seeds: the outputs, and so the quality figures, repeat
        # exactly in every run; pass cost does not depend on the data values
        self.ph_seed, self.us_seed, self.train_seed, self.rec_seed = 21, 22, 23, 24
        self.truth = [np.asarray(tensorio.generate_phantom(SIZE, SIZE, ELLIPSES,
                                                           seed=self.ph_seed + i),
                                 dtype=np.complex64).astype(np.complex128)
                      for i in range(CLI_SLICES)]
        self.masks = [masks.make_random_mask(SIZE, 4.0, CENTER, seed=self.us_seed + i).sampled
                      for i in range(CLI_SLICES)]
        os.makedirs(self.scratch, exist_ok=True)
        self.config_path = os.path.join(self.scratch, "train_config.json")
        with open(self.config_path, "w") as f:
            json.dump({"checkpoint_every": CLI_CHECKPOINT_EVERY}, f)

    def start(self):
        self.op_times = []
        self.passes = []
        self.command_s = {}
        self._count = 0

    def _commands(self, d):
        j = lambda *p: os.path.join(d, *p)
        return [
            ["phantom", "--out", j("data"), "--seed", str(self.ph_seed)],
            ["undersample", "--data", j("data"), "--out", j("us"),
             "--seed", str(self.us_seed)],
            ["train", "--data", j("us"), "--out", j("run"), "--seed", str(self.train_seed),
             "--config", self.config_path] + CLI_TRAIN,
            ["recon", "--data", j("us"), "--run", j("run"), "--out", j("rec"),
             "--seed", str(self.rec_seed)],
            ["zerofill", "--data", j("us"), "--out", j("zf")],
            ["eval", "--recon", j("rec"), "--truth", j("data"), "--method", "model",
             "--out", j("ev")],
            ["eval", "--recon", j("zf"), "--truth", j("data"), "--method", "zf",
             "--out", j("ev")],
            ["stats", j("ev", "model.metrics.csv"), j("ev", "zf.metrics.csv"),
             "--out", j("st")],
        ]

    def unit(self):
        d = os.path.join(self.scratch, f"pass_{self._count}")
        self._count += 1
        shutil.rmtree(d, ignore_errors=True)
        try:
            with self.ops.op(f"cli pass {d}"):
                codes, times = [], []
                with self.traced():
                    t0 = clock()
                    for argv in self._commands(d):
                        ts = clock()
                        with contextlib.redirect_stdout(io.StringIO()):
                            codes.append(cli.run(argv))
                        times.append((argv[0], clock() - ts))
                    dt = clock() - t0
                self.op_times.append(dt)
                self.slices_done += CLI_SLICES
                for name, secs in times:
                    self.command_s.setdefault(name, []).append(secs)
                require(codes == [0] * len(codes), f"exit codes {codes}")
                self.passes.append(self._verify(d))
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _verify(self, d):
        def listing(*p):
            return sorted(os.listdir(os.path.join(d, *p)))

        n = CLI_SLICES
        data = listing("data", "slices")
        require(len(data) == n, f"{len(data)} phantom slices")
        for i, name in enumerate(data):
            require(np.array_equal(tensorio.read_tensor(os.path.join(d, "data", "slices", name)),
                                   self.truth[i]), f"phantom {name} differs")
        require(len(listing("us", "kspace")) == n and len(listing("us", "masks")) == n,
                "undersampled slice count")
        for i, name in enumerate(listing("us", "masks")):
            with open(os.path.join(d, "us", "masks", name)) as f:
                mk = masks.SamplingMask.from_json(f.read())
            require(np.array_equal(mk.sampled, self.masks[i]), f"mask {name} differs")
        require(listing("run", "checkpoints") == sorted(CLI_CHECKPOINTS),
                "checkpoint set")
        for tag in CLI_CHECKPOINTS:
            require(len(listing("run", "checkpoints", tag)) == CKPT_FILES,
                    f"checkpoint {tag} file count")
        with open(os.path.join(d, "run", "checkpoints", "final", "denoiser.index.json")) as f:
            require(json.load(f)["step"] == 4, "final checkpoint step")
        recs = listing("rec", "recons")
        require(len(recs) == n and len(listing("zf", "recons")) == n, "recon slice count")

        rows = {}
        for method in ("model", "zf"):
            with open(os.path.join(d, "ev", f"{method}.metrics.csv")) as f:
                lines = f.read().strip().split("\n")
            require(len(lines) == n + 1, f"{method} metrics rows")
            rows[method] = [line.split(",") for line in lines[1:]]
        for i, name in enumerate(recs):
            image = tensorio.read_tensor(os.path.join(d, "rec", "recons", name))
            require(finite(image), f"recon {name} non-finite")
            t0 = clock()
            values = eval_slice(self.truth[i], image)
            self.eval_times.append(clock() - t0)
            require([f"{v:.10g}" for v in values] == rows["model"][i][2:],
                    f"eval row {i} differs from recomputed metrics")
        with open(os.path.join(d, "st", "tests.json")) as f:
            tests = json.load(f)
        require(sorted(tests) == ["nmse", "psnr", "ssim"]
                and all(np.isfinite(t["anova_f"]) for t in tests.values()),
                "stats output")

        files, nbytes, digest = 0, 0, hashlib.sha256()
        for root, dirs, names in os.walk(d):
            dirs.sort()
            for name in sorted(names):
                path = os.path.join(root, name)
                if name.endswith(".cksp") or name.endswith(".csv"):
                    with open(path, "rb") as f:
                        digest.update(os.path.relpath(path, d).encode() + f.read())
                if name.endswith(".cksp"):
                    files += 1
                    nbytes += os.path.getsize(path)
        self.detail["cksp_files_per_pass"] = files
        self.detail["cksp_mb_per_pass"] = nbytes / 1e6
        if self.passes:
            require(digest.hexdigest() == self.passes[0][0],
                    "same-seed CLI outputs changed between passes")
        psnr = [float(r[3]) for r in rows["model"]]
        ssim = [float(r[4]) for r in rows["model"]]
        dpsnr = [a - float(r[3]) for a, r in zip(psnr, rows["zf"])]
        dssim = [a - float(r[4]) for a, r in zip(ssim, rows["zf"])]
        return digest.hexdigest(), (psnr, ssim, dpsnr, dssim)

    def digest(self):
        return [p[0] for p in self.passes]

    def finish(self):
        require(self.passes, "no complete pass")
        self.quality = self.passes[0][1]
        self.detail["command_s_p50"] = {k: statistics.median(v)
                                        for k, v in self.command_s.items()}


WORKLOADS = {w.name: w for w in (TrainDesk, ReconDesk, CliPipeline)}
