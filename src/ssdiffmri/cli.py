"""Command-line workflows: dataset generation through training, inference,
evaluation, statistics, and the split-ratio sweep.

Every command is deterministic given its flags and seeds; figures are left
to external tools, the commands only emit CKSP tensors, CSV, and JSON.
Exit codes: 0 success, 2 usage error (a flag missing, malformed or out of
range, checked before any output is written), 1 runtime failure.
"""

import argparse
import dataclasses
import json
import os
import re
import shutil
import sys
from datetime import datetime, timezone

import numpy as np

from . import tensorio
from .diffusion import make_schedule
from .kspace import EncodingOperator, add_measurement_noise, encode, zero_filled
from .masks import SamplingMask, make_random_mask
from .losses import LossReport
from .pipeline import SliceData, TrainConfig, Trainer, build_models, evaluate_run, reconstruct
from .nets import load_checkpoint, save_checkpoint
from .stats import MetricReport, compare_methods

# TrainConfig fields that `train` takes as flags (--rho, --batch-size, ...),
# with the field's default and its type; `sweep` takes all but the first,
# since its --rho-grid sets each run's rho
_TRAIN_FLAGS = ("rho", "lr", "batch_size", "epochs", "T", "stride_k",
               "adv_weight", "hidden", "disc_width", "max_steps", "t_start")


def _out_dir(out, name, *subdirs, force=None):
    """The command's output directory: `out` (its --out), else `name` under
    $SSDIFFMRI_OUT or ".". A command that starts it afresh passes its --force:
    the directory must be empty unless `force`, which clears it, and gets
    `subdirs`. eval and stats pass no `force` and add files to it."""
    out = out or os.path.join(os.environ.get("SSDIFFMRI_OUT", "."), name)
    if force is not None and os.path.isdir(out) and os.listdir(out):
        if not force:
            raise RuntimeError(f"output directory {out!r} is not empty (use --force)")
        shutil.rmtree(out)
    os.makedirs(out, exist_ok=True)
    for sub in subdirs:
        os.makedirs(os.path.join(out, sub))
    return out


def _read_shaped(path, shape):
    """The tensor in the CKSP file `path`, which must have the given shape."""
    t = tensorio.read_tensor(path)
    if t.shape != shape:
        raise ValueError(f"{path}: tensor of shape {t.shape}, expected {shape}")
    return t


def _load_dataset(path):
    manifest = _parse_file(os.path.join(path, "manifest.json"),
                           tensorio.DatasetManifest.from_json)
    manifest.validate(path)
    sens = _read_shaped(os.path.join(path, manifest.sens_path),
                        (manifest.n_coils, manifest.rows, manifest.cols))
    return manifest, sens


def cmd_phantom(args):
    out = _out_dir(args.out, "phantom_out", "slices", force=args.force)
    sens = tensorio.generate_sensitivities(args.coils, args.size, args.size,
                                           seed=args.seed)
    tensorio.write_tensor(sens, os.path.join(out, "sens.cksp"))
    manifest = tensorio.DatasetManifest(
        rows=args.size, cols=args.size, n_coils=args.coils,
        n_ellipses=args.ellipses, seed=args.seed,
        created=datetime.now(timezone.utc).isoformat())
    for i in range(args.n):
        ph = tensorio.generate_phantom(args.size, args.size, args.ellipses,
                                       seed=args.seed + i)
        rel = os.path.join("slices", f"slice_{i:04d}.cksp")
        tensorio.write_tensor(ph, os.path.join(out, rel))
        manifest.slices.append(rel)
    manifest.save(os.path.join(out, "manifest.json"))
    print(f"wrote {args.n} slices to {out}")
    return 0


def _check_R(width, R_values, center_fraction, flag):
    """Usage error naming `flag` unless every acceleration in `R_values`
    can draw a mask of `width` columns at `center_fraction`."""
    for R in R_values:
        try:
            make_random_mask(width, R, center_fraction)
        except ValueError as exc:
            raise argparse.ArgumentError(None, f"argument {flag}: {exc}") from exc


def cmd_undersample(args):
    manifest, sens = _load_dataset(args.data)
    _check_R(manifest.cols, [args.R], args.center_fraction, "--R")
    out = _out_dir(args.out, "undersampled_out", "masks", "kspace", force=args.force)
    meta = {"R": args.R, "center_fraction": args.center_fraction,
            "seed": args.seed, "noise_std": args.noise_std,
            "dataset": os.path.abspath(args.data)}
    for i, rel in enumerate(manifest.slices):
        ph = _read_shaped(os.path.join(args.data, rel), sens.shape[1:])
        mask = make_random_mask(manifest.cols, args.R, args.center_fraction,
                                seed=args.seed + i)
        op = EncodingOperator(sens, mask, manifest.rows, manifest.cols)
        ks = encode(ph, op)
        if args.noise_std > 0:
            ks = np.where(mask.sampled, add_measurement_noise(ks, args.noise_std,
                                                              seed=args.seed + i), 0)
        with open(os.path.join(out, "masks", f"slice_{i:04d}.mask.json"), "w") as f:
            f.write(mask.to_json())
        tensorio.write_tensor(ks, os.path.join(out, "kspace", f"slice_{i:04d}.cksp"))
    with open(os.path.join(out, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
    print(f"undersampled {len(manifest.slices)} slices at R={args.R} to {out}")
    return 0


def _parse_file(path, parse):
    """`parse` applied to the text of `path`, with the path prefixed to any
    ValueError it raises."""
    with open(path) as f:
        text = f.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_undersampled(path):
    meta_path = os.path.join(path, "meta.json")
    meta = _parse_file(meta_path, json.loads)
    if not (isinstance(meta, dict) and type(meta.get("dataset")) is str
            and type(meta.get("R")) in (int, float)):
        raise RuntimeError(f"{meta_path}: expected a JSON object with a string "
                           "dataset and a numeric R")
    manifest, sens = _load_dataset(meta["dataset"])
    slices = []
    for i in range(len(manifest.slices)):
        mask = _parse_file(os.path.join(path, "masks", f"slice_{i:04d}.mask.json"),
                           SamplingMask.from_json)
        ks = _read_shaped(os.path.join(path, "kspace", f"slice_{i:04d}.cksp"), sens.shape)
        slices.append(SliceData(i, ks, mask))
    return meta, manifest, sens, slices


# options that config.json files of earlier runs still carry; each is
# accepted only at the one value it may take now
_RETIRED_OPTIONS = {"dc_mode": "measured_outside",
                    "rho_convention": "fraction_of_acquired",
                    "center_fraction": 0.04}


def _config_from_dict(values, source, base=None):
    """TrainConfig from a JSON mapping read from `source`, laid over `base`."""
    if not isinstance(values, dict):
        raise RuntimeError(f"{source}: expected a JSON object of TrainConfig fields")
    values = {**(base or {}), **values}
    for key, only in _RETIRED_OPTIONS.items():
        if key in values and values.pop(key) != only:
            raise RuntimeError(f"{source}: {key} is no longer configurable "
                               f"(only {only!r} is supported)")
    try:
        return TrainConfig(**values)
    except (TypeError, ValueError) as exc:
        raise RuntimeError(f"{source}: {exc}") from exc


def _flag_config(args, names, base=None):
    """`base` (default TrainConfig()) with the fields `names` set from the
    command's flags of those names; a value out of range is a usage error
    naming its flag (TrainConfig's messages start with the field)."""
    try:
        return dataclasses.replace(base or TrainConfig(),
                                   **{name: getattr(args, name) for name in names})
    except ValueError as exc:
        flag = "--" + str(exc).split()[0].replace("_", "-")
        raise argparse.ArgumentError(None, f"argument {flag}: {exc}") from exc


def cmd_train(args):
    meta, manifest, sens, slices = _load_undersampled(args.data)
    meta_path = os.path.join(args.data, "meta.json")
    cfg = _config_from_dict({"R": meta["R"]}, meta_path,
                            base=_flag_config(args, ("seed", *_TRAIN_FLAGS)).to_dict())
    if args.config:
        cfg = _config_from_dict(_parse_file(args.config, json.loads), args.config,
                                base=cfg.to_dict())
        if cfg.R != meta["R"]:  # the data were sampled at one R
            raise RuntimeError(f"{args.config}: R {cfg.R!r} differs from the data's "
                               f"R {meta['R']!r} in {meta_path}")
    den, disc = build_models(cfg)
    if args.resume:
        load_checkpoint(args.resume, den.state, disc.state)

    out = _out_dir(args.out, "train_out", "checkpoints", "logs", force=args.force)
    with open(os.path.join(out, "config.json"), "w") as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)

    trainer = Trainer(den, disc, sens, cfg)
    log_path = os.path.join(out, "logs", "metrics.csv")

    def save(tag):
        save_checkpoint(os.path.join(out, "checkpoints", tag), den.state, disc.state)

    with open(log_path, "w") as logf:
        logf.write(LossReport.csv_header() + "\n")

        def log(rep):
            logf.write(rep.csv_row() + "\n")
            if cfg.checkpoint_every and trainer.global_step % cfg.checkpoint_every == 0:
                save(f"step_{trainer.global_step:06d}")

        try:
            trainer.fit(slices, log=log)
        except FloatingPointError as exc:
            save("last_good")
            raise RuntimeError(f"training aborted: {exc}") from exc
    save("final")
    print(f"trained {trainer.global_step} steps; run directory {out}")
    return 0


def cmd_recon(args):
    meta, manifest, sens, slices = _load_undersampled(args.data)
    path = os.path.join(args.run, "config.json")
    cfg = _config_from_dict(_parse_file(path, json.loads), path)
    den, disc = build_models(cfg)
    load_checkpoint(os.path.join(args.run, "checkpoints", "final"), den.state, disc.state)
    if args.t_start:
        cfg = _flag_config(args, ("t_start",), base=cfg)
    out = _out_dir(args.out, "recon_out", "recons", force=args.force)
    sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
    for item in slices:
        res = reconstruct(item.kspace, item.acquired, sens, den, sched, cfg,
                          seed=args.seed + item.slice_id)
        if not np.array_equal(res.final_kspace[..., item.acquired.sampled], item.columns):
            raise RuntimeError(f"slice {item.slice_id}: the reconstruction's acquired "
                               "k-space columns differ from the measurement")
        tensorio.write_tensor(res.image,
                              os.path.join(out, "recons",
                                           f"slice_{item.slice_id:04d}.cksp"))
    with open(os.path.join(out, "recon_meta.json"), "w") as f:
        json.dump({"run": os.path.abspath(args.run), "seed": args.seed,
                   "data": os.path.abspath(args.data),
                   "config": cfg.to_dict()}, f, indent=2, sort_keys=True)
    print(f"reconstructed {len(slices)} slices to {out}")
    return 0


def cmd_zerofill(args):
    meta, manifest, sens, slices = _load_undersampled(args.data)
    out = _out_dir(args.out, "zf_out", "recons", force=args.force)
    for item in slices:
        op = EncodingOperator(sens, item.acquired, manifest.rows, manifest.cols)
        tensorio.write_tensor(zero_filled(item.kspace, op),
                              os.path.join(out, "recons",
                                           f"slice_{item.slice_id:04d}.cksp"))
    print(f"zero-filled {len(slices)} slices to {out}")
    return 0


def _read_recons(recon_dir, n_slices, shape):
    """Recons of `shape` for truth slices 0..n_slices-1, paired by the slice
    id in their file names; a file or an id without a partner is an error."""
    folder = os.path.join(recon_dir, "recons")
    names = [f"slice_{i:04d}.cksp" for i in range(n_slices)]
    present = set(os.listdir(folder))
    stray = sorted(present - set(names))
    missing = [i for i, name in enumerate(names) if name not in present]
    if stray or missing:
        raise RuntimeError(f"{folder}: files without a truth slice {stray}, "
                           f"truth slice ids without a recon {missing}")
    return [_read_shaped(os.path.join(folder, name), shape) for name in names]


def cmd_eval(args):
    manifest, sens = _load_dataset(args.truth)
    recons = _read_recons(args.recon, len(manifest.slices), sens.shape[1:])
    truths = [_read_shaped(os.path.join(args.truth, rel), sens.shape[1:])
              for rel in manifest.slices]
    report = evaluate_run(recons, truths, method=args.method,
                          n_boot=args.n_boot, seed=args.seed)
    out = _out_dir(args.out, "eval_out")
    with open(os.path.join(out, f"{args.method}.metrics.csv"), "w") as f:
        f.write(report.csv_rows())
    with open(os.path.join(out, f"{args.method}.aggregate.json"), "w") as f:
        json.dump(report.to_aggregate(), f, indent=2, sort_keys=True)
    print(f"evaluated {len(recons)} slices; mean NMSE {report.means['nmse']:.5f}, "
          f"PSNR {report.means['psnr']:.2f} dB, SSIM {report.means['ssim']:.4f}")
    return 0


def _read_metric_csv(path):
    """Rows of an `eval` metrics CSV by slice id, metrics as floats; a
    missing column or a row that does not parse raises ValueError."""
    rows = {}
    with open(path) as f:
        header = f.readline().strip().split(",")
        missing = [c for c in ("slice", "method", *MetricReport.METRICS) if c not in header]
        if missing:
            raise ValueError(f"{path}: header lacks the columns {missing}")
        for n, line in enumerate(f, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != len(header):
                raise ValueError(f"{path}, line {n}: {len(parts)} fields, "
                                 f"the header has {len(header)}")
            rec = dict(zip(header, parts))
            try:
                rows[int(rec["slice"])] = {"method": rec["method"],
                                           **{m: float(rec[m]) for m in MetricReport.METRICS}}
            except ValueError as exc:
                raise ValueError(f"{path}, line {n}: {exc}") from exc
    return rows


def cmd_stats(args):
    if len(args.reports) < 2:
        raise argparse.ArgumentError(None, "stats needs at least 2 metrics.csv reports")
    tables, sources = {}, {}
    for path in args.reports:
        rows = _read_metric_csv(path)
        method = next(iter(rows.values()))["method"] if rows else path
        if method in sources:
            raise RuntimeError(f"{sources[method]} and {path} both report method {method!r}")
        tables[method], sources[method] = rows, path
    slice_sets = {m: set(t) for m, t in tables.items()}
    common = set.intersection(*slice_sets.values())
    mismatched = {m: sorted(s - common) for m, s in slice_sets.items() if s - common}
    if mismatched:
        raise RuntimeError(f"slice sets differ between methods: {mismatched}")

    results = {}
    for metric in MetricReport.METRICS:
        groups = {m: np.array([t[i][metric] for i in sorted(common)])
                  for m, t in tables.items()}
        res = compare_methods(groups)
        results[metric] = res.to_dict()
        print(f"{metric}: ANOVA F={res.anova_f:.4g} p={res.anova_p:.4g}")
        for a, b, q, p in res.pairwise:
            print(f"  {a} vs {b}: q={q:.4g} p={p:.4g}")
    out = _out_dir(args.out, "stats_out")
    with open(os.path.join(out, "tests.json"), "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    return 0


def _check_distinct(values, flag):
    """Usage error naming `flag` when two grid values print alike as `:g`,
    the form that names a grid point's directory and CSV rows."""
    seen = {}
    for v in values:
        tag = f"{v:g}"
        if tag in seen:
            raise argparse.ArgumentError(None, f"argument {flag}: {seen[tag]!r} and {v!r} "
                                               f"both print as {tag}, one grid point's name")
        seen[tag] = v


def cmd_sweep(args):
    """Train/reconstruct/evaluate over the (R, rho) grid and combine the
    per-slice metrics into one CSV mirroring the split-ratio figure axes."""
    _check_distinct(args.R_grid, "--R-grid")
    _check_distinct(args.rho_grid, "--rho-grid")
    _flag_config(args, ("seed", *_TRAIN_FLAGS[1:]))
    manifest, sens = _load_dataset(args.data)
    _check_R(manifest.cols, args.R_grid, args.center_fraction, "--R-grid")
    out = _out_dir(args.out, "sweep_out", force=args.force)
    truths = [_read_shaped(os.path.join(args.data, rel), sens.shape[1:])
              for rel in manifest.slices]
    shared = {"seed": args.seed, "force": True}
    train_flags = {name: getattr(args, name) for name in _TRAIN_FLAGS[1:]}

    rows = ["R,rho,slice,nmse,psnr,ssim"]
    summary = {}
    for R in args.R_grid:
        for rho in args.rho_grid:
            tag = f"R{R:g}_rho{rho:g}"
            under, run_dir, rec = (os.path.join(out, tag, d)
                                   for d in ("undersampled", "run", "recon"))
            cmd_undersample(argparse.Namespace(
                data=args.data, out=under, R=R, center_fraction=args.center_fraction,
                noise_std=args.noise_std, **shared))
            cmd_train(argparse.Namespace(data=under, out=run_dir, resume=None,
                                         config=args.config, rho=rho, **train_flags, **shared))
            cmd_recon(argparse.Namespace(data=under, run=run_dir, out=rec,
                                         t_start=args.t_start, **shared))
            recons = _read_recons(rec, len(truths), sens.shape[1:])
            report = evaluate_run(recons, truths, method=tag,
                                  n_boot=args.n_boot, seed=args.seed)
            for i in range(len(recons)):
                rows.append(f"{R:g},{rho:g},{i},{report.nmse[i]:.10g},"
                            f"{report.psnr[i]:.10g},{report.ssim[i]:.10g}")
            summary[tag] = report.to_aggregate()
            print(f"sweep {tag}: PSNR {report.means['psnr']:.2f} dB, "
                  f"SSIM {report.means['ssim']:.4f}")
    with open(os.path.join(out, "sweep.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return 0


def _checked(kind, ok, what):
    """argparse type: a finite `kind` for which `ok` holds, else a usage
    error naming the flag and saying `what` it must be."""
    def parse(text):
        value = kind(text)
        if not (np.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be a finite {kind.__name__} {what}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return parse


def _at_least(kind, low):
    return _checked(kind, lambda v: v >= low, f">= {low}")


_FRACTION = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


def _method_name(text):
    """argparse type: a method name, which `eval` puts in its file names and
    CSV rows, so no path separator, comma or leading dot."""
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a [A-Za-z0-9][A-Za-z0-9_.-]* name")
    return text


def build_parser():
    p = argparse.ArgumentParser(prog="ssdiffmri",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, seed=True, force=True):
        """A subcommand's parser; `run` reports its usage errors through it.
        No abbreviations: `sweep --rho` must not pass for `--rho-grid`."""
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        sp.set_defaults(func=func, parser=sp)
        sp.add_argument("--out", default=None, help="output directory")
        if seed:
            sp.add_argument("--seed", type=_at_least(int, 0), default=0)
        if force:
            sp.add_argument("--force", action="store_true",
                            help="overwrite a non-empty output directory")
        return sp

    sp = command("phantom", cmd_phantom, "generate a synthetic dataset")
    sp.add_argument("--n", type=_at_least(int, 1), default=200)
    sp.add_argument("--size", type=_at_least(int, 16), default=64)
    sp.add_argument("--coils", type=_at_least(int, 1), default=4)
    sp.add_argument("--ellipses", type=_at_least(int, 1), default=8)

    sp = command("undersample", cmd_undersample, "mask and encode a dataset")
    sp.add_argument("--data", required=True)
    sp.add_argument("--R", type=_at_least(float, 1), default=4.0)
    sp.add_argument("--center-fraction", type=_FRACTION, default=0.04,
                    dest="center_fraction")
    sp.add_argument("--noise-std", type=_at_least(float, 0), default=0.0, dest="noise_std")

    def add_train_flags(sp, names):
        for name in names:
            default = getattr(TrainConfig, name)
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            type=type(default), default=default)
        sp.add_argument("--config", default=None,
                        help="JSON file overriding TrainConfig fields")

    sp = command("train", cmd_train, "self-supervised training run")
    sp.add_argument("--data", required=True, help="undersampled directory")
    sp.add_argument("--resume", default=None, help="checkpoint directory")
    add_train_flags(sp, _TRAIN_FLAGS)

    sp = command("recon", cmd_recon, "reconstruct an undersampled directory")
    sp.add_argument("--data", required=True)
    sp.add_argument("--run", required=True, help="training run directory")
    sp.add_argument("--t-start", type=int, default=0, dest="t_start",
                    help="first reverse step: 0 means T // 4, else 2..T")

    sp = command("zerofill", cmd_zerofill, "zero-filled baseline reconstructions",
                 seed=False)
    sp.add_argument("--data", required=True)

    sp = command("eval", cmd_eval, "metrics of recons against truth", force=False)
    sp.add_argument("--recon", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--method", type=_method_name, default="recon")
    sp.add_argument("--n-boot", type=_at_least(int, 2), default=10000, dest="n_boot")

    sp = command("stats", cmd_stats, "ANOVA and Tukey HSD across method reports",
                 seed=False, force=False)
    sp.add_argument("reports", nargs="+", help="metrics.csv files (>= 2)")

    sp = command("sweep", cmd_sweep, "train/evaluate over a rho grid")
    sp.add_argument("--data", required=True, help="phantom dataset directory")
    sp.add_argument("--rho-grid", type=_FRACTION, nargs="+", default=[0.3, 0.5, 0.7],
                    dest="rho_grid")
    sp.add_argument("--R-grid", type=_at_least(float, 1), nargs="+", default=[2.0, 4.0],
                    dest="R_grid")
    sp.add_argument("--center-fraction", type=_FRACTION, default=0.04,
                    dest="center_fraction")
    sp.add_argument("--noise-std", type=_at_least(float, 0), default=0.0, dest="noise_std")
    sp.add_argument("--n-boot", type=_at_least(int, 2), default=1000, dest="n_boot")
    add_train_flags(sp, _TRAIN_FLAGS[1:])
    return p


def run(argv=None):
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # a flag the command does not take, under the command's usage
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:  # found by the command, not by argparse
        args.parser.error(str(exc))
    except (RuntimeError, OSError, ValueError, FloatingPointError,
            tensorio.CkspError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
