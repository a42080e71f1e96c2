"""Command-line workflows: dataset generation through training, inference,
evaluation, statistics, and the split-ratio sweep.

Every command is deterministic given its flags and seeds; figures are left
to external tools, the commands only emit CKSP tensors, CSV, and JSON.
Exit codes: 0 success, 2 usage error (argparse), 1 runtime failure.
"""

import argparse
import json
import os
import shutil
import sys
from datetime import datetime, timezone

import numpy as np

from . import tensorio
from .diffusion import make_schedule
from .kspace import EncodingOperator, add_measurement_noise, encode, zero_filled
from .masks import SamplingMask, apply_mask, make_random_mask
from .losses import LossReport
from .pipeline import SliceData, TrainConfig, Trainer, build_models, evaluate_run, reconstruct
from .nets import load_checkpoint, save_checkpoint
from .stats import compare_methods

OUT_ROOT_ENV = "SSDIFFMRI_OUT"

# TrainConfig fields that `train` and `sweep` take as flags (--rho,
# --batch-size, ...), with the field's default and its type
_TRAIN_FLAGS = ("rho", "lr", "batch_size", "epochs", "T", "stride_k",
               "adv_weight", "hidden", "disc_width", "max_steps", "t_start")


def _default_out(args, name):
    if args.out:
        return args.out
    return os.path.join(os.environ.get(OUT_ROOT_ENV, "."), name)


def _prepare_out(path, force):
    if os.path.isdir(path) and os.listdir(path):
        if not force:
            raise RuntimeError(f"output directory {path!r} is not empty (use --force)")
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)


def _load_dataset(path):
    manifest = tensorio.DatasetManifest.load(os.path.join(path, "manifest.json"))
    manifest.validate(path)
    sens = tensorio.read_tensor(os.path.join(path, manifest.sens_path))
    return manifest, sens


def cmd_phantom(args):
    out = _default_out(args, "phantom_out")
    _prepare_out(out, args.force)
    os.makedirs(os.path.join(out, "slices"))
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


def cmd_undersample(args):
    manifest, sens = _load_dataset(args.data)
    out = _default_out(args, "undersampled_out")
    _prepare_out(out, args.force)
    os.makedirs(os.path.join(out, "masks"))
    os.makedirs(os.path.join(out, "kspace"))
    meta = {"R": args.R, "center_fraction": args.center_fraction,
            "seed": args.seed, "noise_std": args.noise_std,
            "dataset": os.path.abspath(args.data)}
    for i, rel in enumerate(manifest.slices):
        ph = tensorio.read_tensor(os.path.join(args.data, rel))
        mask = make_random_mask(manifest.cols, args.R, args.center_fraction,
                                seed=args.seed + i)
        op = EncodingOperator(sens, mask, manifest.rows, manifest.cols)
        ks = encode(ph, op)
        if args.noise_std > 0:
            ks = apply_mask(add_measurement_noise(ks, args.noise_std,
                                                  seed=args.seed + i), mask)
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
        ks = tensorio.read_tensor(os.path.join(path, "kspace", f"slice_{i:04d}.cksp"))
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


def _train_config_from_args(args, meta, meta_path):
    cfg = TrainConfig(seed=args.seed,
                      **{name: getattr(args, name) for name in _TRAIN_FLAGS})
    cfg = _config_from_dict({"R": meta["R"]}, meta_path, base=cfg.to_dict())
    if args.config:
        with open(args.config) as f:
            cfg = _config_from_dict(json.load(f), args.config, base=cfg.to_dict())
    return cfg


def cmd_train(args):
    meta, manifest, sens, slices = _load_undersampled(args.data)
    cfg = _train_config_from_args(args, meta, os.path.join(args.data, "meta.json"))
    den, disc = build_models(cfg)
    if args.resume:
        load_checkpoint(args.resume, den.state, disc.state)

    out = _default_out(args, "train_out")
    _prepare_out(out, args.force)
    os.makedirs(os.path.join(out, "checkpoints"))
    os.makedirs(os.path.join(out, "logs"))
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


def _load_models_for_recon(run_dir):
    path = os.path.join(run_dir, "config.json")
    with open(path) as f:
        cfg = _config_from_dict(json.load(f), path)
    den, disc = build_models(cfg)
    load_checkpoint(os.path.join(run_dir, "checkpoints", "final"), den.state, disc.state)
    return cfg, den, disc


def cmd_recon(args):
    meta, manifest, sens, slices = _load_undersampled(args.data)
    cfg, den, _ = _load_models_for_recon(args.run)
    if args.t_start:
        cfg = TrainConfig(**{**cfg.to_dict(), "t_start": args.t_start})
    out = _default_out(args, "recon_out")
    _prepare_out(out, args.force)
    os.makedirs(os.path.join(out, "recons"))
    sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
    for item in slices:
        res = reconstruct(item.kspace, item.acquired, sens, den, sched, cfg,
                          seed=args.seed + item.slice_id)
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
    out = _default_out(args, "zf_out")
    _prepare_out(out, args.force)
    os.makedirs(os.path.join(out, "recons"))
    for item in slices:
        op = EncodingOperator(sens, item.acquired, manifest.rows, manifest.cols)
        tensorio.write_tensor(zero_filled(item.kspace, op),
                              os.path.join(out, "recons",
                                           f"slice_{item.slice_id:04d}.cksp"))
    print(f"zero-filled {len(slices)} slices to {out}")
    return 0


def _read_recons(recon_dir, n_slices):
    """Recons of truth slices 0..n_slices-1, paired by the slice id in
    their file names; a file or an id without a partner is an error."""
    folder = os.path.join(recon_dir, "recons")
    names = [f"slice_{i:04d}.cksp" for i in range(n_slices)]
    present = set(os.listdir(folder))
    stray = sorted(present - set(names))
    missing = [i for i, name in enumerate(names) if name not in present]
    if stray or missing:
        raise RuntimeError(f"{folder}: files without a truth slice {stray}, "
                           f"truth slice ids without a recon {missing}")
    return [tensorio.read_tensor(os.path.join(folder, name)) for name in names]


def cmd_eval(args):
    manifest, _ = _load_dataset(args.truth)
    recons = _read_recons(args.recon, len(manifest.slices))
    truths = [tensorio.read_tensor(os.path.join(args.truth, rel))
              for rel in manifest.slices]
    report = evaluate_run(recons, truths, method=args.method,
                          n_boot=args.n_boot, seed=args.seed)
    out = _default_out(args, "eval_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{args.method}.metrics.csv"), "w") as f:
        f.write(report.csv_rows())
    with open(os.path.join(out, f"{args.method}.aggregate.json"), "w") as f:
        json.dump(report.to_aggregate(), f, indent=2, sort_keys=True)
    print(f"evaluated {len(recons)} slices; mean NMSE {report.means['nmse']:.5f}, "
          f"PSNR {report.means['psnr']:.2f} dB, SSIM {report.means['ssim']:.4f}")
    return 0


_METRICS = ("nmse", "psnr", "ssim")


def _read_metric_csv(path):
    """Rows of an `eval` metrics CSV by slice id, metrics as floats; a
    missing column or a row that does not parse raises ValueError."""
    rows = {}
    with open(path) as f:
        header = f.readline().strip().split(",")
        missing = [c for c in ("slice", "method") + _METRICS if c not in header]
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
                                           **{m: float(rec[m]) for m in _METRICS}}
            except ValueError as exc:
                raise ValueError(f"{path}, line {n}: {exc}") from exc
    return rows


def cmd_stats(args):
    tables = {}
    for path in args.reports:
        rows = _read_metric_csv(path)
        method = next(iter(rows.values()))["method"] if rows else path
        tables[method] = rows
    slice_sets = {m: set(t) for m, t in tables.items()}
    common = set.intersection(*slice_sets.values())
    mismatched = {m: sorted(s - common) for m, s in slice_sets.items() if s - common}
    if mismatched:
        raise RuntimeError(f"slice sets differ between methods: {mismatched}")

    out = _default_out(args, "stats_out")
    os.makedirs(out, exist_ok=True)
    results = {}
    for metric in _METRICS:
        groups = {m: np.array([t[i][metric] for i in sorted(common)])
                  for m, t in tables.items()}
        res = compare_methods(groups)
        results[metric] = res.to_dict()
        print(f"{metric}: ANOVA F={res.anova_f:.4g} p={res.anova_p:.4g}")
        for a, b, q, p in res.pairwise:
            print(f"  {a} vs {b}: q={q:.4g} p={p:.4g}")
    with open(os.path.join(out, "tests.json"), "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    return 0


def cmd_sweep(args):
    """Train/reconstruct/evaluate over the (R, rho) grid and combine the
    per-slice metrics into one CSV mirroring the split-ratio figure axes."""
    out = _default_out(args, "sweep_out")
    _prepare_out(out, args.force)
    manifest, _ = _load_dataset(args.data)
    truths = [tensorio.read_tensor(os.path.join(args.data, rel))
              for rel in manifest.slices]

    def sub_args(**overrides):
        ns = argparse.Namespace(**vars(args))
        ns.force = True
        ns.resume = None
        for key, val in overrides.items():
            setattr(ns, key, val)
        return ns

    rows = ["R,rho,slice,nmse,psnr,ssim"]
    summary = {}
    for R in args.R_grid:
        for rho in args.rho_grid:
            tag = f"R{R:g}_rho{rho:g}"
            sub = os.path.join(out, tag)
            cmd_undersample(sub_args(out=os.path.join(sub, "undersampled"), R=R))
            cmd_train(sub_args(data=os.path.join(sub, "undersampled"), rho=rho,
                               out=os.path.join(sub, "run")))
            cmd_recon(sub_args(data=os.path.join(sub, "undersampled"),
                               run=os.path.join(sub, "run"),
                               out=os.path.join(sub, "recon")))
            recons = _read_recons(os.path.join(sub, "recon"), len(truths))
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


def build_parser():
    p = argparse.ArgumentParser(prog="ssdiffmri",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--force", action="store_true",
                        help="overwrite a non-empty output directory")

    sp = sub.add_parser("phantom", help="generate a synthetic dataset")
    add_common(sp)
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--size", type=int, default=64)
    sp.add_argument("--coils", type=int, default=4)
    sp.add_argument("--ellipses", type=int, default=8)
    sp.set_defaults(func=cmd_phantom)

    sp = sub.add_parser("undersample", help="mask and encode a dataset")
    add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--R", type=float, default=4.0)
    sp.add_argument("--center-fraction", type=float, default=0.04,
                    dest="center_fraction")
    sp.add_argument("--noise-std", type=float, default=0.0, dest="noise_std")
    sp.set_defaults(func=cmd_undersample)

    def add_train_flags(sp):
        for name in _TRAIN_FLAGS:
            default = getattr(TrainConfig, name)
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            type=type(default), default=default)
        sp.add_argument("--config", default=None,
                        help="JSON file overriding TrainConfig fields")

    sp = sub.add_parser("train", help="self-supervised training run")
    add_common(sp)
    sp.add_argument("--data", required=True, help="undersampled directory")
    sp.add_argument("--resume", default=None, help="checkpoint directory")
    add_train_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("recon", help="reconstruct an undersampled directory")
    add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--run", required=True, help="training run directory")
    sp.add_argument("--t-start", type=int, default=0, dest="t_start")
    sp.set_defaults(func=cmd_recon)

    sp = sub.add_parser("zerofill", help="zero-filled baseline reconstructions")
    add_common(sp)
    sp.add_argument("--data", required=True)
    sp.set_defaults(func=cmd_zerofill)

    sp = sub.add_parser("eval", help="metrics of recons against truth")
    add_common(sp)
    sp.add_argument("--recon", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--method", default="recon")
    sp.add_argument("--n-boot", type=int, default=10000, dest="n_boot")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("stats", help="ANOVA and Tukey HSD across method reports")
    add_common(sp)
    sp.add_argument("reports", nargs="+", help="metrics.csv files (>= 2)")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("sweep", help="train/evaluate over a rho grid")
    add_common(sp)
    sp.add_argument("--data", required=True, help="phantom dataset directory")
    sp.add_argument("--rho-grid", type=float, nargs="+", default=[0.3, 0.5, 0.7],
                    dest="rho_grid")
    sp.add_argument("--R-grid", type=float, nargs="+", default=[2.0, 4.0],
                    dest="R_grid")
    sp.add_argument("--center-fraction", type=float, default=0.04,
                    dest="center_fraction")
    sp.add_argument("--noise-std", type=float, default=0.0, dest="noise_std")
    sp.add_argument("--n-boot", type=int, default=1000, dest="n_boot")
    add_train_flags(sp)
    sp.set_defaults(func=cmd_sweep)
    return p


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stats" and len(args.reports) < 2:
        parser.error("stats needs at least 2 metrics.csv reports")
    try:
        return args.func(args)
    except (RuntimeError, OSError, ValueError, tensorio.CkspError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
