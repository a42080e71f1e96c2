#!/usr/bin/env python3
"""Benchmark of the ssdiffmri package: one workload per run.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and nowhere else. With ``--trace 0`` it times the workload and
prints the end-to-end metrics listed in ``BENCHMARK.json``. With
``--trace 1`` it runs the workload twice from the same seed, untraced and
then traced, checks that both give bit-identical outputs, and prints the
per-layer metrics. The last line of standard output is the result object;
the lines before it are a readable summary and a ``REPORT`` line with the
machine record, exact counts and the sample counts behind each percentile.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from spans import MODULES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-workload names of the figures, as perfbench/README.md lists them
ALIASES = {
    "train-desk": {"slices_per_s": "train.slices_per_s", "op_s.mean": "train.step_s.mean",
                   "op_s.p50": "train.step_s.p50", "op_s.tail": "train.step_s.tail"},
    "recon-desk": {"slices_per_s": "recon.slices_per_s", "op_s.mean": "recon.slice_s.mean",
                   "op_s.p50": "recon.slice_s.p50", "op_s.tail": "recon.slice_s.tail"},
    "cli-pipeline": {"op_s.mean": "cli.pipeline_s.mean", "op_s.p50": "cli.pipeline_s.p50",
                     "op_s.tail": "cli.pipeline_s.tail"},
}


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        cur = os.environ.get(var, "")
        want = int(cur) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(min(want, nproc))
    return nproc


def blas_record(np):
    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["blas_threads"] = int(getattr(lib, sym)())
                return info
    return info


def machine_record(nproc, np, scipy):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            **blas_record(np), "blas_threads_env": os.environ[BLAS_ENV[0]],
            "cpu": cpu, "platform": platform.platform()}


def tail_of(samples):
    """Median and the highest percentile with at least ten samples beyond
    it (the maximum when there are ten or fewer samples)."""
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return statistics.median(s), s[n - 11], 100.0 * (n - 10) / n, n
    return statistics.median(s), s[-1], 100.0, n


def low_of(samples):
    """The 10th percentile (linear interpolation between order statistics)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[0]


def timed_setup(w):
    t0 = time.perf_counter()
    w.setup()
    return time.perf_counter() - t0


def run_timed(w, make, seconds):
    """Set-up is timed SETUP_REPEATS times: once for the measured copy and
    then on throwaway copies spread evenly over the run, so the median
    set-up time samples the same mix of host bursts as the ops."""
    setup = [timed_setup(w)]
    w.start()
    w.warmup()
    w.busy_s = 0.0
    t0 = time.perf_counter()
    units = 0
    while units < w.min_units or time.perf_counter() - t0 < seconds:
        w.unit()
        units += 1
        if (len(setup) < SETUP_REPEATS
                and time.perf_counter() - t0 >= seconds * len(setup) / SETUP_REPEATS):
            setup.append(timed_setup(make(f"setup{len(setup)}")))
    with w.ops.op("quality"):
        w.finish()
    if w.quality is None or not w.op_times:
        raise SystemExit("error: no quality figures or no timed operations")
    while len(setup) < SETUP_REPEATS:    # ops longer than a fifth of the run
        setup.append(timed_setup(make(f"setup{len(setup)}")))
    p50, tail, pct, n = tail_of(w.op_times)
    psnr, ssim, dpsnr, dssim = w.quality
    values = {
        "setup_s": statistics.median(setup),
        "slices_per_s": w.slices_done / w.busy_s,
        "op_s.mean": statistics.fmean(w.op_times),
        "op_s.p10": low_of(w.op_times),
        "op_s.p50": p50,
        "op_s.tail": tail,
        "eval.slice_s.mean": statistics.fmean(w.eval_times),
        "eval.slice_s.p10": low_of(w.eval_times),
        "eval.slice_s.p50": statistics.median(w.eval_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality.psnr_db": statistics.median(psnr),
        "quality.ssim": statistics.median(ssim),
    }
    report = {
        "op": w.op_name, "ops_timed": n, "tail_percentile": pct,
        "eval_samples": len(w.eval_times), "setup_samples": setup,
        "quality.dpsnr_db": statistics.median(dpsnr),
        "quality.dssim": statistics.median(dssim),
        "quality.slices": len(psnr),
        **{alias: values[name] for name, alias in ALIASES[w.name].items()},
    }
    return values, report


def layer_values(names, tracer, n_ops, untraced, traced):
    """Per-layer figures per operation of the traced segment."""
    modules = tracer.module_self_s()
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name == "nets.disc.step_share":
            step = tracer.inclusive_s.get("pipeline.train_step", 0.0)
            out[name] = 100.0 * tracer.inclusive_s.get("nets.disc", 0.0) / step if step else 0.0
        elif name == "trace.overhead_share":
            out[name] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        elif name == "pipeline.reconstruct.model_calls":
            calls = tracer.calls.get("pipeline.reconstruct", 0)
            out[name] = tracer.counters.get(name, 0.0) / calls if calls else 0.0
        elif name.endswith("gflop"):
            out[name] = tracer.counters.get(name[:-5] + "flop", 0) / n_ops / 1e9
        elif name.endswith("mb"):
            out[name] = tracer.counters.get(name[:-2] + "bytes", 0) / n_ops / 1e6
        elif kind == "self_s" and span in MODULES:
            out[name] = modules[span] / n_ops
        elif kind == "self_s" and span.split(".")[0] in MODULES:
            out[name] = tracer.self_s.get(span, 0.0) / n_ops
        elif kind == "calls" and span.split(".")[0] in MODULES:
            out[name] = tracer.calls.get(span, 0) / n_ops
        else:
            raise ValueError(f"no per-layer figure named {name!r}")
    return out


def run_traced(make, seconds, names):
    """Two copies of the workload from the same seed, one untraced and one
    traced, take turns unit by unit (alternating which goes first), so
    machine load drifts alike on both sides of the overhead figure."""
    from workloads import require

    plain, traced = make("plain"), make("traced")
    for w in (plain, traced):
        w.setup()
        w.start()
    tracer = Tracer()
    t0 = time.perf_counter()
    units = 0
    while units < 2 or time.perf_counter() - t0 < seconds:
        for w in ((plain, traced) if units % 2 == 0 else (traced, plain)):
            if w is plain:
                w.unit()
                continue
            tracer.install()
            w.tracer = tracer
            try:
                w.unit()
            finally:
                tracer.uninstall()
                w.tracer = None
        units += 1
    identical = traced.digest() == plain.digest()
    with traced.ops.op("traced outputs bit-identical to untraced"):
        require(identical, "traced and untraced outputs differ")
    n_ops = len(traced.op_times)
    values = layer_values(names, tracer, n_ops, plain.op_times, traced.op_times)
    report = {"op": traced.op_name, "ops_traced": n_ops, "units": units,
              "untraced_op_s.p50": statistics.median(plain.op_times),
              "traced_op_s.p50": statistics.median(traced.op_times),
              "bit_identical": identical, "absent": sorted(tracer.absent),
              "module_self_s": {k: v / n_ops for k, v in tracer.module_self_s().items()},
              "spans_not_reported": sorted(
                  set(tracer.calls) - {n.rpartition(".")[0] for n in names})}
    return values, report, (plain, traced)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    nproc = cap_blas_threads()
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "ssdiffmri", "__init__.py")):
        print(f"error: no package source at {SRC}/ssdiffmri", file=sys.stderr)
        return 2
    if not os.path.isfile(bench_path):
        print(f"error: {bench_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy
    import ssdiffmri
    if not os.path.abspath(ssdiffmri.__file__).startswith(SRC + os.sep):
        print(f"error: ssdiffmri imported from {ssdiffmri.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(bench_path) as f:
        bench = json.load(f)
    listed = bench["per_layer" if args.trace else "end_to_end"]

    scratch_root = os.path.join(ROOT, ".perfbench_work")
    scratch = os.path.join(scratch_root, f"{args.workload}-{os.getpid()}")

    def make(tag):
        return WORKLOADS[args.workload](args.seed, os.path.join(scratch, tag))

    try:
        if args.trace:
            values, report, runs = run_traced(make, args.seconds,
                                              [m["name"] for m in listed])
        else:
            w = make("timed")
            values, report = run_timed(w, make, args.seconds)
            runs = (w,)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.isdir(scratch_root) and not os.listdir(scratch_root):
            os.rmdir(scratch_root)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    report.update({k: v for k, v in values.items() if k not in metrics})
    attempted = sum(w.ops.attempted for w in runs)
    failed = sum(w.ops.failed for w in runs)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_record(nproc, np, scipy),
                  failed_share=failed / attempted, **runs[-1].detail)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
