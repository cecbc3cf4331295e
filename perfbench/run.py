"""Benchmark for sinoquad: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload recon --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports per-layer metrics from spans
recorded around calls into each sinoquad module, plus the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines before it give every figure by name with its
unit and the run's provenance. perfbench/README.md defines the metrics.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so pin it before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# Figures reported by name beside the metrics BENCHMARK.json bounds, with units.
# items_per_s and item_ms_p50 are the gated speeds' wall-clock counterparts.
REPORTED = {"items_per_s": "1/s", "item_ms_p50": "ms", "failed_frac": "ratio", "train_loss": "mse",
            "recon_ssim_128v": "ssim", "recon_ssim_32v": "ssim", "recon_pairs_128v_above_32v": "count"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_item(wl, index, tracer=None):
    """One item, timed and then checked.

    Returns (CPU seconds, wall seconds, work units, passed). CPU seconds
    are this process's, all threads; time the host gives other tenants
    counts in wall seconds only. With a tracer, the item runs inside a
    "bench.item" span with the tracer installed; the check always runs
    untraced.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    if tracer is None:
        out = wl.run(index)
    else:
        tracer.install()
        try:
            with tracer.span("bench.item"):
                out = wl.run(index)
        finally:
            tracer.uninstall()
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    return cpu, wall, wl.work(out), wl.check(index, out)


def closed_loop(wl, seconds, step):
    """step(index) for index = 0, 1, ... until seconds pass and min_items ran."""
    results = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < wl.min_items:
        results.append(step(index))
        index += 1
    return results


def end_to_end(results):
    """Speed figures from (CPU s, wall s, work units, passed) per item.

    Every speed is a median over items, so a few seconds of a faster or
    slower machine move it less than a mean. The gated speeds use CPU
    seconds; the wall-clock ones are reported beside them.
    """
    return {
        "items_per_cpu_s": statistics.median(w / cpu for cpu, _, w, _ in results),
        "item_cpu_ms_p50": statistics.median(1e3 * cpu / w for cpu, _, w, _ in results),
        "items_per_s": statistics.median(w / wall for _, wall, w, _ in results),
        "item_ms_p50": statistics.median(1e3 * wall / w for _, wall, w, _ in results),
        "item_cpu_seconds": [cpu for cpu, _, _, _ in results],
        "item_seconds": [wall for _, wall, _, _ in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def untraced_run(wl, args):
    from workloads import cold_setup

    reps = [cold_setup(wl.name, args.seed, wl.workdir) for _ in range(SETUP_REPS - 1)]
    reps.append(wl.setup())
    wl.run(0)  # warm-up, untimed
    results = closed_loop(wl, args.seconds, lambda i: run_item(wl, i))
    figures = end_to_end(results)
    figures["setup_s"] = statistics.median(reps)
    figures["setup_s_reps"] = reps
    return results, figures, {}


def traced_run(wl, args):
    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            wl.setup(traced=True)
    finally:
        tracer.uninstall()
    step_peak = tr.step_peak_mb(lambda: wl.run(0))  # the warm-up item, untimed
    # Each item runs untraced and traced, in alternating order so drift in
    # machine speed cancels; the difference is the tracing overhead.
    def both(index):
        first, second = (None, tracer) if index % 2 == 0 else (tracer, None)
        a, b = run_item(wl, index, first), run_item(wl, index, second)
        return (a, b) if first is None else (b, a)

    base, traced = (list(r) for r in zip(*closed_loop(wl, args.seconds, both)))

    layers, breakdown, units = tr.summarize(tracer.spans, wl.unit_span)
    layers["autograd.step_peak_mb"] = step_peak
    layers["projector.nnz"] = tr.nnz(tracer.projectors)
    layers["projector.stored_mb"] = tr.stored_mb(tracer.projectors)
    base_s = sum(cpu for cpu, _, _, _ in base)
    traced_s = sum(cpu for cpu, _, _, _ in traced)
    work = sum(w for _, _, w, _ in base)
    layers["trace.overhead_ms"] = 1e3 * (traced_s - base_s) / work
    layers["trace.overhead_frac"] = traced_s / base_s - 1.0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    figures = {"untraced": end_to_end(base), "traced": end_to_end(traced),
               "layer_units": units, "spans": str(spans_path.relative_to(ROOT)),
               "self_time_by_module": breakdown}
    return base + traced, figures, layers


def provenance():
    import ctypes
    import hashlib
    import platform

    import numpy
    import scipy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                           "MKL_NUM_THREADS")}}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = {"name": blas.get("name"), "version": blas.get("version"), "threads": {}}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas"]["threads"][Path(lib_path).name] = fn()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    info["caches"] = caches
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
        info["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        info["git_sha"] = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    info["src_sha256"] = digest.hexdigest()
    info["src_lines"] = lines  # information only, not a gated metric
    return info


def run_one(args):
    if not (SRC / "sinoquad" / "__init__.py").is_file():
        print(f"error: {SRC / 'sinoquad'} not found; run from a sinoquad checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        results, figures, layers = (traced_run if args.trace else untraced_run)(wl, args)
        quality = wl.quality()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    failed = sum(1 for *_, ok in results if not ok)
    figures["failed_frac"] = failed / attempted
    figures["items"] = attempted
    figures.update(quality)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else figures
    missing = [m["name"] for m in specs if m["name"] not in source]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]} for m in specs}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "figures": figures, "provenance": provenance()}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  items {attempted}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for name, unit in REPORTED.items():
        if name in figures:
            print(f"  {name:40s} {figures[name]:14.6g} {unit}")
    if args.trace:
        print("  self time by module, per layer unit:")
        for mod, row in figures["self_time_by_module"].items():
            share = 100 * row["share_of_item_time"]
            print(f"    {mod:12s} {row['self_ms_per_unit']:10.2f} ms  {share:5.1f}%")
    print("REPORT " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every figure."""
    spec = load_spec()
    reports, status = {}, 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(next(line for line in lines if line.startswith("REPORT "))[7:])
        reports[w["name"]] = (result, report)
        status = status or (0 if result["correct"] else 1)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    units.update(REPORTED)
    print(f"{'metric':40s} {'unit':16s}" + "".join(f"{w:>14s}" for w in reports))
    for name, unit in units.items():
        cells = []
        for result, report in reports.values():
            value = result["metrics"].get(name, {}).get("value", report["figures"].get(name))
            cells.append("-" if value is None else f"{value:.6g}")
        print(f"{name:40s} {unit:16s}" + "".join(f"{c:>14s}" for c in cells))
    print(json.dumps({w: {k: r[k] for k in ("correct", "attempted", "failed")}
                      for w, (r, _) in reports.items()}))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
