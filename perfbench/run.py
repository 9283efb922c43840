"""ioclqr benchmark driver: one workload, one BLAS thread, one process.

    python3 perfbench/run.py --workload noisy_fit --seed 1 --seconds 30 --trace 0

Run from the repository root. The library is imported from ./src. With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of one traced pass over the op pool. Every
run also writes a full record (environment, quality figures, outcome digest,
problems) to perfbench/results/, and a traced run writes its spans there.
See perfbench/NOTES.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
# what a fresh process imports before it can issue its first op
IMPORT_PROBE = "import numpy, scipy.linalg, scipy.optimize, ioclqr, ioclqr.cli"


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def pin_blas_threads():
    # threadpoolctl is not available, so the only lever is the environment,
    # which OpenBLAS reads once when numpy loads it
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread pin; the pin would not apply")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def blas_threads_in_use():
    """Thread count reported by each OpenBLAS copy mapped into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def fresh_import_s():
    """Wall time for a fresh interpreter, with the same thread pin, to start
    and import everything an op needs. Each run repeats it SETUP_REPEATS
    times and keeps the median: one import alone read anywhere from 0.5 to
    0.9 s on a shared 2-vCPU Xeon host."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"import probe failed: {e}") from e
    return time.perf_counter() - t


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ioclqr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args):
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_in_use": blas_threads_in_use(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("noisy_fit", "long_horizon", "exact_cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args):
    if not os.path.isdir(os.path.join(SRC, "ioclqr")):
        raise BenchError(f"no ioclqr sources under {SRC}; run from the repository root")
    pin_blas_threads()
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibration
    import ioclqr
    import tracing
    import workloads

    env = environment(args)
    wrong = {lib: n for lib, n in env["blas_threads_in_use"].items() if n != 1}
    if wrong:
        raise BenchError(f"BLAS runs with more than one thread: {wrong}")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(ioclqr)
    wl = workloads.make(args.workload, args.seed, args.seconds)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    try:
        return measure(args, wl, tracer, env, workdir, calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, tracer, env, workdir, calibration):
    # set-up: fresh-process imports plus input construction, each repeated;
    # calibrated below with the run's kernel samples, which are many more
    # than a set-up phase has room for
    import_times = [fresh_import_s() for _ in range(SETUP_REPEATS)]
    setup_times = []
    for r in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.active = r == SETUP_REPEATS - 1  # trace one set-up, like one pass
        t = time.perf_counter()
        pool = wl.setup(workdir)
        setup_times.append(time.perf_counter() - t)
    setup_wall = statistics.median(import_times) + statistics.median(setup_times)

    # First pass: every pool item once (traced when --trace 1). Untraced runs
    # then repeat items in order until --seconds have passed; a repeat must
    # reproduce the first pass's outcome exactly. Op latencies exclude the
    # calibration kernel, which runs between op steps.
    clock = calibration.Calibrator(dense=wl.dense_ops)
    K = len(pool)
    lat = [[] for _ in range(K)]
    first = [None] * K
    problems = []
    failed_ops = 0
    attempted = 0
    clock.sample()
    t0 = time.perf_counter()
    pass_s = None
    # after the first pass, start another op only while it would end, at the
    # mean op time so far, no more than half an op past --seconds
    while attempted < K or (
        tracer is None
        and time.perf_counter() - t0 + 0.5 * (time.perf_counter() - t0) / attempted < args.seconds
    ):
        i = attempted % K
        spent = clock.spent
        t = time.perf_counter()
        try:
            out = wl.run_op(pool[i], clock.tick)
            errs = list(out.problems)
        except Exception as e:  # an op that raises is a failed op, not a crash
            out = None
            errs = [f"{type(e).__name__}: {e}"]
        lat[i].append(time.perf_counter() - t - (clock.spent - spent))
        clock.tick()
        if attempted < K:
            first[i] = out
        elif out is None or first[i] is None or out.digest != first[i].digest:
            errs.append("outcome differs from the first pass")
        attempted += 1
        if errs:
            failed_ops += 1
            problems += [f"op {attempted} ({wl.label(pool[i])}): {e}" for e in errs]
        if attempted == K:
            pass_s = time.perf_counter() - t0
            pass_busy_s = sum(x[0] for x in lat)
            if tracer is not None:
                tracer.active = False
    clock.sample()

    ref = wl.reference(pool, first)
    for i, errs in ref.items():
        failed_ops += 1
        problems += [f"reference check ({wl.label(pool[i])}): {e}" for e in errs]

    # each pool item weighs the same however often it ran
    busy_s = sum(statistics.fmean(x) for x in lat)
    op_p50 = statistics.median(statistics.median(x) for x in lat)
    f = clock.factor()
    e2e = {
        "setup_s": (setup_wall * f, "s"),
        "ops_per_s": (K / (busy_s * f), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    digest_doc = [o.digest if o is not None else None for o in first]
    digest = hashlib.sha256(json.dumps(digest_doc, sort_keys=True).encode()).hexdigest()
    record = {
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "failed_frac": failed_ops / attempted,
        "attempted": attempted,
        "failed": failed_ops,
        "pool_ops": K,
        "op_s_p50": op_p50 * f,
        "op_samples": sum(len(x) for x in lat),
        "op_latency_wall_s": lat,
        "first_pass_s": pass_s,
        "first_pass_busy_s": pass_busy_s * f,
        "wall": {"setup_s": setup_wall, "ops_per_s": K / busy_s, "op_s_p50": op_p50,
                 "fresh_import_s": import_times,
                 "input_setup_s": setup_times},
        "calibration": {"run_reference_s": clock.reference_s, "run_factor": f, "run_samples_s": clock.samples,
                        "run_kernel_s": clock.spent},
        "quality": wl.quality(first),
        "outcome_digest": digest,
        "outcomes": digest_doc,
        "problems": problems,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = e2e
    if tracer is not None:
        metrics = tracer.layer_metrics()
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(RESULTS, stem + ".spans.tsv"))
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{stem}: digest {digest[:16]}, {attempted} ops, {failed_ops} failed, "
          f"first pass {pass_s:.2f} s, record {os.path.relpath(RESULTS, ROOT)}/{stem}.json",
          file=sys.stderr)
    return {
        "correct": failed_ops == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
