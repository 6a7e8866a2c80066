#!/usr/bin/env python3
"""Pipeline benchmark of the samplets library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is build-1d, kernel-2d or apply-1d (see workloads.py for what each one
stresses and why), or "all", which runs each workload in a fresh process and
prints every metric by name with its unit. Run from the repository root; the
library is imported from its src directory. A workload is a closed loop: one
client in one process, with the BLAS thread count fixed below.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
calls into the library (run_pipeline itself on build-1d and kernel-2d).
--trace 1 reports the per-layer metrics: it calls the same public functions
in the order run_pipeline uses, records a span around each call, takes each
layer's self time from the spans and writes them, with the environment, to
perfbench/out/trace-NAME-seedN.json. Both print the environment on a line
before the last, and as their last line one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

NAMES = ("build-1d", "kernel-2d", "apply-1d")

# One process per workload with one BLAS thread, set before numpy is
# imported. On a two-core shared host a second thread made the small
# eigensolves of the tree slower, not faster, and tied every BLAS call to
# the load on the other core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="N = 256 on every workload, for a smoke test")
    return ap.parse_args(argv)


def _import_library():
    """Import samplets; return the seconds since this process started."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "samplets", "__init__.py")):
        sys.exit(f"error: no samplets sources under {src}; run from a repository checkout")
    sys.path.insert(0, src)
    import samplets  # noqa: F401

    return time.perf_counter() - T_START


def _fresh_import_s():
    """Seconds a fresh interpreter, started and awaited here, takes to import samplets."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import samplets; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def _git_revision():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _environment(args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_version,
        "numba_importable": numba, "git_revision": _git_revision(),
    }


def _number(v):
    return v if v == v else None  # NaN, from a phase that failed, as null


def run_workload(args):
    import_s = _import_library()
    import workloads
    from spans import Tracer

    spec = workloads.make_spec(args.workload, args.tiny)
    env = _environment(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            tracer = Tracer(run_id=os.path.basename(work_dir))
            ops, metrics, extras = workloads.run_traced(spec, args.seed, work_dir, tracer)
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path, {"environment": env, **extras})
            env["trace_path"] = os.path.relpath(trace_path, ROOT)
        else:
            ops, metrics, samples = workloads.run_measured(
                spec, args.seed, args.seconds, work_dir, import_s, _fresh_import_s
            )
            env["samples"] = samples
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in ops.failures:
        print(f"failed: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"attempted = {ops.attempted}, failed = {ops.failed}")
    print("environment " + json.dumps(env))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in a fresh process; one table of every metric."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        res = results[name]
        print(f"{name}: correct = {res['correct']}, attempted = {res['attempted']}, "
              f"failed = {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
