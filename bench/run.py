"""Benchmark for allg: drives the `allg` CLI entry in one process.

    python3 bench/run.py --workload select-n1000 --seed 1 --seconds 25 --trace 0

Set-up writes the workload's inputs as CSV, then the run repeats one CLI
command in a closed loop (each operation starts when the previous one ends)
for `--seconds`, after one warm-up operation, and checks every operation's
outputs.  With `--trace 0` the last stdout line reports the end-to-end
metrics; with `--trace 1` traced and untraced operations alternate and it
reports the per-layer metrics and the tracing overhead.  Inputs and outputs
live under `.bench_out/<workload>/` in the checkout (`<workload>-toy/` with
`--toy`).
"""

import os

# BLAS and OpenMP read these once, when numpy loads: pin before importing it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckError  # noqa: E402
from tracer import OP, Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
MODULES = ("allg.cli", "allg.data", "allg.training", "allg.autodiff", "allg.evaluate")


def import_allg() -> dict:
    """Import allg afresh from the checkout's src/ and return its modules by name."""
    for name in [m for m in sys.modules if m == "allg" or m.startswith("allg.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in MODULES}
    where = os.path.dirname(modules["allg.cli"].__file__)
    if os.path.realpath(where) != os.path.realpath(os.path.join(SRC, "allg")):
        raise RuntimeError(f"imported allg from {where}, not from {SRC}")
    return modules


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; git would report an enclosing repository
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "allg"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run; returns the result object and writes it with its samples."""
    workload = WORKLOADS[name](toy)
    base = os.path.join(ROOT, ".bench_out", name + ("-toy" if toy else ""))
    work, out = os.path.join(base, "input"), os.path.join(base, "output")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(work)

    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        modules = import_allg()
        workload.prepare(seed, work)
        setup.append(time.perf_counter() - t0)
    workload.install(modules)
    main = modules["allg.cli"].main
    argv = workload.argv(work, out, seed)

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    cpus, problems, accuracies = [], [], []
    counts = {"attempted": 0, "failed": 0}

    def operation(traced: bool, timed: bool = True) -> None:
        shutil.rmtree(out, ignore_errors=True)
        workload.seen.clear()
        gc.collect()
        if traced:
            tracer.install(modules)
            gc_before = tracer.gc_pause_s
            span = tracer.begin(OP)
        counts["attempted"] += 1
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        except Exception:  # a crash is a failed operation; the run goes on
            traceback.print_exc()
            code = "an exception"
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        if traced:
            tracer.end(span, tracer.gc_pause_s - gc_before)
            tracer.uninstall()
        if code != 0:
            counts["failed"] += 1
            print(f"operation failed with {code}: allg {' '.join(argv)}", file=sys.stderr)
            return
        try:
            accuracies.append(workload.check(out))
        except (CheckError, OSError, LookupError, TypeError, ValueError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
            print(f"output check failed: {exc}", file=sys.stderr)
        if timed:
            walls[traced].append(wall)
            if not traced:
                cpus.append(cpu)

    operation(traced=False, timed=False)  # warm-up: allocator, caches, first faults
    deadline = time.perf_counter() + seconds
    while True:
        if trace:
            operation(traced=True)
        operation(traced=False)
        if time.perf_counter() >= deadline:
            break

    if len(set(accuracies)) > 1:
        problems.append(f"operations on identical inputs scored {sorted(set(accuracies))}")
    if trace:
        metrics = per_layer(tracer, walls[True], walls[False])
    else:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s") if walls[False] else None,
            "cpu_s": (statistics.median(cpus), "s") if cpus else None,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "accuracy": (accuracies[0], "fraction") if accuracies else None,
        }
    result = {
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if v},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "toy": toy,
              "environment": environment(), "problems": problems,
              "samples": {"setup_s": setup, "wall_s": walls[False], "cpu_s": cpus,
                          "traced_wall_s": walls[True]},
              "result": result}
    tag = f"seed{seed}-trace{int(trace)}"
    with open(os.path.join(base, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(os.path.join(base, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.as_records(), fh)
    print(json.dumps({"environment": record["environment"], "problems": problems}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "allg", "__init__.py")):
        print(f"bench: no allg package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
