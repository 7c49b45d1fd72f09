"""Benchmark of seqpolicy: training, checkpoints and prompted rollout.

One workload, in this process::

    python3 perfbench/run.py --workload pretrain-mixed --seed 1 --seconds 40 --trace 0

Every workload, each in its own process, untraced and then traced, with a
table of the end-to-end metrics and the tracing overhead::

    python3 perfbench/run.py --all --seed 1

A single run prints its metrics and, as the last line of standard output, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. It also writes a result file, and with
``--trace 1`` the recorded spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"


def _pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use; before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(wanted)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _blas_threads_in_use():
    """Ask the OpenBLAS numpy loaded for its thread count; None if unknown."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path):
    """HEAD commit read from .git, or None when the checkout is not a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_info(pinned: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads_in_use(),
        "blas_threads_pinned": pinned,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
    }


def run_one(args) -> int:
    pinned = _pin_blas_threads()
    src = ROOT / "src"
    if not (src / "seqpolicy" / "__init__.py").is_file():
        print(f"seqpolicy sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench_stats
    import bench_workloads

    spec = bench_stats.load_spec(SPEC_PATH)
    workload = bench_workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    tracer = None
    if args.trace:
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        raw = bench_workloads.run_workload(workload, args.seed, args.seconds, work, tracer)
        error = None
    except Exception:  # a crash in the program is a failed run, reported in full
        raw, error = None, traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if raw is None:
        metrics, samples, timings, checks = {}, {}, {}, {"error": error}
        attempted, failed = 1, 1
    else:
        metrics = bench_workloads.measured(raw)
        samples = bench_workloads.sample_counts(raw)
        if tracer:
            layer_metrics, layer_samples = bench_workloads.per_layer(raw, tracer)
            metrics.update(layer_metrics)
            samples.update(layer_samples)
        timings = bench_workloads.timings(raw)
        checks = raw["checks"].detail
        attempted, failed = raw["checks"].attempted, raw["checks"].failed

    group = spec["per_layer" if args.trace else "end_to_end"]
    reported = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in group
        if m["name"] in metrics
    }
    result = {"correct": False, "attempted": attempted, "failed": failed, "metrics": reported}
    doc = {
        "workload": workload.name,
        "rounds": raw["rounds"] if raw else 0,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "machine": machine_info(pinned),
        "result": result,
        "metrics": metrics,
        "samples": samples,
        "timings": timings,
        "checks": checks,
        "phases_s": raw["phases_s"] if raw else {},
        "ops_failed_ratio": failed / attempted,
    }
    problems = bench_stats.result_file_problems(doc, spec)
    result["correct"] = failed == 0 and not problems
    for problem in problems:
        print(f"result: {problem}", file=sys.stderr)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer:
        tracer.dump(OUT_DIR / f"{stem}.spans.json")

    for m in group:
        if m["name"] in metrics:
            print(f"{m['name']:<34} {metrics[m['name']]:>14.4f} {m['unit']}")
    print(f"{'ops_failed_ratio':<34} {failed / attempted:>14.4f} ({failed}/{attempted})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_suite(args) -> int:
    """Each workload untraced then traced, each run in its own process."""
    spec = json.loads(SPEC_PATH.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    all_ok = True
    for w in spec["workloads"]:
        docs = {}
        for trace in (0, 1):
            path = OUT_DIR / f"{w['name']}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                all_ok = False
                print(proc.stderr, file=sys.stderr)
            docs[trace] = json.loads(path.read_text()) if path.is_file() else None
        plain, traced = docs[0], docs[1]
        print(f"== {w['name']} (seed {args.seed}, {seconds} s)")
        if plain is None or traced is None:
            print("   no result")
            all_ok = False
            continue
        for m in spec["end_to_end"]:
            value = plain["metrics"].get(m["name"])
            shown = "missing" if value is None else f"{value:.4f}"
            print(f"   {m['name']:<34} {shown:>14} {m['unit']}")
        print(f"   {'ops_failed_ratio':<34} {plain['ops_failed_ratio']:>14.4f}")
        for trace_doc in (plain, traced):
            all_ok &= trace_doc["result"]["correct"]
        for name in ("train.step_ms.p50", "rollout.action_ms.p50"):
            overhead = traced["metrics"][name] / plain["metrics"][name] - 1.0
            print(f"   {'tracing overhead on ' + name:<34} {100 * overhead:>13.2f}%")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name from BENCHMARK.json")
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time of a run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_suite(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    if args.seconds is None:
        args.seconds = json.loads(SPEC_PATH.read_text())["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
