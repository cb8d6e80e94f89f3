"""One benchmark process: set up a workload, run its batch, print one JSON line.

    python3 perfbench/worker.py --workload W --seed S --mode setup|run|trace

run.py starts a fresh worker for every batch, so module caches, the mpmath
precision and the garbage collector start the way a CLI user's do.  The
BLAS and OpenMP pools are pinned to one thread before numpy is imported.
setup stops after the set-up; trace installs the spans of spans.py before
the set-up and writes them to the work directory when the batch ends.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"


def import_program():
    """Import torusorbits from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import torusorbits
    if Path(torusorbits.__file__).resolve().parent != src / "torusorbits":
        raise ImportError(f"torusorbits imported from {torusorbits.__file__}, "
                          f"not from {src}")
    return torusorbits


def versions() -> dict:
    import mpmath
    import numpy
    return {"numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND}


def run_batch(jobs_list) -> list:
    """Run the jobs back to back; each is timed, then checked."""
    results = []
    for job in jobs_list:
        t0 = time.perf_counter()
        try:
            out = job.run()
            seconds = time.perf_counter() - t0
            problems = job.check(out)
        except Exception as exc:  # a failing job is counted, not fatal
            seconds = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        for p in problems:
            print(f"check failed: {job.name}: {p}", file=sys.stderr)
        results.append({"name": job.name, "tag": job.tag, "items": job.items,
                        "seconds": seconds, "ok": not problems})
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import_program()
    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import jobs
    workdir = WORKDIR / args.workload
    inputs = jobs.setup(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "versions": versions()}
    if args.mode != "setup":
        batch = jobs.build_jobs(args.workload, inputs)
        t1 = time.perf_counter()
        out["jobs"] = run_batch(batch)
        out["solve_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        from spans import layer_metrics
        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.name)
        tracer.save(workdir / f"spans-seed{args.seed}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
