"""The torusorbits benchmark.

    python3 perfbench/run.py --workload strata|bounded|forms --seed N \
        --seconds S --trace 0|1

Closed loop, one process, one thread: each batch is the workload's fixed
list of jobs run back to back in a fresh worker process (worker.py), and
every job's output is checked.  With --trace 0 a run makes as many batches
as fit in --seconds at the workload's usual batch time (BATCH_S), at least
MIN_BATCHES.  The count depends only on the workload and --seconds, so
every run takes its minimum over the same number of batches.  solve_s
sums, over the jobs of the batch, each job's fastest time over the run's
batches, and the headline metrics are formed the same way: on a shared
host other tenants only ever add time to a job, so its fastest run is the
steadiest estimate of the program's own cost, and the median over runs
deals with the rest.  peak_rss_mb is the median over the batches; set-up
runs in at least MIN_SETUPS fresh processes and setup_s is their median.
With --trace 1 one untraced batch and one traced batch run, and the
per-layer metrics come from the traced one; the traced run reports no
end-to-end number.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the run
environment and every metric by name and unit, including failed_frac and
the per-workload headline metrics; the full record is also written to
perfbench/.out/.  This file imports neither numpy nor torusorbits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = HERE / ".out"
WORKLOADS = ("strata", "bounded", "forms")
MIN_BATCHES = 2
# usual batch wall time, in seconds, on a 2-vCPU virtual machine
BATCH_S = {"strata": 16.0, "bounded": 14.0, "forms": 11.0}
MIN_SETUPS = 11
DEADLINE_S = 170            # every worker is stopped by then

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}

# headline metric -> unit, reported on the workload whose jobs carry the tag
HEADLINES = {
    "stratify_sl4_s": "s",
    "systole_steps_per_s": "1/s",
    "cm_points_per_s": "1/s",
    "density_ladder_s": "s",
}


class BenchError(Exception):
    pass


def git_sha():
    """HEAD of the checkout from .git, without running git; None outside
    a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One worker process; its last stdout line is its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the batch could start")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the {DEADLINE_S} s deadline")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def fastest_jobs(batches: list) -> list:
    """The batch's jobs, each with its least time over the batches."""
    best = {}
    for b in batches:
        for j in b["jobs"]:
            if j["name"] not in best or j["seconds"] < best[j["name"]]["seconds"]:
                best[j["name"]] = j
    return list(best.values())


def headline_metrics(jobs: list) -> dict:
    """Each headline metric the workload carries, from the fastest job
    times: the summed time of the tagged jobs, or the items over that time
    for a throughput (unit 1/s)."""
    out = {}
    for name, unit in HEADLINES.items():
        tagged = [j for j in jobs if j["tag"] == name]
        if not tagged:
            continue
        seconds = sum(j["seconds"] for j in tagged)
        out[name] = (sum(j["items"] for j in tagged) / seconds
                     if unit == "1/s" else seconds, unit)
    return out


def count_jobs(batches: list):
    jobs = [j for b in batches for j in b["jobs"]]
    return len(jobs), sum(1 for j in jobs if not j["ok"])


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    count = max(MIN_BATCHES, int(seconds // BATCH_S[workload]))
    extra = max(0, MIN_SETUPS - count)
    batches, setups = [], []
    # the extra set-ups go before, between and after the batches, so that
    # their median samples the whole run and not one moment of it
    for i in range(count + 1):
        for _ in range(extra * (i + 1) // (count + 1) - extra * i // (count + 1)):
            setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
        if i < count:
            batches.append(spawn(workload, seed, "run", deadline))
    setups += [b["setup_s"] for b in batches]
    fastest = fastest_jobs(batches)
    metrics = {
        "setup_s": (statistics.median(setups), END_TO_END["setup_s"]),
        "solve_s": (sum(j["seconds"] for j in fastest), END_TO_END["solve_s"]),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in batches),
                        END_TO_END["peak_rss_mb"]),
    }
    info = {"batches": len(batches), "setups": len(setups),
            "headline": headline_metrics(fastest)}
    return batches, metrics, info


def run_traced(workload: str, seed: int, deadline: float):
    plain = spawn(workload, seed, "run", deadline)
    traced = spawn(workload, seed, "trace", deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (traced["solve_s"] / plain["solve_s"],
                                       "ratio")
    info = {"spans": traced["spans"], "untraced_solve_s": plain["solve_s"],
            "traced_solve_s": traced["solve_s"]}
    return [plain, traced], metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="torusorbits benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "torusorbits" / "__init__.py").is_file():
        print(f"error: no torusorbits sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = environment()
    try:
        if args.trace:
            batches, metrics, info = run_traced(args.workload, args.seed,
                                                deadline)
        else:
            batches, metrics, info = run_untraced(args.workload, args.seed,
                                                  args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env.update(batches[0]["versions"])
    attempted, failed = count_jobs(batches)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items() if k != "headline"))
    shown = dict(metrics)
    shown["failed_frac"] = (failed / attempted, "ratio")
    shown.update(info.get("headline", {}))
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value!r:>24} {unit}")

    OUTDIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "info": info, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in shown.items()},
              "batches": batches}
    with open(OUTDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
