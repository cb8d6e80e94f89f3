"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs two cheap jobs (the SL3 stratification and the Q(sqrt 2) unit
closure) through the worker's batch runner, first with the pinned values
as they are, then with each pinned value corrupted, and requires the
corrupted runs to be counted as failures.  It also requires BENCHMARK.json
to name exactly the metrics the benchmark prints.  Exit code 0 when all
holds.
"""

import copy
import json
import sys
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent


def failures(expected, names):
    import jobs
    inputs = jobs.setup("strata", 1, worker.WORKDIR / "selftest")
    batch = [j for j in jobs.build_jobs("strata", inputs, expected)
             if j.name in names]
    if [j.name for j in batch] != list(names):
        raise RuntimeError(f"self-test jobs {names} not in the strata batch")
    return [r["name"] for r in worker.run_batch(batch) if not r["ok"]]


def main() -> int:
    worker.import_program()
    import jobs
    from run import END_TO_END
    from spans import LAYER_UNITS
    ok = True

    def report(label, good):
        nonlocal ok
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}: {label}")

    names = ("sl3_generic", "units-sqrt2")
    report("pinned values pass", failures(jobs.EXPECTED, names) == [])
    for key, bad, job in (("strata.sl3_generic", (56, 36), "sl3_generic"),
                          ("units.sqrt2", "circle", "units-sqrt2")):
        corrupted = copy.deepcopy(jobs.EXPECTED)
        corrupted[key] = bad
        report(f"corrupted {key} = {bad!r} is a failure",
               failures(corrupted, names) == [job])

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report("BENCHMARK.json per_layer matches the traced metrics",
           per_layer == LAYER_UNITS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report("BENCHMARK.json end_to_end matches the untraced metrics",
           end_to_end == END_TO_END)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
