"""The repository's benchmark: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures [--seed 2021] \
        [--seconds 15] [--trace 0|1]

Each pass runs in a fresh interpreter (``one_pass.py``) with a fresh,
serial engine and no on-disk cache, because a user pays imports and
process-wide memos on every CLI run.  Passes repeat until ``--seconds``
have elapsed (and at least :data:`MIN_PASSES` ran); every reported
timing is the median over passes.  The measured window is reported as
``wall_norm_s``, rescaled to reference host speed (``speed.py``) so that
load from other tenants of a shared host does not read as a change in
the program.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A line before it gives the result digest, which is equal
for every run of one seed on code that does not change results.

Exit code 0 means a result was printed (``correct`` may still be
false); anything else means the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("paper-figures", "search-smoke", "scenario-sampling",
             "cached-rerun")

#: Fewest untraced passes behind a median, however long each pass takes.
MIN_PASSES = 2

#: A single pass that takes longer than this is a hung benchmark.
PASS_TIMEOUT_S = 100

#: End-to-end metrics and their units (directions: BENCHMARK.json).
#: Host metrics are medians over passes; modeled ones repeat exactly.
#: Raw ``wall_s`` swings with the load on a shared host, so it is printed
#: for reading; the metric is ``wall_norm_s``, at reference host speed.
HOST_METRICS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MODELED_METRICS = {
    "tilt_success_gmean": "fraction",
    "swaps": "count",
    "tape_moves": "count",
    "modeled_runtime": "sim_s",
    "tilt_qccd_ratio_max": "ratio",
    "tilt_qccd_ratio_gmean": "ratio",
}
PAPER_REFERENCE = {"tilt_qccd_ratio_max": 4.35,
                   "tilt_qccd_ratio_gmean": 1.95}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


def run_pass(workload: str, seed: int, scratch: str, *, traced: bool = False,
             store: str | None = None) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    command = [sys.executable, os.path.join(HERE, "one_pass.py"),
               "--workload", workload, "--seed", str(seed),
               "--scratch", scratch]
    if store is not None:
        command += ["--store", store]
    if traced:
        command.append("--traced")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("TILT_REPRO_")}
    env["PYTHONPATH"] = SOURCE
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, env=env,
                               capture_output=True, text=True,
                               timeout=PASS_TIMEOUT_S)
    if completed.returncode != 0 or not completed.stdout.strip():
        raise BenchmarkError(
            f"{workload} pass exited with {completed.returncode}:\n"
            f"{completed.stderr[-4000:]}"
        )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    report["setup_s"] = report.pop("setup_end") - started
    return report


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Untimed warm-up, untraced and traced passes, in that order."""
    warm: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        store = None
        if workload == "cached-rerun":
            # the warm store is written by this commit's code; its
            # results are the reference the cached ones must equal
            store = os.path.join(scratch, "store")
            warm.append(run_pass("paper-figures", seed, scratch,
                                 store=store))
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(plain) < (1 if trace else MIN_PASSES)):
            plain.append(run_pass(workload, seed, scratch, store=store))
            if trace:
                traced.append(run_pass(workload, seed, scratch,
                                       traced=True, store=store))
    return warm, plain, traced


def median(passes: list[dict], key: str) -> float:
    return statistics.median(report[key] for report in passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to benchmark: {SOURCE}/repro is missing",
              file=sys.stderr)
        return 2
    # byte-compile once, so no measured pass pays first-import compilation
    compileall.compile_dir(SOURCE, quiet=1)
    try:
        warm, plain, traced = measure(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    passes = warm + plain + traced
    digests = {report["digest"] for report in passes}
    attempted = sum(report["attempted"] for report in passes)
    failed = sum(report["failed"] for report in passes)
    for report in passes:
        for failure in report["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
    if len(digests) > 1:
        print(f"results differ between passes: {sorted(digests)}",
              file=sys.stderr)
    correct = failed == 0 and len(digests) == 1

    if args.trace:
        traced_wall = median(traced, "wall_s")
        metrics = {
            name: {"value": statistics.median(
                report["layers"][name] for report in traced),
                   "unit": layer_unit(name)}
            for name in traced[0]["layers"]
        }
        metrics["bench.trace_overhead_frac"] = {
            "value": traced_wall / median(plain, "wall_s") - 1.0,
            "unit": "fraction",
        }
    else:
        modeled = next((report["modeled"] for report in plain
                        if report["modeled"]), None)
        if modeled is None:
            print("every pass raised: no modeled metrics to report",
                  file=sys.stderr)
            return 1
        metrics = {name: {"value": median(plain, name), "unit": unit}
                   for name, unit in HOST_METRICS.items()}
        metrics.update({name: {"value": modeled[name], "unit": unit}
                        for name, unit in MODELED_METRICS.items()})

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} "
          f"untraced and {len(traced)} traced passes, "
          f"{attempted - failed}/{attempted} operations ok, "
          f"raw wall_s median {median(plain, 'wall_s'):.4g} s")
    for name, metric in metrics.items():
        line = f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}"
        if name in PAPER_REFERENCE:
            line += (f"   (paper: {PAPER_REFERENCE[name]}x; this model is "
                     "not validated against hardware)")
        print(line)
    print(f"digest {args.workload} seed={args.seed}: "
          + ",".join(sorted(digests)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_coverage", "_frac")):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
