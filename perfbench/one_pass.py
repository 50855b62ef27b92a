"""One pass of one workload, in the fresh interpreter it was started in.

Started by ``run.py`` (never imported); prints one JSON line with the
pass's timings, peak memory, operation counts, failures, result digest,
modeled metrics and, with ``--traced``, its per-layer numbers::

    PYTHONPATH=src python3 perfbench/one_pass.py --workload paper-figures \
        --seed 2021 --scratch .bench_build/perfbench [--traced] [--store DIR]

``setup_end`` is the ``perf_counter`` reading when set-up finished.  On
Linux that clock is system-wide, so the parent subtracts its own reading
taken just before it started this interpreter to get ``setup_s``.
``wall_norm_s`` is ``wall_s`` at reference host speed (``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback

import workloads
from speed import SpeedSampler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--store", default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.traced:  # untraced passes do not even import the tracer
        from tracer import LayerTracer
        tracer = LayerTracer().install()
    prepared = workloads.prepare(args.workload, args.seed, args.scratch,
                                 args.store)
    setup_end = time.perf_counter()

    # host speed just before and after the measured window; untraced
    # passes also sample it inside (traced ones do not: the handler's
    # time would land in whichever span was open)
    sampled = tracer is None
    speed = SpeedSampler()
    speed.sample()
    error = None
    start = time.perf_counter()
    if sampled:
        speed.arm()
    try:
        output = prepared.run()
    except Exception:  # a failing program is a counted result, not a crash
        error = traceback.format_exc()
    finally:
        if sampled:
            speed.disarm()
    wall_s = time.perf_counter() - start - speed.ticked_s
    speed.sample()
    wall_norm_s = wall_s * speed.speed()
    if error is None:
        try:
            outcome = prepared.summarize(output)
        except Exception:  # malformed results fail the pass the same way
            error = traceback.format_exc()
    if error is None:
        failed = min(len(outcome.failures), outcome.attempted)
    else:
        outcome = workloads.Outcome(attempted=prepared.attempted,
                                    failures=[error])
        failed = prepared.attempted
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({
        "setup_end": setup_end,
        "wall_s": wall_s,
        "wall_norm_s": wall_norm_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": outcome.attempted,
        "failed": failed,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "modeled": outcome.modeled,
        "layers": tracer.metrics(wall_s) if tracer is not None else None,
    }))


if __name__ == "__main__":
    main()
