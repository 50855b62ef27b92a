#!/usr/bin/env python
"""CI benchmark-regression gate.

Compares the medians in a pytest-benchmark JSON file (``bench-small.json``,
produced by the CI harness) against the committed
``benchmarks/baseline.json`` and **fails** (exit code 1) when a tracked
hot path slowed down by more than the threshold (default: >25%).  Given
several harness files, it gates on each benchmark's median across them.
The tracked hot paths are the ones the ROADMAP's perf work landed on:

* ``schedule``          — the TapeScheduler's counted scan, which scores
  every head position from window extents and runs one greedy closure
  per segment (``bench_table3_compilation.py::test_tape_scheduling_time``
  at small scale and ``…_paper_width`` on QFT-64, each the median of
  several rounds with a fresh scheduler each);
* ``lower``             — the native lowering, one streaming pass that
  expands each gate and fuses rotations as it goes
  (``bench_compiler_passes.py::test_native_decomposition``, timing
  ``lower_to_native``);
* ``route``             — swap insertion by both routers, whose lookahead
  window and trial circuits are built only when used
  (``bench_table3_compilation.py::test_swap_insertion_time``, the
  median of several rounds), and the QCCD compiler's trap assignment
  and shuttle insertion on a circuit lowered outside the timer
  (``bench_compiler_passes.py::test_qccd_compile``);
* ``analytic``          — analytic simulation, one replay per run that
  looks each distinct gate's costs up once
  (``bench_compiler_passes.py::test_tilt_simulation``,
  ``::test_ideal_simulation``, lowered outside the timer,
  ``::test_qccd_compile_and_simulate``, which times
  ``QccdSimulator.run`` only, and the raw Eq. 4 evaluation
  ``::test_noise_model_evaluation``);
* ``compile_sharing``   — a cold analytic grid search, whose engine
  batches compile one program per MaxSwapLen and reuse it across
  scenarios (``bench_search.py::test_grid_search_analytic``);
* ``engine_cache``      — engine cold/warm cache behaviour
  (``bench_engine.py::test_sweep_cache_hit_rate``, whose benchmarked
  phase is the warm, all-cache-hits sweep);
* ``stochastic_shots``  — Monte-Carlo sampling throughput
  (``bench_stochastic.py::test_serial_shots_per_second``, sampling-only
  through the vectorized shot kernels, and two scenario variants in
  ``bench_scenarios.py``: worst-case sampling, whose heating bursts move
  shots between the skip scan's per-window hazard rows, and leakage
  sampling, the skip scan plus the per-shot leak rule; each the median
  of several rounds);
* ``sampler_sharing``   — building samplers and sharing them: a cold
  4-shard serial run of a few-shot crosstalk job, whose shards share one
  compile and one built sampler
  (``bench_stochastic.py::test_sharded_sampling_shares_one_sampler``,
  the median of several rounds with a fresh engine each), and the
  baseline and crosstalk builds of all three simulators, each one
  timeline expanded into error sites by the one shared builder
  (``bench_stochastic.py::test_sampler_build``), and the analytic
  ``run(scenario=)`` of all three under crosstalk, leakage and heating
  bursts, which shares that expansion
  (``bench_scenarios.py::test_scenario_analytics``);
* ``statevector_batch`` — the batched pattern re-simulation kernel
  (``bench_stochastic.py::test_batched_statevector_patterns``);
* ``obs_overhead``      — the engine batch with tracing off, on, and
  with per-job profiling on (``bench_obs.py``): instrumentation must
  stay near-free when off and cheap at every opt-in level;
* ``lint``              — the blocking CI lint step, all nine rules over
  the repo (``bench_lint.py::test_lint_whole_repo``).

CI machines are not the machine the baseline was recorded on, so raw
medians are not comparable run to run.  The gate therefore normalises:
the per-benchmark ratio ``current / baseline`` is divided by the *median
ratio across every benchmark shared by both files* — an estimate of how
much slower/faster this machine is overall.  A uniformly slow runner
moves every ratio together and passes; a regression in one hot path
sticks out against the fleet and fails.  ``--no-normalize`` compares raw
medians for same-machine A/B runs.

Intentional re-baselining (an accepted trade-off, a new benchmark set):

    for run in 1 2 3; do
        PYTHONPATH=src python -m pytest -q benchmarks/bench_*.py \
            --benchmark-json=bench-$run.json
    done
    python benchmarks/check_regression.py bench-1.json bench-2.json \
        bench-3.json --update-baseline

records each benchmark's median across the runs (one file records its
own medians); then commit the regenerated ``benchmarks/baseline.json``
and say why in the PR.  A tracked benchmark that disappears from the
current run (e.g. renamed) also fails the gate, so tracking cannot rot
silently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys

#: (group, fullname regex) — the gated hot paths.
TRACKED_PATTERNS: tuple[tuple[str, str], ...] = (
    ("schedule",
     r"bench_table3_compilation\.py::test_tape_scheduling_time"),
    ("lower",
     r"bench_compiler_passes\.py::test_native_decomposition"),
    ("route",
     r"bench_table3_compilation\.py::test_swap_insertion_time"),
    ("route",
     r"bench_compiler_passes\.py::test_qccd_compile$"),
    ("analytic",
     r"bench_compiler_passes\.py::test_tilt_simulation"),
    ("analytic",
     r"bench_compiler_passes\.py::test_ideal_simulation"),
    ("analytic",
     r"bench_compiler_passes\.py::test_qccd_compile_and_simulate"),
    ("analytic",
     r"bench_compiler_passes\.py::test_noise_model_evaluation"),
    ("compile_sharing",
     r"bench_search\.py::test_grid_search_analytic"),
    ("engine_cache",
     r"bench_engine\.py::test_sweep_cache_hit_rate"),
    ("stochastic_shots",
     r"bench_stochastic\.py::test_serial_shots_per_second"),
    ("stochastic_shots",
     r"bench_scenarios\.py::test_correlated_sampling_shots_per_second"),
    ("stochastic_shots",
     r"bench_scenarios\.py::test_leakage_sampling_shots_per_second"),
    ("sampler_sharing",
     r"bench_stochastic\.py::test_sharded_sampling_shares_one_sampler"),
    ("sampler_sharing",
     r"bench_stochastic\.py::test_sampler_build"),
    ("sampler_sharing",
     r"bench_scenarios\.py::test_scenario_analytics"),
    ("statevector_batch",
     r"bench_stochastic\.py::test_batched_statevector_patterns"),
    ("lint",
     r"bench_lint\.py::test_lint_whole_repo$"),
    ("obs_overhead",
     r"bench_obs\.py::test_untraced_engine_batch"),
    ("obs_overhead",
     r"bench_obs\.py::test_traced_engine_batch"),
    ("obs_overhead",
     r"bench_obs\.py::test_profiled_engine_batch"),
)

#: Fail when a tracked (normalised) slowdown exceeds this factor.
DEFAULT_THRESHOLD = 1.25

#: Layout marker of baseline.json.
BASELINE_VERSION = 1

_HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(_HERE, "baseline.json")


def load_medians(path: str) -> dict[str, float]:
    """``fullname -> median seconds`` from a pytest-benchmark JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    medians: dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        median = bench.get("stats", {}).get("median")
        name = bench.get("fullname") or bench.get("name")
        if name and median:
            medians[name] = float(median)
    return medians


def load_runs(paths: list[str]) -> dict[str, float]:
    """Each benchmark's median across the harness files in *paths*, over
    the files that hold it; one file gives its own medians."""
    runs: dict[str, list[float]] = {}
    for path in paths:
        for name, median in load_medians(path).items():
            runs.setdefault(name, []).append(median)
    return {name: statistics.median(medians)
            for name, medians in runs.items()}


def _baseline_payload(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != BASELINE_VERSION:
        raise SystemExit(
            f"{path}: unsupported baseline version "
            f"{payload.get('version')!r} (expected {BASELINE_VERSION}); "
            "re-baseline with --update-baseline"
        )
    return payload


def load_baseline(path: str) -> dict[str, float]:
    return {name: float(median)
            for name, median in _baseline_payload(path).get(
                "medians", {}).items()}


def baseline_threshold(path: str) -> float:
    """The failure factor recorded in the baseline (editable in-place)."""
    return float(_baseline_payload(path).get("threshold",
                                             DEFAULT_THRESHOLD))


def tracked_group(fullname: str) -> str | None:
    """The hot-path group a benchmark belongs to, or ``None``."""
    for group, pattern in TRACKED_PATTERNS:
        if re.search(pattern, fullname):
            return group
    return None


def write_baseline(medians: dict[str, float], path: str, source: str,
                   threshold: float = DEFAULT_THRESHOLD) -> None:
    """Record *medians* as the new committed baseline.

    Every benchmark's median is stored (not just the tracked ones) so
    the machine-speed normaliser has a wide sample and newly tracked
    paths gate without a re-baseline.  The recording interpreter's
    version is stored too: the CI gate is pinned to the baseline's
    Python (interpreter speedups are not uniform across code paths), so
    a re-baseline under a different version must be visible.
    """
    payload = {
        "version": BASELINE_VERSION,
        "source": os.path.basename(source),
        "python": platform.python_version(),
        "threshold": threshold,
        "tracked_groups": sorted({g for g, _ in TRACKED_PATTERNS}),
        "medians": {name: medians[name] for name in sorted(medians)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check(current: dict[str, float], baseline: dict[str, float], *,
          threshold: float = DEFAULT_THRESHOLD,
          normalize: bool = True) -> tuple[bool, list[str]]:
    """Gate *current* against *baseline*; returns (ok, report lines)."""
    lines: list[str] = []
    shared = sorted(set(current) & set(baseline))
    if not shared:
        return False, ["no benchmarks shared with the baseline — "
                       "re-baseline with --update-baseline"]
    ratios = {name: current[name] / baseline[name] for name in shared
              if baseline[name] > 0}
    scale = statistics.median(ratios.values()) if normalize else 1.0
    lines.append(
        f"{len(shared)} shared benchmarks; machine-speed normaliser "
        f"{scale:.3f} ({'median current/baseline ratio' if normalize else 'disabled'})"
    )
    ok = True
    seen_groups: set[str] = set()
    for name in shared:
        group = tracked_group(name)
        if group is None or name not in ratios:
            continue
        seen_groups.add(group)
        normalised = ratios[name] / scale
        verdict = "ok"
        if normalised > threshold:
            verdict = "REGRESSION"
            ok = False
        lines.append(
            f"  [{group:>16}] {verdict:>10}  x{normalised:.2f} "
            f"(raw x{ratios[name]:.2f}, median {current[name]:.6f}s vs "
            f"baseline {baseline[name]:.6f}s)  {name}"
        )
    # A tracked baseline entry missing from the current run means the
    # benchmark was renamed or dropped: the gate would rot silently.
    for name in sorted(set(baseline) - set(current)):
        if tracked_group(name) is not None:
            ok = False
            lines.append(
                f"  [{tracked_group(name):>16}]    MISSING  tracked "
                f"baseline benchmark not in current run: {name} — "
                "re-baseline if the rename was intentional"
            )
    expected_groups = {g for g, _ in TRACKED_PATTERNS}
    for group in sorted(expected_groups - seen_groups):
        ok = False
        lines.append(
            f"  [{group:>16}]      EMPTY  no current benchmark matched "
            "this tracked hot path"
        )
    lines.append(
        f"gate {'PASSED' if ok else 'FAILED'} "
        f"(threshold: >{(threshold - 1) * 100:.0f}% normalised slowdown)"
    )
    return ok, lines


def _tracked_ratios(current: dict[str, float], baseline: dict[str, float],
                    *, normalize: bool = True) -> dict[str, float]:
    """Machine-normalised ``tracked fullname -> ratio`` (mirrors check)."""
    shared = sorted(set(current) & set(baseline))
    ratios = {name: current[name] / baseline[name] for name in shared
              if baseline[name] > 0}
    if not ratios:
        return {}
    scale = statistics.median(ratios.values()) if normalize else 1.0
    return {name: ratios[name] / scale for name in ratios
            if tracked_group(name) is not None}


def append_history(ledger_path: str, *, bench_json: str,
                   current: dict[str, float], baseline: dict[str, float],
                   ok: bool, threshold: float, normalize: bool) -> str:
    """Append this gate run as one ``bench.gate`` run-ledger record.

    CI calls this script without ``PYTHONPATH=src``, so the repo's
    ``src`` tree is bootstrapped onto ``sys.path`` here before the
    :mod:`repro.obs.history` import.  Machine-normalised ratios (not
    raw medians) are recorded: they are the one number comparable
    across the heterogeneous CI fleet, so the ledger's trend tables
    and ``--check`` gate stay meaningful run over run.
    """
    src = os.path.join(os.path.dirname(_HERE), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.obs.history import RunLedger, new_record

    normalised = _tracked_ratios(current, baseline, normalize=normalize)
    groups: dict[str, list[float]] = {}
    for name, ratio in normalised.items():
        groups.setdefault(tracked_group(name), []).append(ratio)
    record = new_record(
        "bench.gate",
        label=os.path.basename(bench_json),
        metrics={f"normalised.{group}": max(ratios)
                 for group, ratios in sorted(groups.items())},
        extra={"ok": 1 if ok else 0, "threshold": threshold,
               "normalize": 1 if normalize else 0,
               "shared": len(set(current) & set(baseline)),
               "python": platform.python_version()},
    )
    ledger = RunLedger(ledger_path)
    record_id = ledger.append(record)
    # one writer per gate run: fold the sidecar segment straight into
    # the main file so the CI artifact is a single JSONL
    ledger.compact()
    return record_id


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("bench_json", nargs="+",
                        help="pytest-benchmark JSON of the current run; "
                             "several runs gate on each benchmark's "
                             "median across them")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed baseline (default: %(default)s)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="failure factor (default: the baseline's "
                             f"recorded threshold, or {DEFAULT_THRESHOLD} "
                             "= +25%% when it records none)")
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare raw medians (same-machine A/B only)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the runs' "
                             "medians and exit")
    parser.add_argument("--append-history", metavar="LEDGER",
                        help="append this gate run (normalised tracked "
                             "ratios + verdict) to a repro.obs.history "
                             "run ledger")
    args = parser.parse_args(argv)

    current = load_runs(args.bench_json)
    source = ", ".join(os.path.basename(path) for path in args.bench_json)
    if args.update_baseline:
        # a hand-tuned threshold in the existing baseline survives a
        # routine re-baseline; --threshold overrides it explicitly
        threshold = args.threshold
        if threshold is None and os.path.exists(args.baseline):
            threshold = baseline_threshold(args.baseline)
        write_baseline(current, args.baseline, source=source,
                       threshold=(threshold if threshold is not None
                                  else DEFAULT_THRESHOLD))
        print(f"baseline rewritten: {args.baseline} "
              f"({len(current)} benchmark medians, "
              f"python {platform.python_version()})")
        return 0
    baseline = load_baseline(args.baseline)
    baseline_python = _baseline_payload(args.baseline).get("python")
    threshold = (args.threshold if args.threshold is not None
                 else baseline_threshold(args.baseline))
    ok, lines = check(current, baseline, threshold=threshold,
                      normalize=not args.no_normalize)
    # compare feature versions only — patch releases don't move perf,
    # and CI pins by major.minor
    def _feature(version: str) -> str:
        return ".".join(version.split(".")[:2])

    if (baseline_python
            and _feature(baseline_python)
            != _feature(platform.python_version())):
        lines.insert(0, (
            f"WARNING: baseline was recorded under python "
            f"{baseline_python}, this run is "
            f"{platform.python_version()} — interpreter speedups are "
            "not uniform, so ratios may reflect the interpreter, not "
            "the code; re-baseline on the gating version"
        ))
    print("\n".join(lines))
    if args.append_history:
        record_id = append_history(
            args.append_history, bench_json=source,
            current=current, baseline=baseline, ok=ok,
            threshold=threshold, normalize=not args.no_normalize,
        )
        print(f"gate run appended to {args.append_history} "
              f"(record {record_id})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
