"""The search runner: strategies in, engine batches out.

:func:`run_search` is the only place a search touches the execution
engine.  Each strategy-requested evaluation round becomes *one* engine
batch (every candidate's jobs, shards included, submitted together), so

* identical points across rungs / strategies are content-hash cache hits,
* duplicate specs inside a round collapse to one execution, and
* ``workers > 1`` fans the whole round out over the process pool

with no strategy-side code.  Results are assembled in candidate order
from a batch the engine returns in submission order, and no wall-clock
timing lands on the points, so a search is bit-identical for any
``workers=`` split (pinned by ``tests/test_search.py``).

Long searches run durably: ``run_search(..., store=<dir>)`` backs the
engine with a :class:`~repro.exec.store.RunStore` and keeps a
:class:`~repro.exec.store.RunManifest` up to date after every evaluation
round (spec keys, completed keys, backend description, engine stats,
git/seed provenance).  If the process dies mid-search, rerunning with
``resume=<manifest or store dir>`` rebuilds the engine on the same store
and every already-completed job is a durable cache hit — the engine
stats of the resumed run prove exactly how much was skipped.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.exceptions import ReproError
from repro.exec import ExecutionEngine, JobResult, run_jobs
from repro.exec.engine import default_engine
from repro.exec.jobs import spec_key
from repro.exec.store import (
    RunManifest,
    RunStore,
    collect_provenance,
    read_manifest,
)
from repro.search.result import SearchPoint, SearchResult
from repro.search.space import Candidate, SearchSpace
from repro.search.strategies import SearchStrategy
from repro.sim.stochastic import merge_shot_results

#: EngineStats counters that accumulate (and therefore diff cleanly).
_COUNTER_KEYS = ("jobs_submitted", "jobs_executed", "cache_hits",
                 "deduplicated", "execution_time_s", "batch_time_s")


def _stats_delta(before: dict[str, float],
                 after: dict[str, float]) -> dict[str, float]:
    """What one search added to a (possibly shared) engine's counters."""
    delta = {key: after[key] - before[key] for key in _COUNTER_KEYS}
    submitted = delta["jobs_submitted"]
    delta["cache_misses"] = (
        submitted - delta["cache_hits"] - delta["deduplicated"]
    )
    delta["cache_hit_rate"] = (
        delta["cache_hits"] / submitted if submitted else 0.0
    )
    return delta


def _point_from_results(space: SearchSpace, candidate: Candidate,
                        shots: int, results: Sequence[JobResult],
                        ) -> SearchPoint:
    """Fold one candidate's finished jobs (1 or ``shards``) into a point."""
    first = results[0]
    simulation = first.simulation
    if simulation is None:
        raise ReproError(
            f"search evaluation {first.label or first.key} returned no "
            "simulation outcome"
        )
    if shots:
        merged = merge_shot_results(
            [result.shot for result in results if result.shot is not None]
        )
        scored = merged.to_simulation_result()
        success_rate = scored.success_rate
        log10_success = scored.log10_success_rate
    else:
        success_rate = simulation.success_rate
        log10_success = simulation.log10_success_rate
    return SearchPoint(
        candidate=tuple(candidate),
        assignments=space.labels(candidate),
        shots=shots,
        success_rate=success_rate,
        log10_success=log10_success,
        # time and transport are architectural estimates, identical for
        # the analytic and sampled evaluations of one candidate
        execution_time_s=simulation.execution_time_s,
        num_swaps=first.stats.num_swaps if first.stats else 0,
        num_moves=simulation.num_moves,
        num_jobs=len(results),
    )


def run_search(space: SearchSpace, strategy: SearchStrategy, *,
               engine: ExecutionEngine | None = None,
               workers: int | None = None,
               store: RunStore | str | None = None,
               resume: RunManifest | str | None = None) -> SearchResult:
    """Explore *space* with *strategy* through the execution engine.

    Parameters
    ----------
    space:
        The declarative design space (knobs, base configuration, shot
        budget).
    strategy:
        A :class:`~repro.search.strategies.SearchStrategy` — grid,
        random, successive halving, or anything implementing the
        protocol.
    engine, workers:
        Standard engine controls (see :func:`repro.exec.run_jobs`): an
        explicit engine shares its cache with other callers; ``workers``
        overrides the worker count for this search's batches only.
    store:
        A :class:`~repro.exec.store.RunStore` (or directory path) making
        the search durable: every finished job is appended immediately
        and a :class:`~repro.exec.store.RunManifest` is kept current in
        the store root after every evaluation round.  Mutually exclusive
        with ``engine``.
    resume:
        A :class:`~repro.exec.store.RunManifest` (or a store root /
        manifest path) of an earlier — possibly interrupted — run of
        this search.  The engine is rebuilt on that run's store, so
        completed jobs are served without re-execution; the resumed
        run's engine stats record exactly how many were skipped.

    Returns
    -------
    SearchResult
        Full-fidelity points in lattice order, rung history, the number
        of engine jobs this search submitted, the engine-stats delta it
        caused (cache-hit accounting for CI artifacts) and, for durable
        runs, the final :class:`RunManifest` on ``.manifest``.
    """
    if resume is not None:
        if isinstance(resume, RunManifest):
            # a bare manifest only knows its recorded absolute root; if
            # the store moved since, refuse rather than silently mkdir
            # an empty store at the stale path and re-run everything
            resume_root = resume.store_root
            if store is None and not os.path.isdir(resume_root):
                raise ReproError(
                    f"the manifest's recorded store root {resume_root!r} "
                    "does not exist — if the store was moved or "
                    "downloaded, resume with its current path "
                    "(resume=<store dir>) or pass store= explicitly"
                )
        else:
            # Resume the store the caller actually pointed at, not the
            # absolute root recorded inside the manifest: a store that
            # was moved or downloaded must not silently recreate an
            # empty directory at its old path and re-run everything.
            read_manifest(resume)  # validates a manifest is really there
            path = os.fspath(resume)
            resume_root = (path if os.path.isdir(path)
                           else os.path.dirname(os.path.abspath(path)))
        if store is None:
            store = resume_root
    run_store: RunStore | None = None
    if store is not None:
        if engine is not None:
            raise ReproError(
                "pass either engine= or store=/resume=, not both: a "
                "durable search owns its engine (built on the run store)"
            )
        run_store = store if isinstance(store, RunStore) else RunStore(store)
        # workers=None defers to TILT_REPRO_WORKERS (default serial), so
        # a durable search honours the env var exactly like the shared
        # default engine does; the per-batch workers= override still wins.
        chosen = ExecutionEngine(workers=None, store=run_store)
    else:
        chosen = engine if engine is not None else default_engine()
    before = chosen.stats.to_dict()
    submitted = 0
    rounds = 0
    submitted_keys: list[str] = []
    trace = chosen.trace
    provenance = (
        collect_provenance(
            seed=space.seed, shots=space.shots,
            trace=trace.path if trace.enabled else None,
        )
        if run_store is not None else None
    )

    def write_manifest(status: str) -> RunManifest | None:
        if run_store is None:
            return None
        manifest = RunManifest(
            store_root=run_store.root,
            spec_keys=list(submitted_keys),
            completed_keys=run_store.keys(),
            backend=chosen.describe_backend(workers),
            backend_config=chosen.describe_backend_config(workers),
            engine_stats=_stats_delta(before, chosen.stats.to_dict()),
            provenance=provenance or {},
            status=status,
            extra={"strategy": strategy.name,
                   "knobs": {name: list(labels) for name, labels
                             in space.knob_labels().items()}},
        )
        run_store.write_manifest(manifest)
        return manifest

    def evaluate(candidates: Sequence[Candidate],
                 shots: int) -> list[SearchPoint]:
        nonlocal submitted, rounds
        specs = []
        chunks: list[tuple[Candidate, int]] = []
        for candidate in candidates:
            candidate_specs = space.evaluation_specs(candidate, shots)
            chunks.append((candidate, len(candidate_specs)))
            specs.extend(candidate_specs)
        submitted += len(specs)
        # Each strategy-requested round is one span (and one engine
        # batch): rung structure becomes directly visible in the trace.
        with trace.span(
            "search.round", round=rounds, strategy=strategy.name,
            candidates=len(candidates), jobs=len(specs), shots=shots,
        ):
            rounds += 1
            if run_store is not None:
                # Record the round's plan *before* executing it, so a run
                # killed mid-round leaves a manifest whose pending_keys
                # name exactly the unfinished work.
                circuits: dict[int, bytes] = {}  # each circuit encoded once
                submitted_keys.extend(spec_key(spec, circuits)
                                      for spec in specs)
                write_manifest("running")
            results = run_jobs(specs, workers=workers, engine=chosen)
            points: list[SearchPoint] = []
            offset = 0
            for candidate, count in chunks:
                points.append(_point_from_results(
                    space, candidate, shots, results[offset:offset + count],
                ))
                offset += count
            if run_store is not None:
                write_manifest("running")
        return points

    with trace.span(
        "search.run", strategy=strategy.name, shots=space.shots,
        knobs=len(space.knob_labels()), durable=run_store is not None,
    ) as search_span:
        points, rungs = strategy.run(space, evaluate)
        search_span.add(rounds=rounds)
    points = sorted(points, key=lambda point: point.candidate)
    result = SearchResult(
        strategy=strategy.name,
        knobs=space.knob_labels(),
        points=points,
        rungs=rungs,
        num_jobs=submitted,
        engine_stats=_stats_delta(before, chosen.stats.to_dict()),
        manifest=write_manifest("complete"),
    )
    # One cross-run history record per search (TILT_REPRO_HISTORY /
    # ExecutionEngine(history=)): the engine fills in backend config,
    # latency quantiles and provenance; we supply the search's shape.
    chosen.append_history(
        "search.run",
        label=strategy.name,
        metrics=result.engine_stats,
        extra={"strategy": strategy.name, "rounds": rounds,
               "jobs_submitted": submitted, "points": len(points),
               "shots": space.shots, "durable": run_store is not None},
        workers=workers,
    )
    return result
