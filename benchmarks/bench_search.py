"""Design-space search benchmarks (``repro.search``).

Tracks the cost of the search subsystem itself: a cold analytic grid
over the MaxSwapLen x scenario study space, and the successive-halving
early-stopping run on the sampled space — including the headline
acceptance behaviour that halving issues measurably fewer engine jobs
than the exhaustive grid while agreeing on the best configuration.
"""

from __future__ import annotations

from repro.analysis.search_study import study_space
from repro.exec import ExecutionEngine
from repro.search import GridStrategy, SuccessiveHalvingStrategy, run_search

#: Full-fidelity budget of the sampled strategy comparison.
BENCH_SHOTS = 2_000

#: Timed rounds of the gated grid benchmark.
GRID_ROUNDS = 5


def test_grid_search_analytic(benchmark, scale):
    """Cold exhaustive grid over the analytic study space.

    Its candidates differ in MaxSwapLen and scenario, so each batch
    compiles one program per MaxSwapLen and reuses it across scenarios.
    The CI gate tracks it as the ``compile_sharing`` group: a change
    that stops the sharing slows it down.
    """
    space = study_space(scale, shots=0)

    def cold_grid():
        return run_search(space, GridStrategy(),
                          engine=ExecutionEngine(workers=1))

    result = benchmark.pedantic(cold_grid, iterations=1, rounds=GRID_ROUNDS)
    assert len(result.points) == len(space.valid_candidates())
    benchmark.extra_info["engine_jobs"] = result.num_jobs
    benchmark.extra_info["pareto_size"] = len(result.pareto_front())
    benchmark.extra_info["best"] = dict(result.best().assignments)


def test_successive_halving_prunes_jobs(benchmark, scale):
    """Halving vs grid on the sampled space: fewer jobs, same winner.

    Uses BV, whose success rate stays measurable with a few thousand
    shots even at paper scale (deep QFT-64 would sample zero successes
    and tie every candidate at ``-inf``).
    """
    space = study_space(scale, workload="BV", shots=BENCH_SHOTS)
    grid = run_search(space, GridStrategy(),
                      engine=ExecutionEngine(workers=1))

    def cold_halving():
        return run_search(space, SuccessiveHalvingStrategy(),
                          engine=ExecutionEngine(workers=1))

    halving = benchmark.pedantic(cold_halving, iterations=1, rounds=1)
    assert halving.num_jobs < grid.num_jobs
    assert halving.best().assignments == grid.best().assignments
    benchmark.extra_info["grid_jobs"] = grid.num_jobs
    benchmark.extra_info["halving_jobs"] = halving.num_jobs
    benchmark.extra_info["job_savings"] = (
        1.0 - halving.num_jobs / grid.num_jobs
    )
    benchmark.extra_info["best"] = dict(halving.best().assignments)
