"""Tests for the durable RunStore / RunManifest and search resume."""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig
from repro.exceptions import ReproError
from repro.exec import (
    ExecutionEngine,
    JobSpec,
    RunManifest,
    RunStore,
    collect_provenance,
    read_manifest,
    spec_key,
)
from repro.exec import backends
from repro.exec.engine import reset_default_engine
from repro.exec.jobs import RESULT_SEMANTICS_VERSION, result_to_json
from repro.noise.parameters import NoiseParameters
from repro.search import GridStrategy, SearchSpace, config_knob, run_search
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    reset_default_engine()
    yield
    reset_default_engine()


def _spec(length: int = 7, label: str = "") -> JobSpec:
    return JobSpec(
        circuit=bv_workload(16),
        device=TiltDevice(num_qubits=16, head_size=8),
        config=CompilerConfig(max_swap_len=length, mapper="trivial"),
        noise=NoiseParameters.paper_defaults(),
        label=label,
    )


def _outcome(result):
    """A result minus its wall-clock fields: what must be reproducible."""
    stats = dataclasses.replace(result.stats, time_decompose_s=0,
                                time_swap_s=0, time_schedule_s=0)
    return result.key, stats, result.simulation


def _space(lengths) -> SearchSpace:
    return SearchSpace(
        circuit=qft_workload(16),
        device=TiltDevice(num_qubits=16, head_size=8),
        knobs=[config_knob("max_swap_len", list(lengths))],
    )


class TestRunStore:
    def test_round_trip_across_instances(self, tmp_path):
        root = tmp_path / "run"
        result = ExecutionEngine(workers=1).run_one(_spec(7))
        store = RunStore(root)
        store.store(result)
        fresh = RunStore(root)
        assert len(fresh) == 1
        assert fresh.get(result.key).simulation == result.simulation

    def test_concurrent_writers_merge(self, tmp_path):
        root = tmp_path / "run"
        engine = ExecutionEngine(workers=1)
        first = engine.run_one(_spec(7))
        second = engine.run_one(_spec(6))
        writer_a, writer_b = RunStore(root), RunStore(root)
        writer_a.store(first)
        writer_b.store(second)  # b never saw a's entry; separate segment
        assert writer_a.segment_path != writer_b.segment_path
        merged = RunStore(root)
        assert set(merged.keys()) == {first.key, second.key}
        # an existing store picks up the other writer's entries on reload
        assert first.key not in writer_b
        writer_b.reload()
        assert first.key in writer_b

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        root = tmp_path / "run"
        store = RunStore(root)
        result = ExecutionEngine(workers=1).run_one(_spec(7))
        store.store(result)
        with open(store.segment_path, "a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "record": {"key": "half')  # no \n
        fresh = RunStore(root)
        assert fresh.keys() == [result.key]

    def test_duplicate_store_is_not_reappended(self, tmp_path):
        root = tmp_path / "run"
        store = RunStore(root)
        result = ExecutionEngine(workers=1).run_one(_spec(7))
        store.store(result)
        store.store(result)
        with open(store.segment_path, "r", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_engine_resumes_from_store(self, tmp_path):
        root = tmp_path / "run"
        specs = [_spec(7), _spec(6), _spec(5)]
        cold = ExecutionEngine(workers=1, store=root)
        cold.run(specs)
        assert cold.stats.jobs_executed == 3
        warm = ExecutionEngine(workers=1, store=root)
        results = warm.run(specs)
        assert warm.stats.cache_hits == 3
        assert warm.stats.jobs_executed == 0
        assert all(result.cache_hit for result in results)

    def test_result_of_older_semantics_is_recomputed(self, tmp_path):
        """A segment line in the format every store written before
        RESULT_SEMANTICS_VERSION 4 holds is never served: its job runs
        again, whatever the stale record claims."""
        root = tmp_path / "run"
        spec = JobSpec(
            circuit=qft_workload(8),
            device=TiltDevice(num_qubits=8, head_size=4),
            shots=2000, seed=7,
        )
        fresh = ExecutionEngine(workers=1).run_one(spec)
        stale = result_to_json(fresh)
        stale["shot"]["successes"] = fresh.shot.successes + 4
        segments = root / "segments"
        segments.mkdir(parents=True)
        (segments / "old-writer.jsonl").write_text(
            json.dumps({"version": 1, "record": stale}) + "\n",
            encoding="utf-8",
        )
        engine = ExecutionEngine(workers=1, store=root)
        result = engine.run_one(spec)
        assert engine.stats.jobs_executed == 1
        assert not result.cache_hit
        assert result.shot.successes == fresh.shot.successes

    def test_interrupted_run_keeps_finished_jobs(self, tmp_path):
        """Serial execution streams: jobs finished before a crash are
        durable, and a fresh engine on the store skips exactly them."""
        root = tmp_path / "run"
        specs = [_spec(7), _spec(6), _spec(5)]

        def explode(done, total, result):
            if done == 2:
                raise KeyboardInterrupt("simulated crash mid-batch")

        dying = ExecutionEngine(workers=1, store=root, progress=explode)
        with pytest.raises(KeyboardInterrupt):
            dying.run(specs)
        survivor = RunStore(root)
        assert len(survivor) == 2  # the two jobs that finished

        resumed = ExecutionEngine(workers=1, store=root)
        resumed.run(specs)
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.jobs_executed == 1

    def test_pooled_run_streams_results_into_the_store(self, tmp_path):
        """The process backend yields chunk results as they complete, so
        a pooled run killed mid-batch keeps what already finished."""
        root = tmp_path / "run"
        specs = [_spec(length) for length in (7, 6, 5, 4)]

        def explode(done, total, result):
            if done == 1:
                raise KeyboardInterrupt("simulated kill after first result")

        dying = ExecutionEngine(workers=2, backend="process", store=root,
                                progress=explode)
        with pytest.raises(KeyboardInterrupt):
            dying.run(specs)
        assert len(RunStore(root)) >= 1  # streamed before the kill

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the patched job")
    def test_killed_pool_worker_falls_back_and_resumes(self, tmp_path,
                                                      monkeypatch):
        """A pool worker that dies on its first job breaks the pool: the
        batch finishes through the serial fallback, every result lands
        in the store, and a fresh engine serves all of them."""
        root = tmp_path / "run"
        specs = [_spec(length) for length in (7, 6, 5, 4)]
        serial = [_outcome(r) for r in ExecutionEngine(workers=1).run(specs)]
        parent = os.getpid()
        execute = backends.execute_spec

        def dies_in_a_worker(spec, key=None):
            if os.getpid() != parent:
                os._exit(1)
            return execute(spec, key)

        monkeypatch.setattr(backends, "execute_spec", dies_in_a_worker)
        pooled = ExecutionEngine(workers=2, backend="process",
                                 store=root).run(specs)
        monkeypatch.undo()
        assert [_outcome(r) for r in pooled] == serial

        warm = ExecutionEngine(workers=1, store=root)
        resumed = warm.run(specs)
        assert warm.stats.cache_hits == 4
        assert warm.stats.jobs_executed == 0
        assert [_outcome(r) for r in resumed] == serial


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        root = tmp_path / "run"
        store = RunStore(root)
        manifest = RunManifest(
            store_root=store.root,
            spec_keys=["a", "b", "c"],
            completed_keys=["a"],
            backend="serial",
            engine_stats={"jobs_executed": 1.0},
            provenance=collect_provenance(seed=3, shots=128),
            status="running",
            extra={"strategy": "grid"},
        )
        store.write_manifest(manifest)
        loaded = read_manifest(root)  # by store root
        assert loaded == manifest
        assert loaded.pending_keys == ["b", "c"]
        by_path = read_manifest(store.manifest_path())  # by file path
        assert by_path == manifest

    def test_provenance_fields(self):
        provenance = collect_provenance(seed=9, shots=64)
        assert provenance["seed"] == 9
        assert provenance["shots"] == 64
        assert "python" in provenance and "platform" in provenance
        assert "git_commit" in provenance  # may be None outside a repo
        assert (provenance["result_semantics_version"]
                == RESULT_SEMANTICS_VERSION)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ReproError):
            read_manifest(tmp_path)

    def test_failed_manifest_write_leaves_no_temp_file(self, tmp_path):
        store = RunStore(tmp_path / "run")
        bad = RunManifest(store_root=store.root,
                          extra={"unserialisable": object()})
        with pytest.raises(TypeError):
            store.write_manifest(bad)
        assert not os.path.exists(store.manifest_path())
        assert not os.path.exists(store.manifest_path() + ".tmp")


class TestSearchResume:
    def test_durable_search_writes_manifest(self, tmp_path):
        root = tmp_path / "run"
        space = _space([7, 6])
        result = run_search(space, GridStrategy(), store=str(root))
        manifest = result.manifest
        assert manifest is not None
        assert manifest.status == "complete"
        assert len(manifest.spec_keys) == 2
        assert sorted(manifest.completed_keys) == sorted(manifest.spec_keys)
        assert manifest.pending_keys == []
        assert manifest.backend == "serial"
        assert read_manifest(root).status == "complete"

    def test_resume_skips_exactly_the_completed_jobs(self, tmp_path):
        root = tmp_path / "run"
        # first run covers half the lattice (an "interrupted" full run)
        partial = run_search(_space([7, 6]), GridStrategy(), store=str(root))
        assert partial.engine_stats["jobs_executed"] == 2

        full_space = _space([7, 6, 5, 4])
        resumed = run_search(full_space, GridStrategy(), resume=str(root))
        # engine stats prove the skip: only the two new points executed
        assert resumed.engine_stats["cache_hits"] == 2
        assert resumed.engine_stats["jobs_executed"] == 2
        assert len(resumed.points) == 4
        assert resumed.manifest.status == "complete"

        # resuming the already-complete run re-executes nothing at all
        again = run_search(full_space, GridStrategy(),
                           resume=resumed.manifest)
        assert again.engine_stats["jobs_executed"] == 0
        assert again.engine_stats["cache_hits"] == 4
        assert again.points == resumed.points

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        space = _space([7, 6, 5])
        straight = run_search(space, GridStrategy(),
                              engine=ExecutionEngine(workers=1))
        resumed = run_search(space, GridStrategy(),
                             store=str(tmp_path / "cold"))
        assert resumed.points == straight.points

    def test_resume_follows_the_given_path_not_the_recorded_root(
            self, tmp_path):
        """A moved/downloaded store resumes from where it *is* now; the
        stale absolute root recorded in its manifest must not win."""
        import shutil

        original = tmp_path / "original"
        space = _space([7, 6])
        run_search(space, GridStrategy(), store=str(original))
        moved = tmp_path / "moved"
        shutil.move(str(original), str(moved))

        resumed = run_search(space, GridStrategy(), resume=str(moved))
        assert resumed.engine_stats["jobs_executed"] == 0
        assert resumed.engine_stats["cache_hits"] == 2
        assert not original.exists()  # stale path was not recreated
        assert resumed.manifest.store_root == str(moved)

    def test_store_and_engine_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ReproError):
            run_search(_space([7]), GridStrategy(),
                       engine=ExecutionEngine(workers=1),
                       store=str(tmp_path / "run"))

    def test_interrupted_search_leaves_resumable_manifest(self, tmp_path):
        """A search killed mid-round leaves status='running' and a store
        holding its finished jobs; resume completes only the rest."""
        root = tmp_path / "run"
        space = _space([7, 6, 5, 4])

        class Dying(GridStrategy):
            def run(self, sp, evaluate):
                candidates = list(sp.candidates())
                evaluate(candidates[:2], sp.shots)  # round 1 lands
                raise KeyboardInterrupt("simulated crash between rounds")

        with pytest.raises(KeyboardInterrupt):
            run_search(space, Dying(), store=str(root))
        manifest = read_manifest(root)
        assert manifest.status == "running"
        assert len(manifest.completed_keys) == 2

        resumed = run_search(space, GridStrategy(), resume=manifest)
        assert resumed.engine_stats["cache_hits"] == 2
        assert resumed.engine_stats["jobs_executed"] == 2
        assert resumed.manifest.status == "complete"
