"""Backend invariance: serial (``workers=1``) and process-pool
(``workers=2``) execution produce byte-identical spec keys, results and
merged ShotResults."""

import dataclasses

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig
from repro.exceptions import ReproError
from repro.exec import (
    ExecutionEngine,
    JobSpec,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
    run_sampled_job,
    spec_key,
)
from repro.exec.engine import reset_default_engine
from repro.noise.parameters import NoiseParameters
from repro.obs.report import load_trace
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload

#: One worker runs serial, two run the process pool.
WORKER_COUNTS = (1, 2)


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    reset_default_engine()
    yield
    reset_default_engine()


def _mixed_batch() -> list[JobSpec]:
    """Analytic TILT points + QCCD + ideal + sampled jobs, in one batch.

    Mixing cheap analytic jobs with sampled (``shots > 0``) ones is the
    straggler scenario the process backend's chunked dispatch targets;
    the invariance assertions hold regardless of how dispatch reorders
    the work.
    """
    tilt = TiltDevice(num_qubits=16, head_size=8)
    noise = NoiseParameters.paper_defaults()
    specs = [
        JobSpec(
            circuit=bv_workload(16), device=tilt,
            config=CompilerConfig(max_swap_len=length, mapper="trivial"),
            noise=noise, label=f"tilt-{length}",
        )
        for length in (7, 6, 5)
    ]
    specs.append(JobSpec(
        circuit=qft_workload(12),
        device=QccdDevice(num_qubits=12, trap_capacity=5),
        backend="qccd", noise=noise, label="qccd",
    ))
    specs.append(JobSpec(
        circuit=bv_workload(8), device=IdealTrappedIonDevice(num_qubits=8),
        backend="ideal", noise=noise, label="ideal",
    ))
    specs.extend(
        JobSpec(
            circuit=qft_workload(6),
            device=IdealTrappedIonDevice(num_qubits=6),
            backend="ideal", noise=noise,
            shots=96, seed=7, shot_offset=offset,
            label=f"sampled-{offset}",
        )
        for offset in (0, 96)
    )
    return specs


def _structural(result):
    """Everything about a result except per-run wall-clock timings."""
    stats = result.stats
    if stats is not None:
        stats = dataclasses.replace(
            stats, time_decompose_s=0, time_swap_s=0, time_schedule_s=0,
        )
    return (result.key, result.label, stats, result.simulation, result.shot)


class TestBackendInvariance:
    def test_mixed_batch_bit_identical_across_backends(self):
        specs = _mixed_batch()
        keys = [spec_key(spec) for spec in specs]
        reference = None
        for workers in WORKER_COUNTS:
            engine = ExecutionEngine(workers=workers)
            results = engine.run(specs)
            assert [result.key for result in results] == keys
            structural = [_structural(result) for result in results]
            if reference is None:
                reference = structural
            else:
                assert structural == reference, f"workers={workers} diverged"

    def test_shared_compiles_bit_identical_in_pool_chunks(self):
        # analytic jobs that differ only in noise share one lowering and
        # one compile; chunks of 3 put each compile key in one worker
        tilt = TiltDevice(num_qubits=16, head_size=8)
        qccd = QccdDevice(num_qubits=16, trap_capacity=5)
        circuit = qft_workload(16)
        noises = [NoiseParameters.paper_defaults().with_overrides(
            shuttle_speed_um_per_us=speed) for speed in (1.0, 2.0, 4.0)]
        specs = [JobSpec(circuit=circuit, device=device, backend=backend,
                         noise=noise, label=f"{backend}-{index}")
                 for backend, device in (("tilt", tilt), ("qccd", qccd))
                 for index, noise in enumerate(noises)]
        fresh = [_structural(ExecutionEngine(workers=1).run_one(spec))
                 for spec in specs]
        for backend in (SerialBackend(),
                        ProcessPoolBackend(workers=2, chunk_size=3)):
            results = ExecutionEngine(workers=2, backend=backend).run(specs)
            assert [_structural(r) for r in results] == fresh, backend
            # one compile served all three TILT jobs, timings included
            assert results[0].stats == results[1].stats == results[2].stats

    def test_sampled_job_merge_invariant_across_backends(self):
        # serial shards share one memo's sampler, pooled shards are
        # singleton tasks that each build their own; worst_case takes
        # the correlated path
        ideal = JobSpec(
            circuit=qft_workload(6),
            device=IdealTrappedIonDevice(num_qubits=6),
            backend="ideal", noise=NoiseParameters.paper_defaults(),
            shots=256, seed=11,
        )
        tilt = dataclasses.replace(
            ideal, device=TiltDevice(num_qubits=6, head_size=3),
            backend="tilt")
        for spec in (dataclasses.replace(base, scenario=scenario)
                     for base in (ideal, tilt)
                     for scenario in ("baseline", "worst_case")):
            merged = {
                workers: run_sampled_job(
                    spec, shards=4, engine=ExecutionEngine(workers=workers),
                )
                for workers in WORKER_COUNTS
            }
            assert merged[2].shot == merged[1].shot
            assert merged[2].key == merged[1].key == spec_key(spec)

    def test_per_batch_backend_override(self, tmp_path):
        path = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=2, trace=path)  # defaults to the pool
        specs = _mixed_batch()[:3]
        serial = engine.run(specs, workers=1)
        pooled = engine.run(specs)
        # the override ran the first batch serially without reconfiguring
        # the engine; the second run is all cache hits
        submits = load_trace(str(path)).named("backend.submit")
        assert [span.attrs["backend"] for span in submits] == ["serial"]
        assert engine.workers == 2
        assert engine.stats.cache_hits == len(specs)
        assert [r.simulation for r in pooled] == [
            r.simulation for r in serial
        ]


class TestBackendSelection:
    def test_default_follows_worker_count(self):
        assert isinstance(resolve_backend(None, 1), SerialBackend)
        assert isinstance(resolve_backend(None, 4), ProcessPoolBackend)

    def test_instance_passes_through(self):
        backend = ProcessPoolBackend(workers=3)
        assert resolve_backend(backend, 1) is backend

    def test_describe_backend(self):
        assert ExecutionEngine(workers=1).describe_backend() == "serial"
        assert "process" in ExecutionEngine(workers=4).describe_backend()
        # an injected instance is described as constructed
        backend = ProcessPoolBackend(workers=3, chunk_size=2)
        assert ExecutionEngine(
            workers=1, backend=backend
        ).describe_backend() == "process(workers=3, chunk_size=2)"


class TestProcessPoolDispatch:
    def test_plan_chunks_heavy_first_then_light_chunks(self):
        light = [
            (f"light-{i}", spec) for i, spec in enumerate(_mixed_batch()[:3])
        ]
        device = IdealTrappedIonDevice(num_qubits=6)
        heavy = [
            (f"heavy-{shots}", JobSpec(
                circuit=qft_workload(6), device=device, backend="ideal",
                shots=shots, seed=1,
            ))
            for shots in (50, 200, 100)
        ]
        backend = ProcessPoolBackend(workers=2, chunk_size=2)
        chunks = backend.plan_chunks(light + heavy)
        # sampled jobs lead, longest first, one per chunk
        assert [chunk[0][0] for chunk in chunks[:3]] == [
            "heavy-200", "heavy-100", "heavy-50",
        ]
        assert all(len(chunk) == 1 for chunk in chunks[:3])
        # analytic jobs follow in chunks of chunk_size, order preserved
        assert [[job[0] for job in chunk] for chunk in chunks[3:]] == [
            ["light-0", "light-1"], ["light-2"],
        ]

    def test_chunk_size_validated(self):
        with pytest.raises(ReproError):
            ProcessPoolBackend(workers=2, chunk_size=0)
