"""Durable, resumable run persistence: JSONL segments + a run manifest.

:class:`RunStore` is the one on-disk result format.  A store is a
directory::

    <root>/
        manifest.json            # RunManifest (optional, written by drivers)
        segments/
            <host>-<pid>-<nonce>.jsonl   # one append-only file per writer

Every writer process appends finished :class:`~repro.exec.jobs.JobResult`
records — one JSON object per line, flushed per record — to *its own*
segment file, so concurrent writers never contend on a shared file and
there is nothing to lock.  Loading merges every segment (keys are content
hashes, so two writers landing the same key have, by construction, equal
results and the merge is order-independent); a torn trailing line from a
killed writer is skipped, which is what makes an interrupted run safe to
resume: everything that finished is on disk, everything else simply is
not.  The line discipline is shared with the trace and the run ledger
(:mod:`repro.obs.jsonl`).

Each line is ``{"version": V, "record": <result>}`` with ``V`` the
:data:`~repro.exec.jobs.RESULT_SEMANTICS_VERSION` it was computed under;
:meth:`RunStore.reload` skips every other version, so a result of older
semantics is recomputed instead of served.

:class:`RunStore` exposes the same ``get`` / ``store`` / ``flush``
surface the engine uses on the in-memory
:class:`~repro.exec.cache.ResultCache`, so ``ExecutionEngine(store=...)``
is the engine's one persistence knob; ``store`` is durable *per job*.

:class:`RunManifest` records what a run *intended* (every spec key, in
submission order) next to what the store *has* (completed keys), plus
the backend description, engine-stats snapshot and git/seed provenance —
enough for ``run_search(..., resume=manifest)`` to skip exactly the
completed jobs and for an auditor to know which code produced them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import socket
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.exceptions import ReproError
from repro.exec.jobs import (
    RESULT_SEMANTICS_VERSION,
    JobResult,
    result_from_json,
    result_to_json,
)
from repro.obs.jsonl import append_record, list_segments, read_records
from repro.obs.trace import current_trace

#: File names inside a store root.
MANIFEST_NAME = "manifest.json"
SEGMENT_DIR = "segments"


class RunStore:
    """Append-only, merge-on-load result store rooted at a directory."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self._root = os.path.abspath(os.fspath(root))
        self._segment_dir = os.path.join(self._root, SEGMENT_DIR)
        os.makedirs(self._segment_dir, exist_ok=True)
        self._memory: dict[str, JobResult] = {}
        self._lock = threading.Lock()
        writer_id = (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        self._segment_path = os.path.join(
            self._segment_dir, f"{writer_id}.jsonl"
        )
        self.reload()

    # ------------------------------------------------------------------
    # Mapping-style access (the engine's cache surface)
    # ------------------------------------------------------------------
    @property
    def root(self) -> str:
        """The store directory."""
        return self._root

    @property
    def segment_path(self) -> str:
        """This writer's own segment file (created on first ``store``)."""
        return self._segment_path

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory

    def __iter__(self) -> Iterator[str]:
        return iter(dict(self._memory))

    def keys(self) -> list[str]:
        """Every completed key currently visible to this store."""
        return list(self._memory)

    def get(self, key: str) -> JobResult | None:
        """The stored result for *key*, or ``None``."""
        return self._memory.get(key)

    def store(self, result: JobResult) -> None:
        """Record *result* durably (appended, flushed and closed per job).

        A key already present is not re-appended: keys are content
        hashes, so the existing record is equal by construction and the
        segment stays lean when a resumed run re-stores merged results.
        The segment file is opened and closed per record — job results
        are coarse (a full compile+simulate each), so the open/close
        cost is noise, and holding no handle means nothing leaks and
        temp-directory stores clean up on every platform.
        """
        with self._lock:
            if result.key in self._memory:
                return
            self._memory[result.key] = result
            append_record(self._segment_path, {
                "version": RESULT_SEMANTICS_VERSION,
                "record": result_to_json(result),
            })

    def flush(self) -> None:
        """No-op: every record is flushed and closed when stored."""

    # ------------------------------------------------------------------
    # Lock-free merge on load
    # ------------------------------------------------------------------
    def reload(self) -> int:
        """Merge every segment on disk into memory; returns entry count.

        Lock-free with respect to other writers: segments are private to
        their writer, appends are line-delimited, and a torn trailing
        line (a writer killed mid-append) fails to parse and is skipped.
        This is where persisted results are checked against
        :data:`~repro.exec.jobs.RESULT_SEMANTICS_VERSION`: a line of any
        other version is skipped, so its job runs again.  Keys this
        store already holds are kept (the on-disk record for an equal
        key is an equal result).
        """
        start = time.perf_counter()
        with self._lock:
            segments = list_segments(self._segment_dir, suffix=".jsonl")
            for path in segments:
                for entry in read_records(path, "version",
                                          RESULT_SEMANTICS_VERSION):
                    try:
                        result = result_from_json(entry["record"])
                    except (KeyError, TypeError, ValueError):
                        continue  # parses, but is not a result: skip it
                    self._memory.setdefault(result.key, result)
            count = len(self._memory)
        trace = current_trace()
        if trace.enabled:
            trace.event(
                "store.reload", root=self._root, segments=len(segments),
                entries=count, dur_s=time.perf_counter() - start,
            )
        return count

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest_path(self) -> str:
        return os.path.join(self._root, MANIFEST_NAME)

    def write_manifest(self, manifest: "RunManifest") -> str:
        """Atomically write *manifest* into the store root.

        The temp file is reclaimed on any failure (an unserialisable
        manifest payload must not litter the store root).
        """
        path = self.manifest_path()
        temp = path + ".tmp"
        replaced = False
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(manifest.to_json(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            os.replace(temp, path)
            replaced = True
        finally:
            if not replaced:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
        return path

    def read_manifest(self) -> "RunManifest":
        return read_manifest(self._root)


@dataclass
class RunManifest:
    """What a run planned, what completed, and where it came from.

    Attributes
    ----------
    store_root:
        Directory of the :class:`RunStore` holding the results.
    spec_keys:
        Content key of every job the run planned, in submission order.
    completed_keys:
        Keys the store held when the manifest was written.
    backend:
        ``Backend.describe()`` of whatever executed the run.
    backend_config:
        ``Backend.describe_config()`` — the structured counterpart of
        ``backend`` (worker count, chunking policy), empty for legacy
        manifests.
    engine_stats:
        :meth:`EngineStats.to_dict` snapshot (or a delta) of the run.
    provenance:
        Git commit / dirty flag, python + platform versions, the run's
        root seed / shot budget and the result semantics version — see
        :func:`collect_provenance`.
    status:
        ``"planned"`` → ``"running"`` → ``"complete"``; an interrupted
        run leaves ``"running"``, which is exactly the state resume
        targets.
    extra:
        Driver-specific context (e.g. the search strategy and knobs).
    """

    store_root: str
    spec_keys: list[str] = field(default_factory=list)
    completed_keys: list[str] = field(default_factory=list)
    backend: str = "serial"
    backend_config: dict[str, Any] = field(default_factory=dict)
    engine_stats: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    status: str = "planned"
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def pending_keys(self) -> list[str]:
        """Planned keys with no stored result yet, in submission order."""
        done = set(self.completed_keys)
        return [key for key in self.spec_keys if key not in done]

    def summary(self) -> str:
        done = len(set(self.spec_keys) & set(self.completed_keys))
        commit = self.provenance.get("git_commit") or "unknown"
        return (
            f"run at {self.store_root}: {done}/{len(self.spec_keys)} jobs "
            f"complete ({self.status}), backend {self.backend}, "
            f"commit {str(commit)[:12]}"
        )

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "RunManifest":
        return cls(
            store_root=str(payload["store_root"]),
            spec_keys=[str(key) for key in payload.get("spec_keys", [])],
            completed_keys=[
                str(key) for key in payload.get("completed_keys", [])
            ],
            backend=str(payload.get("backend", "serial")),
            backend_config=dict(payload.get("backend_config", {})),
            engine_stats=dict(payload.get("engine_stats", {})),
            provenance=dict(payload.get("provenance", {})),
            status=str(payload.get("status", "planned")),
            extra=dict(payload.get("extra", {})),
        )


def read_manifest(location: str | os.PathLike[str]) -> RunManifest:
    """Load a manifest from a store root or a direct manifest path."""
    path = os.fspath(location)
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"no run manifest at {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"corrupt run manifest at {path}: {exc}") from exc
    return RunManifest.from_json(payload)


def _git(*args: str) -> str | None:
    # Anchor at this package's directory, not the caller's cwd: the
    # provenance describes the *code* that produced the results, and a
    # driver script may run from anywhere.
    try:
        completed = subprocess.run(
            ("git", *args), capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()


def collect_provenance(*, seed: int | None = None,
                       shots: int | None = None,
                       trace: str | None = None) -> dict[str, Any]:
    """Reproducibility context for a manifest or a history record.

    Git fields are ``None`` outside a repository (or without a ``git``
    binary) rather than an error, so stores work anywhere.  *trace* is
    the path of the run's trace file when tracing was on (``None``
    otherwise), so a manifest points at its own telemetry.
    ``result_semantics_version`` names the result semantics the run's
    results were computed under.
    """
    commit = _git("rev-parse", "HEAD")
    dirty = None
    if commit is not None:
        # tracked modifications only: an untracked RunStore directory
        # (or any other scratch file) must not flag a pristine checkout
        # as dirty in every CI manifest
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "seed": seed,
        "shots": shots,
        "trace": trace,
        "result_semantics_version": RESULT_SEMANTICS_VERSION,
    }
