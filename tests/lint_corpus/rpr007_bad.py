# repro-lint: treat-as=src/repro/exec/backends.py
"""RPR007 positives: everything that cannot cross the worker boundary.

Impersonates ``repro.exec.backends``, a file under ``WORKER_PATHS``, so
the ambient-handle check fires on ``execute_spec`` below.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, TextIO

_AUDIT_LOG = open("audit.log", "a")
_STATE_LOCK = threading.Lock()


@dataclass(frozen=True)
class JobSpec:
    seed: int = 0
    # RPR007: a callable field makes every spec batch unpicklable
    callback: Callable[[str], None] | None = None
    # RPR007: a file-object field can never serialize
    log: TextIO | None = None


def execute_spec(spec: JobSpec, key: str) -> JobSpec:
    # RPR007: worker code capturing a module-level lock
    with _STATE_LOCK:
        # RPR007: ... and a module-level file handle
        _AUDIT_LOG.write(key)
    return spec


def submit_all(pool: ProcessPoolExecutor, specs: list) -> list:
    # RPR007: lambdas cannot be pickled across the boundary
    futures = [pool.submit(lambda: execute_spec(s, "k")) for s in specs]

    def _task(spec: JobSpec) -> JobSpec:
        return execute_spec(spec, "k")

    # RPR007: locally defined functions close over the frame
    futures.append(pool.submit(_task, specs[0]))
    return futures
