"""Opt-in per-job resource profiling attached to ``job.execute`` spans.

Set ``TILT_REPRO_PROFILE=1`` and every *traced* executed job carries a
``profile`` attribute on its ``job.execute`` span:

* ``cpu_user_s`` / ``cpu_system_s`` — process CPU-time deltas from
  :func:`os.times` across the job;
* ``max_rss_kb`` plus minor/major page-fault deltas — from
  :func:`resource.getrusage` where the :mod:`resource` module exists
  (POSIX; the field is simply absent elsewhere).

The capture rides the existing trace machinery end to end: in pool
workers the span (profile attrs included) lands in the worker's private
sidecar segment and is merged into the parent trace after the batch —
profiling needs no channel of its own.  ``python -m repro.obs.report``
renders the collected profiles as a per-backend resource table.

The switch is read each time :func:`start_job_profile` runs, that is
once per traced job, in the process that runs the job (pool workers
inherit the environment), so setting or clearing the variable between
batches takes effect at the next job; the module keeps no process-wide
state.

Profiling is pure observation: it reads process accounting state and
never touches job inputs or results (bit-identity of profiled vs plain
runs is pinned by ``tests/test_obs.py``).  Like the rest of
``repro.obs`` it is wall-clock-legal under RPR001.
"""

from __future__ import annotations

import os
import sys
from typing import Any

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None  # type: ignore[assignment]

__all__ = [
    "PROFILE_ENV_VAR",
    "JobProfiler",
    "start_job_profile",
]

#: Environment variable switching profiling of executed jobs on.
PROFILE_ENV_VAR = "TILT_REPRO_PROFILE"

#: Env values that leave profiling off; any other value switches it on.
_OFF_VALUES = frozenset({"", "0", "off", "false", "no"})


def _rss_kb(ru_maxrss: int) -> int:
    """``ru_maxrss`` in KiB (Linux reports KiB, macOS reports bytes)."""
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return int(ru_maxrss / 1024)
    return int(ru_maxrss)


class JobProfiler:
    """Capture resource deltas across one job.

    Construct before the work, call :meth:`finish` after; the returned
    dict is what lands in ``span.attrs["profile"]``.
    """

    __slots__ = ("_times", "_rusage")

    def __init__(self) -> None:
        self._rusage = (resource.getrusage(resource.RUSAGE_SELF)
                        if resource is not None else None)
        self._times = os.times()

    def finish(self) -> dict[str, Any]:
        times = os.times()
        payload: dict[str, Any] = {
            "mode": "cpu",
            "cpu_user_s": times.user - self._times.user,
            "cpu_system_s": times.system - self._times.system,
        }
        if resource is not None and self._rusage is not None:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            payload["max_rss_kb"] = _rss_kb(usage.ru_maxrss)
            payload["minor_faults"] = usage.ru_minflt - self._rusage.ru_minflt
            payload["major_faults"] = usage.ru_majflt - self._rusage.ru_majflt
        return payload


def start_job_profile() -> JobProfiler | None:
    """A :class:`JobProfiler` when :data:`PROFILE_ENV_VAR` switches
    profiling on, else ``None``.

    :func:`~repro.exec.backends.execute_spec` calls it on traced jobs
    only, so parsing the variable on every call costs nothing an
    untraced run pays.
    """
    raw = os.environ.get(PROFILE_ENV_VAR, "").strip().lower()
    return None if raw in _OFF_VALUES else JobProfiler()
