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

Profiling is pure observation: it reads process accounting state and
never touches job inputs or results (bit-identity of profiled vs plain
runs is pinned by ``tests/test_obs.py``).  Like the rest of
``repro.obs`` it is wall-clock-legal under RPR001, and its single piece
of process-wide state — the parsed mode cache below — is a sanctioned
RPR008 channel: the cached value is derived from the environment, which
``fork``/``spawn`` workers inherit identically, so the copy each worker
caches agrees with the parent's by construction.
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
    "profile_enabled",
    "refresh_mode",
    "resolve_mode",
    "start_job_profile",
]

#: Environment variable switching profiling of executed jobs on.
PROFILE_ENV_VAR = "TILT_REPRO_PROFILE"

#: Env values that leave profiling off; any other value switches it on.
_OFF_VALUES = frozenset({"", "0", "off", "false", "no"})

#: The parsed profiling mode, cached once per process (RPR008 sanctioned
#: channel ``repro.obs.profile._MODE_CACHE``): workers inherit the same
#: environment, so every process resolves — and caches — the same mode.
_MODE_CACHE: dict[str, Any] = {}


def resolve_mode() -> str | None:
    """The active profiling mode: ``None`` (off) or ``"cpu"`` (CPU/RSS
    capture), parsed from :data:`PROFILE_ENV_VAR` once per process."""
    if "mode" not in _MODE_CACHE:
        raw = os.environ.get(PROFILE_ENV_VAR, "").strip().lower()
        _MODE_CACHE["mode"] = None if raw in _OFF_VALUES else "cpu"
    return _MODE_CACHE["mode"]


def refresh_mode() -> str | None:
    """Drop the cached mode and re-read the environment (for tests and
    benchmarks toggling :data:`PROFILE_ENV_VAR` mid-process)."""
    _MODE_CACHE.clear()
    return resolve_mode()


def profile_enabled() -> bool:
    return resolve_mode() is not None


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

    __slots__ = ("mode", "_times", "_rusage")

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self._rusage = (resource.getrusage(resource.RUSAGE_SELF)
                        if resource is not None else None)
        self._times = os.times()

    def finish(self) -> dict[str, Any]:
        times = os.times()
        payload: dict[str, Any] = {
            "mode": self.mode,
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
    """A :class:`JobProfiler` when profiling is on, else ``None``.

    The off path is one cached-dict lookup — cheap enough for
    :func:`~repro.exec.backends.execute_spec` to call unconditionally
    on every traced job.
    """
    mode = resolve_mode()
    if mode is None:
        return None
    return JobProfiler(mode)
