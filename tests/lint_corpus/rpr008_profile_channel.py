# repro-lint: treat-as=src/repro/obs/profile.py
"""RPR008 sanctioned channel: the profiling-mode cache.

``repro.obs.profile`` is under ``WORKER_PATHS`` (a profiled job runs
it), so ``_MODE_CACHE`` is a worker global write — and stays clean,
because ``("repro.obs.profile", "_MODE_CACHE")`` is on the RPR008
sanctioned list: each process memoising its own parse of the profiling
environment variable is the intended behaviour.  The ``_LEAK`` write
right next to it proves the sanction does not leak — it must fire
exactly one RPR008 finding.
"""

from __future__ import annotations

import os

_MODE_CACHE: dict[str, object] = {}
_LEAK: list[str] = []


def resolve_mode() -> object:
    if "mode" not in _MODE_CACHE:
        # sanctioned: per-process memo of an env-var parse
        _MODE_CACHE["mode"] = os.environ.get("TILT_REPRO_PROFILE") or None
    # RPR008: an unsanctioned global write one line away must still fire
    _LEAK.append("resolved")
    return _MODE_CACHE["mode"]
