# repro-lint: treat-as=src/repro/exec/backends.py
"""RPR008 positives: worker writes to module-level state.

Impersonates ``repro.exec.backends``, a file under ``WORKER_PATHS``;
every write below lands in the worker's private copy and silently
diverges from the parent.
"""

from __future__ import annotations

_RESULT_CACHE: dict[str, object] = {}
_SHOT_LOG: list[str] = []
_SEEN = set()
_STATS = dict(executed=0)


def _note(key: str) -> None:
    # RPR008: every function under WORKER_PATHS is worker code
    _STATS.update(executed=_STATS["executed"] + 1)


def execute_spec(spec: object, key: str) -> object:
    global _SEEN
    # RPR008: item write into a module-level dict
    _RESULT_CACHE[key] = spec
    # RPR008: in-place mutation of a module-level list
    _SHOT_LOG.append(key)
    # RPR008: rebinding a module-level mutable global
    _SEEN = _SEEN | {key}
    _note(key)
    return spec
