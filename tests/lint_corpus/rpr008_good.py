# repro-lint: treat-as=src/repro/exec/backends.py
"""RPR008 negatives: state handled through the sanctioned channels.

Registry writes happen at import time (module-level code is not a
function — a re-importing worker re-runs it deterministically); worker
code builds *local* containers and returns them for the parent to
merge.
"""

from __future__ import annotations

_REGISTRY: dict[str, str] = {}

# import-time registration: the sanctioned channel (RPR004 polices
# that it stays at import time)
_REGISTRY["baseline"] = "tilt"
_REGISTRY.setdefault("fallback", "ideal")


def execute_spec(spec: object, key: str) -> dict[str, object]:
    results: dict[str, object] = {}
    results[key] = spec
    tags = []
    tags.append(_REGISTRY.get(key, "baseline"))
    results["tags"] = tuple(tags)
    return results
