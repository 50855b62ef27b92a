# repro-lint: treat-as=src/repro/circuits/badlayer.py
"""RPR006 positives: a base-layer module importing up the stack.

``circuits`` is the bottom of the architecture — it may import only
``repro.exceptions``.  Every import below reaches sideways or upward
and must be flagged by the layer table.
"""

# RPR006: circuits may not import the execution layer
from repro.exec.backends import resolve_backend

# RPR006: circuits may not import a driver layer
from repro.analysis.experiments import sweep_records

# RPR006: obs is a leaf reserved for exec
from repro.obs.trace import span

# RPR006: runtime code may never import devtools
from repro.devtools.core import run_lint

__all__ = ["resolve_backend", "sweep_records", "span", "run_lint"]
