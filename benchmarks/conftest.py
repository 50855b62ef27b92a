"""Shared fixtures for the benchmark harness.

Every benchmark honours the ``TILT_REPRO_SCALE`` environment variable:

* unset / ``small`` — reduced-width workloads (default, finishes in seconds);
* ``paper``        — the exact 64/78-qubit configurations of the paper,
  the ones ``python -m repro.analysis.report --scale paper`` prints and the
  paper rows of ``tests/fixtures/spec_keys.json`` pin.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.noise.parameters import NoiseParameters


@pytest.fixture(scope="session")
def scale() -> str:
    """The active experiment scale ('small' or 'paper')."""
    return experiments.resolve_scale()


@pytest.fixture(scope="session")
def noise() -> NoiseParameters:
    """The calibration of every figure the report prints."""
    return NoiseParameters.paper_defaults()


def pytest_report_header(config):  # noqa: D103 - pytest hook
    return f"TILT reproduction benchmarks, scale={experiments.resolve_scale()}"
