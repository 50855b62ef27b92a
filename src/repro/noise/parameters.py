"""Noise-model parameters.

The paper's fidelity model (Section IV-E) has four physical inputs: the
background heating rate of the trap (Gamma), the AM two-qubit gate time
(Eq. 3), the amount of heating added by each shuttle (k, scaling like
sqrt(n)), and the residual gate error epsilon.  The paper does not publish
the numerical calibration, so :meth:`NoiseParameters.paper_defaults` provides
values chosen to land in the reported operating ranges (BV success around
0.9 on TILT-16, QFT success far below 1e-10, QCCD behind TILT on
short-distance workloads).  Every value is explicit and overridable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.exceptions import SimulationError


@dataclass(frozen=True)
class NoiseParameters:
    """All knobs of the trapped-ion noise model.

    Attributes
    ----------
    background_heating_rate_per_us:
        Gamma in Eq. 4 — fidelity lost per microsecond of two-qubit gate time
        due to background motional heating of the trap.
    residual_gate_error:
        epsilon in Eq. 4 — error of each two-qubit gate caused by imperfect
        phase-space loop closure; amplified exponentially by motional quanta.
    one_qubit_gate_error:
        Constant error of a single-qubit rotation (raw rates are ~1e-3 but
        composite pulses improve them "significantly", Section II-B; 1e-5
        keeps single-qubit error from masking the two-qubit/shuttling
        effects the paper studies).
    one_qubit_gate_time_us:
        Duration of a single-qubit rotation in microseconds.
    two_qubit_time_slope_us / two_qubit_time_offset_us:
        Eq. 3 coefficients: ``tau(d) = slope * d + offset`` microseconds for
        an AM gate spanning ``d`` ion spacings.
    shuttle_quanta_reference:
        Motional quanta added by one full-chain linear shuttle of a chain
        with ``shuttle_reference_ions`` ions (k in the paper before the
        sqrt(n) scaling).
    shuttle_reference_ions:
        Chain length at which ``shuttle_quanta_reference`` was calibrated
        (Honeywell's 8-ion chain).
    qccd_shuttle_quanta:
        Motional quanta added by each QCCD shuttling primitive (split,
        merge, segment shuttle); Honeywell reports an average of about
        2 quanta per operation.
    qccd_cooling_factor:
        Fraction of a QCCD chain's motional quanta that survives the
        sympathetic-cooling step applied after each ion transport
        (1.0 disables cooling).  QCCD traps are small enough to support
        in-circuit recooling, which is why their heating does not accumulate
        without bound the way a full-tape shuttle's does.
    shuttle_speed_um_per_us:
        Tape / ion shuttling speed used for execution-time estimates (Eq. 5).
    measurement_error:
        Per-qubit readout error; 0 disables readout error (the paper's
        success-rate metric ignores it).
    tilt_cooling_interval_moves:
        Section VII extension — sympathetic cooling on the TILT tape.  When
        positive, the chain is re-cooled to its motional ground state after
        every this-many tape moves (0, the paper's main configuration,
        disables cooling so heating accumulates over the whole program).
    tilt_cooling_time_us:
        Duration of one sympathetic-cooling pause on the tape, charged to
        the execution-time estimate when cooling is enabled.
    """

    background_heating_rate_per_us: float = 1.0e-6
    residual_gate_error: float = 1.0e-5
    one_qubit_gate_error: float = 1.0e-5
    one_qubit_gate_time_us: float = 10.0
    two_qubit_time_slope_us: float = 38.0
    two_qubit_time_offset_us: float = 10.0
    shuttle_quanta_reference: float = 1.0
    shuttle_reference_ions: int = 8
    qccd_shuttle_quanta: float = 2.0
    qccd_cooling_factor: float = 0.995
    shuttle_speed_um_per_us: float = 1.0
    measurement_error: float = 0.0
    tilt_cooling_interval_moves: int = 0
    tilt_cooling_time_us: float = 400.0

    def __post_init__(self) -> None:
        non_negative = (
            "background_heating_rate_per_us",
            "residual_gate_error",
            "one_qubit_gate_error",
            "shuttle_quanta_reference",
            "qccd_shuttle_quanta",
            "measurement_error",
        )
        for name in non_negative:
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")
        positive = (
            "one_qubit_gate_time_us",
            "two_qubit_time_slope_us",
            "shuttle_speed_um_per_us",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be positive")
        if self.shuttle_reference_ions <= 0:
            raise SimulationError("shuttle_reference_ions must be positive")
        if not 0.0 <= self.qccd_cooling_factor <= 1.0:
            raise SimulationError("qccd_cooling_factor must be in [0, 1]")
        if self.tilt_cooling_interval_moves < 0:
            raise SimulationError(
                "tilt_cooling_interval_moves cannot be negative"
            )
        if self.tilt_cooling_time_us < 0:
            raise SimulationError("tilt_cooling_time_us cannot be negative")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_defaults(cls) -> "NoiseParameters":
        """Calibration of every experiment ``repro.analysis.report`` runs."""
        return cls()

    @classmethod
    def noiseless(cls) -> "NoiseParameters":
        """All error sources switched off (useful for structural tests)."""
        return cls(
            background_heating_rate_per_us=0.0,
            residual_gate_error=0.0,
            one_qubit_gate_error=0.0,
            shuttle_quanta_reference=0.0,
            qccd_shuttle_quanta=0.0,
            measurement_error=0.0,
        )

    def with_overrides(self, **kwargs: float) -> "NoiseParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def shuttle_quanta(self, chain_length: int) -> float:
        """Heating added by one linear shuttle of a chain of *chain_length* ions.

        Implements the paper's ``k ~ sqrt(n)`` scaling relative to the
        reference chain length.
        """
        if chain_length <= 0:
            raise SimulationError("chain length must be positive")
        scale = math.sqrt(chain_length / self.shuttle_reference_ions)
        return self.shuttle_quanta_reference * scale
