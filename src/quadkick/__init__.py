"""Deterministic toolkit for squeezing a nanomechanical oscillator with
quadratic optomechanical kicks: Gaussian-state dynamics, pulse-protocol
planning, and the intensity readout that measures ⟨x²⟩ directly."""

from .errors import InvariantViolation, ParameterError, QuadkickError
from .kicks import (
    Dissipate,
    Free,
    Kick,
    PhysicalParams,
    PulseSchedule,
    apply_schedule,
    coupling_from_physical,
    effective_stiffness,
    free_matrix,
    kick_matrix,
    optimal_kick_duration,
    quarter_period,
    two_pulse_variance,
)
from .planner import (
    PlanResult,
    SweepAxis,
    SweepCell,
    SweepSpec,
    min_pulses,
    sweep,
)
from .readout import (
    ReadoutConfig,
    ReadoutTrace,
    RippleReport,
    adiabatic_intensity,
    analyze_trace,
    baseline_intensity,
    infer_x2,
    integrate_langevin,
)
from .state import (
    GaussianState,
    SymplecticMap,
    decoherence_term,
    dissipate,
    free_x2_harmonics,
    propagate,
    thermal_occupancy,
    thermal_state,
)

__version__ = "0.1.0"
