"""Deterministic toolkit for squeezing a nanomechanical oscillator with
quadratic optomechanical kicks: Gaussian-state dynamics, pulse-protocol
planning, and the intensity readout that measures ⟨x²⟩ directly."""

from .dissipation import decoherence_term, dissipate
from .errors import ConfigError, InvariantViolation, ParameterError, QuadkickError
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
    default_readout_config,
    infer_x2,
    integrate_langevin,
    ripple_report,
)
from .state import (
    GaussianState,
    SymplecticMap,
    free_x2_expectation,
    is_squeezed,
    propagate,
    thermal_occupancy,
    thermal_state,
)

__version__ = "0.1.0"
