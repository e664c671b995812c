"""Operational planning on top of the dynamics: minimal pulse counts and
parameter-grid sweeps (timing jitter is the sweep's ``delta_tau`` axis)."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from .dissipation import decoherence_term
from .errors import ParameterError, QuadkickError
from .kicks import (
    Dissipate,
    Free,
    Kick,
    PhysicalParams,
    PulseSchedule,
    effective_stiffness,
    fold,
    optimal_kick_duration,
    quarter_period,
    two_pulse_variance,
)
from .state import GaussianState, thermal_state

_PARAM_FIELDS = tuple(f.name for f in fields(PhysicalParams))
OBSERVABLES = ("var_x", "var_p", "pulses_needed", "decoherence_term")


@dataclass(frozen=True)
class PlanResult:
    """Outcome of a pulse-count search."""

    pulses: int
    schedule: PulseSchedule
    final_state: GaussianState
    history: tuple[tuple[float, float, float], ...]  # (var_p, var_x, cross) per state
    target_met: bool

    def __post_init__(self):
        if self.pulses < 0:
            raise ParameterError("pulse count cannot be negative")
        if len(self.history) != len(self.schedule.segments) + 1:
            raise ParameterError("history must hold one entry per segment plus the initial state")


def min_pulses(
    params: PhysicalParams,
    threshold: float = 0.5,
    include_dissipation: bool = False,
    max_pulses: int = 64,
    occupancy: float | None = None,
) -> PlanResult:
    """Smallest number of pulses driving var_x strictly below ``threshold``.

    Folds the canonical protocol with ``kicks.fold``: optimal-duration kicks
    separated by quarter-period free evolutions (each followed by a
    same-length thermal contact when ``include_dissipation``), stopping at
    the first kick that meets the target.  ``occupancy`` overrides the
    initial/bath occupancy otherwise derived from the params' temperature.
    Exhausting ``max_pulses`` is reported through ``target_met``, not an
    error.
    """
    if threshold <= 0.0:
        raise ParameterError(f"threshold must be positive, got {threshold!r}")
    if max_pulses < 0:
        raise ParameterError(f"max_pulses must be non-negative, got {max_pulses!r}")
    n_bar = params.occupancy() if occupancy is None else occupancy
    g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
    kick = Kick(optimal_kick_duration(g_tilde, params.omega_m))
    tau = quarter_period(params.omega_m)
    step = (Free(tau), Dissipate(tau), kick) if include_dissipation else (Free(tau), kick)
    canonical = ((kick,) + step * (max_pulses - 1)) if max_pulses else ()

    state = thermal_state(n_bar)
    history = [(state.var_p, state.var_x, state.cross)]
    pulses = 0
    if state.var_x >= threshold:
        # the loop rebinds ``state``: afterwards it is the last folded state
        for segment, state in zip(canonical, fold(state, canonical, params, n_bar)):
            history.append((state.var_p, state.var_x, state.cross))
            if segment is kick:
                pulses += 1
                if state.var_x < threshold:
                    break
    return PlanResult(
        pulses=pulses,
        schedule=PulseSchedule(canonical[: len(history) - 1], label=f"canonical-{pulses}-pulse"),
        final_state=state,
        history=tuple(history),
        target_met=state.var_x < threshold,
    )


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a PhysicalParams field name or "delta_tau"."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.name not in _PARAM_FIELDS and self.name != "delta_tau":
            raise ParameterError(f"unknown sweep parameter {self.name!r}")
        if not self.values:
            raise ParameterError(f"axis {self.name}: value list is empty")
        for v in self.values:
            if not math.isfinite(v):
                raise ParameterError(f"axis {self.name}: value {v!r} is not finite")


@dataclass(frozen=True)
class SweepSpec:
    """Up to two axes, a base parameter set, and an observable selector."""

    axes: tuple[SweepAxis, ...]
    base: PhysicalParams
    observable: str = "var_x"
    include_dissipation: bool = False
    threshold: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= 2:
            raise ParameterError("sweep needs one or two axes")
        if len({a.name for a in self.axes}) != len(self.axes):
            raise ParameterError("sweep axes must be distinct")
        if self.observable not in OBSERVABLES:
            raise ParameterError(
                f"unknown observable {self.observable!r}; choose from {OBSERVABLES}"
            )


class SweepCell(NamedTuple):
    """One grid cell: axis coordinates plus the observable value or an error."""

    coords: tuple[tuple[str, float], ...]
    value: float | None
    error: str | None


def _evaluate_cell(spec: SweepSpec, coords: tuple[tuple[str, float], ...]) -> float:
    overrides = {name: v for name, v in coords if name != "delta_tau"}
    dtau = dict(coords).get("delta_tau", 0.0)
    params = replace(spec.base, **overrides)
    if spec.observable == "pulses_needed":
        return float(min_pulses(params, spec.threshold, spec.include_dissipation).pulses)
    if spec.observable == "decoherence_term":
        tau_wait = math.pi / params.omega_m
        return decoherence_term(params.gamma, tau_wait, params.occupancy())
    g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
    tau = quarter_period(params.omega_m) + dtau
    var_p, var_x = two_pulse_variance(tau, g_tilde, params.omega_m, params.occupancy())
    return var_x if spec.observable == "var_x" else var_p


def sweep(spec: SweepSpec) -> list[SweepCell]:
    """Evaluate the observable over the grid, axis-1 major.

    A cell whose substituted parameters are invalid, or whose evaluation
    fails, records the error message in place of a value; the sweep itself
    never aborts.
    """
    grids = [[(axis.name, v) for v in axis.values] for axis in spec.axes]
    if len(grids) == 1:
        points = [(c,) for c in grids[0]]
    else:
        points = [(c1, c2) for c1 in grids[0] for c2 in grids[1]]
    cells = []
    for coords in points:
        try:
            value = _evaluate_cell(spec, coords)
        except QuadkickError as exc:
            cells.append(SweepCell(coords=coords, value=None, error=str(exc)))
        else:
            cells.append(SweepCell(coords=coords, value=value, error=None))
    return cells
