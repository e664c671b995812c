"""Operational planning on top of the dynamics: minimal pulse counts and
parameter-grid sweeps (the sweep's ``delta_tau`` axis is one deterministic
offset added to every wait, not random timing jitter)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParameterError, QuadkickError
from .kicks import (
    PhysicalParams,
    PulseSchedule,
    _two_pulse_moments,
    check_field,
    effective_stiffness,
    optimal_kick_duration,
    parse_schedule,
    quarter_period,
    two_pulse_variance,
)
from .state import VACUUM_VARIANCE, _added_variance, decoherence_term, thermal_occupancy, thermal_state

if TYPE_CHECKING:
    import numpy as np

_AXIS_NAMES = tuple(f.name for f in fields(PhysicalParams)) + ("delta_tau",)
OBSERVABLES = ("var_x", "var_p", "pulses_needed", "decoherence_term")
MAX_PULSES = 64
# Upper bound on the cells of one sweep grid, checked before anything is allocated.
MAX_CELLS = 10**6


class PlanResult(NamedTuple):
    """Outcome of a pulse-count search: the canonical protocol with ``pulses`` kicks."""

    pulses: int
    schedule: PulseSchedule


def _pulse_count(p: dict[str, float], include_dissipation: bool, occupancy: float | None) -> int:
    """``min_pulses(...).pulses`` from a table ``p`` of checked field values; raises as it does."""
    omega_m = p["omega_m"]
    n_bar = thermal_occupancy(p["T"], omega_m) if occupancy is None else occupancy
    g_tilde = effective_stiffness(p["g"], p["n_p"], omega_m)
    optimal_kick_duration(g_tilde, omega_m)  # the plan's kick must exist
    tau = quarter_period(omega_m)
    r = omega_m / g_tilde
    var_x = thermal_state(n_bar).var_x * r
    decay, added = 1.0, 0.0
    if include_dissipation:
        decay, added = math.exp(-p["gamma"] * tau), decoherence_term(p["gamma"], tau, n_bar)
    pulses = 1
    while var_x >= VACUUM_VARIANCE and pulses < MAX_PULSES:
        var_x = (decay * var_x + added) * r
        pulses += 1
    return pulses


def min_pulses(
    params: PhysicalParams, include_dissipation: bool = False, occupancy: float | None = None
) -> PlanResult:
    """Smallest number of pulses driving var_x strictly below the vacuum's 1/2.

    The plan repeats ``parse_schedule("kick;free")``'s optimal kick and
    quarter-period wait (a free evolution, then a same-length thermal contact
    when ``include_dissipation``).  A kick scales var_p into var_x by
    r = omega_m/g_tilde and the quarter period swaps the quadratures, so
    var_x after kick k follows one scalar recurrence:

        X_1 = (n̄ + 1/2)·r,    X_{k+1} = (e^{-γτ}·X_k + a)·r

    with a = decoherence_term(γ, τ, n̄), and e^{-γτ} = 1, a = 0 without
    dissipation.  ``occupancy`` overrides the initial/bath occupancy
    otherwise derived from the params' temperature.  A thermal state is
    never squeezed, so at least one kick is made; a plan that spends all
    MAX_PULSES kicks without reaching the target is returned, not raised.
    The count is ``_pulse_count``'s over the params' fields; ``sweep`` counts over its table.
    """
    pulses = _pulse_count(vars(params), include_dissipation, occupancy)
    kick, *wait = parse_schedule("kick;free", params, include_dissipation).segments
    return PlanResult(pulses, PulseSchedule((kick,) + (*wait, kick) * (pulses - 1)))


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a PhysicalParams field name or "delta_tau".

    ``delta_tau`` offsets the two-pulse wait from the quarter period, so only
    ``var_x`` and ``var_p`` read it; the other observables ignore it.
    """

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.name not in _AXIS_NAMES:
            raise ParameterError(f"unknown sweep parameter {self.name!r}")
        if not self.values:
            raise ParameterError(f"axis {self.name}: value list is empty")
        for v in self.values:
            if not math.isfinite(v):
                raise ParameterError(f"axis {self.name}: value {v!r} is not finite")


@dataclass(frozen=True)
class SweepSpec:
    """Up to two axes, a base parameter set, and an observable selector.

    ``include_dissipation`` is read only by ``pulses_needed``; the others ignore it.
    The grid has at most ``MAX_CELLS`` cells.
    """

    axes: tuple[SweepAxis, ...]
    base: PhysicalParams
    observable: str = "var_x"
    include_dissipation: bool = False

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
        cells = math.prod(len(a.values) for a in self.axes)
        if cells > MAX_CELLS:
            raise ParameterError(f"sweep grid has {cells} cells, more than the limit of {MAX_CELLS}")


class SweepCell(NamedTuple):
    """One grid cell: axis coordinates plus the observable value or an error."""

    coords: tuple[tuple[str, float], ...]
    value: float | None
    error: str | None


def _evaluate_cell(spec: SweepSpec, p: dict[str, float]) -> float:
    """One cell's observable from its table ``p`` of checked field values and ``delta_tau``."""
    if spec.observable == "pulses_needed":
        return float(_pulse_count(p, spec.include_dissipation, None))
    omega_m = p["omega_m"]
    if spec.observable == "decoherence_term":
        tau_wait = math.pi / omega_m
        return decoherence_term(p["gamma"], tau_wait, thermal_occupancy(p["T"], omega_m))
    g_tilde = effective_stiffness(p["g"], p["n_p"], omega_m)
    tau = quarter_period(omega_m) + p["delta_tau"]
    var_p, var_x = two_pulse_variance(tau, g_tilde, omega_m, thermal_occupancy(p["T"], omega_m))
    return var_x if spec.observable == "var_x" else var_p


def _closed_form_grid(spec: SweepSpec, table: dict, errors: list) -> tuple[np.ndarray, list]:
    """The closed-form observable of every cell, axis-1 major, with the axes
    laid over the field ``table``, and the cells it leaves open (nan) for
    the scalar ``_evaluate_cell``, the one source of error texts: an invalid
    axis value (a text in ``errors``), a negative wait, an infinite
    decoherence wait, or a non-finite result, which a raise gives as nan.

    The occupancy and the quarter period are the checked functions' own; the
    values are ``_two_pulse_moments``' and ``_added_variance``', the scalar
    arithmetic run on arrays broadcast over the axes, so every other cell is
    the double ``_evaluate_cell`` returns.  ``each`` applies those functions
    and ``math``'s transcendentals with ``np.frompyfunc``, once per distinct
    input, on arrays shaped over the axes that input depends on.
    """
    import numpy as np
    from types import SimpleNamespace

    def each(fn):
        def or_nan(*args):
            try:
                return fn(*args)
            except (ValueError, OverflowError):  # a ParameterError is a ValueError
                return math.nan
        return lambda *args: np.asarray(np.frompyfunc(or_nan, len(args), 1)(*args), dtype=float)

    ndim = len(spec.axes)
    bad = np.zeros((1,) * ndim, dtype=bool)
    p = dict(table)
    for i, (axis, texts) in enumerate(zip(spec.axes, errors)):
        shape = [1] * ndim
        shape[i] = len(axis.values)
        p[axis.name] = np.array(axis.values).reshape(shape)
        bad = bad | np.array([text is not None for text in texts]).reshape(shape)
    grid = SimpleNamespace(cos=each(math.cos), sin=each(math.sin), expm1=each(math.expm1))
    with np.errstate(all="ignore"):
        omega_m = p["omega_m"]
        n_bar = each(thermal_occupancy)(p["T"], omega_m)
        if spec.observable == "decoherence_term":
            tau_wait = math.pi / omega_m
            value = _added_variance(grid, p["gamma"], tau_wait, n_bar)
            bad = bad | (tau_wait == math.inf) | ~np.isfinite(value)
        else:
            # inline, not effective_stiffness, which would take one Python call per cell
            g_tilde = 2.0 * p["g"] * p["n_p"] + omega_m
            tau = each(quarter_period)(omega_m) + p["delta_tau"]
            var_p, var_x = _two_pulse_moments(grid, omega_m * tau, g_tilde / omega_m, n_bar)
            value = var_p if spec.observable == "var_p" else var_x
            bad = bad | (tau < 0.0) | ~np.isfinite(var_p) | ~np.isfinite(var_x)
        # bad spans every axis, so this is the whole grid
        return np.where(bad, math.nan, value).reshape(-1), np.flatnonzero(bad).tolist()


def sweep(spec: SweepSpec) -> list[SweepCell]:
    """Evaluate the observable over the grid, axis-1 major.

    A cell whose substituted parameters are invalid, or whose evaluation
    fails, records the error message in place of a value; the sweep itself
    never aborts.  Each axis value is checked once; a cell reports its first
    out-of-range field in field order, as ``PhysicalParams`` would.  Cells
    read one table, the base's fields and ``delta_tau``, with their axis
    values laid over it; none builds a ``PhysicalParams``.  Only ``var_x``
    and ``var_p`` read ``delta_tau``.  Closed-form observables are computed
    for the whole grid at once, into a float64 array; the cells it leaves
    open and ``pulses_needed`` cells (a count, no schedule, into a list,
    without numpy) are scalar.  ``_sweep_columns`` returns the values and
    the error texts, and the cells are built from those two columns.
    """
    values, errors = _sweep_columns(spec)
    grid = itertools.product(*[[(a.name, v) for v in a.values] for a in spec.axes])
    return [SweepCell(coords, None, errors[k]) if k in errors else SweepCell(coords, value, None)
            for k, (coords, value) in enumerate(zip(grid, map(float, values)))]


def _sweep_columns(spec: SweepSpec) -> tuple[np.ndarray | list[float], dict[int, str]]:
    """``sweep``'s grid as columns: every cell's value, axis-1 major, and its error text by index."""
    checks = [[None if a.name == "delta_tau" else check_field(a.name, v) for v in a.values]
              for a in spec.axes]
    table = vars(spec.base) | {"delta_tau": 0.0}
    if spec.observable == "pulses_needed":
        size = math.prod(len(a.values) for a in spec.axes)
        values, open_cells = [math.nan] * size, range(size)
    else:
        values, open_cells = _closed_form_grid(spec, table, checks)
    errors = {}
    names = [axis.name for axis in spec.axes]
    field_order = slice(None, None, 1 if sorted(names, key=_AXIS_NAMES.index) == names else -1)
    for k in open_cells:
        index = divmod(k, len(spec.axes[1].values)) if len(spec.axes) == 2 else (k,)
        error = next(filter(None, [texts[i] for texts, i in zip(checks, index)][field_order]), None)
        if error is not None:
            errors[k] = error
            continue
        p = table | {a.name: a.values[i] for a, i in zip(spec.axes, index)}
        try:
            values[k] = _evaluate_cell(spec, p)
        except QuadkickError as exc:
            errors[k] = str(exc)
    return values, errors
