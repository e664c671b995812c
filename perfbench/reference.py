"""The benchmark's own reference physics and output checks.

Nothing here imports quadkick: every expected value is recomputed from the
model's formulas (README "Conventions") with plain math and numpy, so a
wrong answer from the program is caught no matter which layer produced it.
Each ``check_*`` returns None when the output is correct and a one-line
reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

HBAR = 1.054571817e-34
K_BOLTZMANN = 1.380649e-23
THRESHOLD = 0.5        # squeezing target used by `sweep --observable pulses_needed`
MAX_PULSES = 64        # the planner's default pulse budget
DET_FLOOR = 0.25 - 1e-9

# Readout tolerances.  The probe shifts the intensity by (2g/kappa)·x², a
# relative change of ~1e-11 at the reference coupling, so double round-off in
# the RK4 trace alone moves the inferred x² by a few percent of a small
# variance.  Errors are therefore judged on the relative intensity.
READOUT_INTENSITY_FLOOR = 1e-13
READOUT_RTOL = 1e-4
CLOSED_FORM_RTOL = 1e-9
FOLD_TOL = 1e-9        # on the covariance, relative to its largest entry

DEFAULTS = {
    "g": 1e-4, "omega_m": 1e6, "n_p": 1e11, "kappa": 1e7, "gamma": 0.1,
    "T": 1e-4, "mass": 1e-12, "L": 0.067, "lambda": 532e-9, "R": 0.4,
}


# --- physics -----------------------------------------------------------------

def occupancy(T: float, omega_m: float) -> float:
    """Bose occupancy 1/(e^{ħω/k_BT} - 1), 0 at T = 0."""
    if T == 0.0:
        return 0.0
    x = HBAR * omega_m / (K_BOLTZMANN * T)
    return math.exp(-x) / -math.expm1(-x)


def params_valid(p: dict) -> bool:
    """The physical domain a parameter set must satisfy."""
    return (p["g"] >= 0 and p["omega_m"] > 0 and p["n_p"] >= 0 and p["kappa"] > 0
            and p["gamma"] >= 0 and p["T"] >= 0)


def kick_map(g: float, n_p: float, omega_m: float) -> np.ndarray:
    """Phase-space map of an optimal-duration kick at g̃ = 2·g·n_p + ω_m."""
    g_tilde = 2.0 * g * n_p + omega_m
    t = math.pi / (2.0 * math.sqrt(g_tilde * omega_m))
    theta = math.sqrt(g_tilde * omega_m) * t
    c, s = math.cos(theta), math.sin(theta)
    up = math.sqrt(g_tilde / omega_m)
    return np.array([[c, -up * s], [s / up, c]])


def free_map(omega_m: float, tau: float) -> np.ndarray:
    c, s = math.cos(omega_m * tau), math.sin(omega_m * tau)
    return np.array([[c, -s], [s, c]])


def relax(cov: np.ndarray, gamma: float, tau: float, n_env: float) -> np.ndarray:
    """Thermal contact: cov -> e^{-γτ}·cov + (1 - e^{-γτ})·(n_env + 1/2)·I."""
    return math.exp(-gamma * tau) * cov - math.expm1(-gamma * tau) * (n_env + 0.5) * np.eye(2)


def fold(p: dict, segments) -> list[np.ndarray]:
    """Covariance after each segment of a thermal start, initial state first.

    ``segments`` holds ("kick", n_p or None), ("free", s) or ("diss", s),
    with durations already resolved.
    """
    n_bar = occupancy(p["T"], p["omega_m"])
    cov = (n_bar + 0.5) * np.eye(2)
    out = [cov]
    for kind, value in segments:
        if kind == "kick":
            m = kick_map(p["g"], p["n_p"] if value is None else value, p["omega_m"])
            cov = m @ cov @ m.T
        elif kind == "free":
            m = free_map(p["omega_m"], value)
            cov = m @ cov @ m.T
        else:
            cov = relax(cov, p["gamma"], value, n_bar)
        out.append(cov)
    return out


def moments(cov: np.ndarray) -> tuple[float, float, float]:
    """(var_p, var_x, cross) of a covariance in (p, x) ordering."""
    return float(cov[0, 0]), float(cov[1, 1]), 0.5 * float(cov[0, 1] + cov[1, 0])


def two_pulse(p: dict, delta_tau: float) -> tuple[float, float]:
    """(var_p, var_x) after kick / free(quarter period + delta_tau) / kick."""
    w = p["omega_m"]
    ratio = (2.0 * p["g"] * p["n_p"] + w) / w
    tau = math.pi / (2.0 * w) + delta_tau
    c2, s2 = math.cos(w * tau) ** 2, math.sin(w * tau) ** 2
    v0 = occupancy(p["T"], w) + 0.5
    return (c2 + ratio**2 * s2) * v0, (c2 + s2 / ratio**2) * v0


def decoherence(p: dict) -> float:
    """Variance a half-period thermal contact injects."""
    w = p["omega_m"]
    return -math.expm1(-p["gamma"] * math.pi / w) * (occupancy(p["T"], w) + 0.5)


def pulses_needed(cells: list[dict], dissipation: bool) -> tuple[np.ndarray, np.ndarray]:
    """Pulse counts of the canonical kick / free(T/4) [/ diss] protocol.

    One numpy 2×2 fold per cell, run for all cells at once.  Returns the
    range (low, high) of counts a correct program may report: a cell whose
    variance lands within round-off of the threshold may go either way.
    """
    n = len(cells)
    w = np.array([c["omega_m"] for c in cells])
    g_tilde = 2.0 * np.array([c["g"] for c in cells]) * np.array([c["n_p"] for c in cells]) + w
    up = np.sqrt(g_tilde / w)
    theta = np.sqrt(g_tilde * w) * (np.pi / (2.0 * np.sqrt(g_tilde * w)))
    kick = np.empty((n, 2, 2))
    kick[:, 0, 0] = kick[:, 1, 1] = np.cos(theta)
    kick[:, 0, 1] = -up * np.sin(theta)
    kick[:, 1, 0] = np.sin(theta) / up
    phi = w * (np.pi / (2.0 * w))
    rot = np.empty((n, 2, 2))
    rot[:, 0, 0] = rot[:, 1, 1] = np.cos(phi)
    rot[:, 0, 1] = -np.sin(phi)
    rot[:, 1, 0] = np.sin(phi)
    n_bar = np.array([occupancy(c["T"], c["omega_m"]) for c in cells])
    gamma_tau = np.array([c["gamma"] for c in cells]) * np.pi / (2.0 * w)
    decay, added = np.exp(-gamma_tau), -np.expm1(-gamma_tau) * (n_bar + 0.5)
    cov = (n_bar + 0.5)[:, None, None] * np.eye(2)

    low = np.full(n, MAX_PULSES)
    high = np.full(n, MAX_PULSES)
    for pulse in range(1, MAX_PULSES + 1):
        if pulse > 1:
            cov = rot @ cov @ rot.transpose(0, 2, 1)
            if dissipation:
                cov = decay[:, None, None] * cov + added[:, None, None] * np.eye(2)
        cov = kick @ cov @ kick.transpose(0, 2, 1)
        var_x = cov[:, 1, 1]
        low[(low == MAX_PULSES) & (var_x < THRESHOLD * (1 + 1e-9))] = pulse
        high[(high == MAX_PULSES) & (var_x < THRESHOLD * (1 - 1e-9))] = pulse
    return low, high


def readout_expectation(var_p: float, var_x: float, cross: float, free: bool,
                        g: float, kappa: float, omega_m: float) -> dict:
    """Magnitudes the probe summary must report for a zero-mean state.

    The d.c. level is the time-averaged x²; the 2ω_m ripple is the x²
    oscillation amplitude, scaled by the intensity calibration and low-pass
    filtered by the cavity.  Signs are deliberately not checked.
    """
    if free:
        dc = 0.5 * (var_p + var_x)
        swing = math.hypot(0.5 * (var_x - var_p), cross)
    else:
        dc, swing = var_x, 0.0
    ripple = 2.0 * g / kappa * swing / math.sqrt(1.0 + (2.0 * omega_m / kappa) ** 2)
    return {"dc_shift": dc, "ripple_amplitude": ripple,
            "kappa_over_2omega": kappa / (2.0 * omega_m), "g": g, "kappa": kappa}


def readout_rows(kappa: float, omega_m: float) -> int:
    """Trace rows of the default probe grid: n_steps + 1."""
    dt = 1.0 / (20.0 * max(kappa, 2.0 * omega_m))
    span = 40.0 / kappa + 16 * math.pi / omega_m
    return max(1, math.ceil(span / dt - 1e-9)) + 1


# --- output parsing ----------------------------------------------------------

def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=CLOSED_FORM_RTOL, abs_tol=0.0)


# --- checks ------------------------------------------------------------------

def check_readout(text: str, fmt: str, exp: dict) -> str | None:
    if fmt == "json":
        payload = json.loads(text)
        summary, n_rows = payload["summary"], len(payload["trace"])
    else:
        head = text[: text.index("t,intensity,inferred_x2\n")]
        summary = {}
        for line in head.splitlines():
            key, _, value = line[2:].partition(" = ")
            summary[key] = float(value)
        n_rows = text.count("\n") - len(summary) - 1
    if n_rows != exp["rows"]:
        return f"trace has {n_rows} rows, expected {exp['rows']}"
    scale = 2.0 * exp["g"] / exp["kappa"]    # x² -> relative intensity
    for key in ("dc_shift", "ripple_amplitude"):
        got, want = float(summary[key]), exp[key]
        if key == "dc_shift":
            got, want = scale * got, scale * want
        if abs(got - want) > max(READOUT_INTENSITY_FLOOR, READOUT_RTOL * want):
            return f"{key}: got {summary[key]!r}, expected {exp[key]!r}"
    if not _close(float(summary["kappa_over_2omega"]), exp["kappa_over_2omega"]):
        return f"kappa_over_2omega: got {summary['kappa_over_2omega']!r}"
    return None


def sweep_cells(text: str, fmt: str) -> list[tuple[float | None, bool]]:
    """(value, is_error) per cell in output order."""
    if fmt == "json":
        return [(c["value"], c["error"] is not None) for c in json.loads(text)]
    header, rows = _csv_rows(text)
    n_axes = len(header) - 2
    out = []
    for r in rows:
        if r[n_axes] == "ERROR":
            out.append((None, True))
        else:
            out.append((float(r[n_axes]), r[n_axes + 1] != "ok"))
    return out


def check_sweep(text: str, fmt: str, spec: dict) -> str | None:
    """``spec`` holds the cells' parameter dicts, the observable and dissipation."""
    got = sweep_cells(text, fmt)
    cells = spec["cells"]
    if len(got) != len(cells):
        return f"{len(got)} cells, expected {len(cells)}"
    valid = [params_valid(c) for c in cells]
    obs = spec["observable"]
    if obs == "pulses_needed":
        ok_cells = [c for c, v in zip(cells, valid) if v]
        low, high = pulses_needed(ok_cells, spec["dissipation"]) if ok_cells else ((), ())
        bounds = iter(zip(low, high))
    for i, ((value, is_error), cell, ok) in enumerate(zip(got, cells, valid)):
        if is_error != (not ok):
            return f"cell {i}: error={is_error}, expected error={not ok}"
        if not ok:
            continue
        if obs == "pulses_needed":
            lo, hi = next(bounds)
            if not (value == int(value) and lo <= value <= hi):
                return f"cell {i}: {value!r} pulses, expected {lo}..{hi}"
            continue
        if obs == "decoherence_term":
            want = decoherence(cell)
        else:
            var_p, var_x = two_pulse(cell, cell.get("delta_tau", 0.0))
            want = var_x if obs == "var_x" else var_p
        if not _close(value, want):
            return f"cell {i}: {obs} = {value!r}, expected {want!r}"
    return None


def check_simulate(text: str, fmt: str, spec: dict) -> str | None:
    """``spec`` holds the config dict and the resolved segments."""
    if fmt == "json":
        rows = [(r["var_p"], r["var_x"], r["cross"], r["det_cov"]) for r in json.loads(text)]
    else:
        header, cells = _csv_rows(text)
        idx = [header.index(k) for k in ("var_p", "var_x", "cross", "det_cov")]
        rows = [tuple(float(r[i]) for i in idx) for r in cells]
    if len(rows) != len(spec["segments"]) + 1:
        return f"{len(rows)} rows, expected {len(spec['segments']) + 1}"
    for i, row in enumerate(rows):
        if not row[3] >= DET_FLOOR:
            return f"row {i}: det_cov = {row[3]!r} < 1/4"
    want = moments(fold(spec["params"], spec["segments"])[-1])
    scale = max(abs(v) for v in want)
    if any(abs(a - b) > FOLD_TOL * scale for a, b in zip(rows[-1][:3], want)):
        return f"final row {rows[-1][:3]!r}, expected {want!r}"
    return None
