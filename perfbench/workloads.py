"""Seeded inputs for the three benchmark workloads.

A workload is a fixed block of operation classes.  Each block is shuffled
and its parameters drawn from ``random.Random(seed)``, so a seed fixes every
argv, config file and set-up file, while the class mix of every whole block
is the same for all seeds.  The program under test sees only the generated
files and argv.
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from dataclasses import dataclass, field

import reference as ref

SWEEP_AXES = ("n_p", "g", "T", "omega_m", "gamma", "delta_tau")
# log-uniform physical ranges; delta_tau is drawn uniformly around zero
SWEEP_RANGES = {
    "n_p": (1e8, 1e12), "g": (1e-5, 1e-3), "T": (1e-6, 1e-2),
    "omega_m": (2e5, 5e6), "gamma": (1e-3, 1e2), "delta_tau": (-2e-8, 2e-8),
}
INVALID_SHARE = 0.05    # of the values of every sweep axis with a domain limit
MAX_VARIANCE = 1e3      # drawn schedules keep every variance below this


def fmt(x: float) -> str:
    return repr(float(x))


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@dataclass
class Op:
    """One CLI invocation with what its result must be."""

    cls: str
    argv: list[str]
    fmt: str = "csv"
    expect: dict = field(default_factory=dict)
    exit_code: int = 0

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


class Workload:
    """Fixed class mix per block; subclasses draw each class's inputs."""

    name = ""
    block: tuple[tuple[str, int], ...] = ()
    trace_blocks = 1           # whole blocks in the fixed op list of a traced run

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.dir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def write(self, name: str, text: str) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return self.path(name)

    def setup(self, cli_main) -> None:
        """Write the input files the ops refer to."""

    def next_block(self) -> list[Op]:
        return self._build([c for c, n in self.block for _ in range(n)])

    def warmup(self) -> list[Op]:
        """One op of every class, run before timing starts."""
        return self._build([c for c, _ in self.block])

    def _build(self, classes: list[str]) -> list[Op]:
        # repeats are drawn last so they can pick any op made before them
        block = [self.make(c) for c in sorted(classes, key=lambda c: c == "repeat")]
        self.rng.shuffle(block)
        return block

    def make(self, cls: str) -> Op:
        raise NotImplementedError

    def check(self, op: Op, text: str) -> str | None:
        raise NotImplementedError

    def describe(self) -> dict:
        """Class mix of a block, for the run record."""
        total = sum(n for _, n in self.block)
        return {"block_ops": total, "class_shares": {c: n / total for c, n in self.block}}


# --- readout -----------------------------------------------------------------

def squeezed_state(rng: random.Random) -> tuple[float, float, float]:
    """A rotated squeezed thermal state: det(cov) = v² >= 0.3."""
    v = log_uniform(rng, 0.55, 20.0)
    r = rng.uniform(0.0, 2.0)
    th = rng.uniform(0.0, math.pi)
    c, s = math.cos(th), math.sin(th)
    big, small = v * math.exp(2 * r), v * math.exp(-2 * r)
    return big * c * c + small * s * s, big * s * s + small * c * c, (big - small) * c * s


def draw_schedule(rng, params, n_segments, kick_np, free_s, diss_s):
    """Draw kick/free/diss tokens whose fold keeps every moment bounded.

    Returns (spec, resolved segments) for ``with_dissipation`` off; callers
    insert the dissipation segments themselves when it is on.
    """
    quarter = math.pi / (2.0 * params["omega_m"])
    while True:
        tokens, segs = [], []
        for _ in range(n_segments):
            kind = rng.choice(("kick", "kick", "free", "free", "diss"))
            bare = rng.random() < 0.3
            if kind == "kick":
                n_p = None if bare else kick_np(rng)
                tokens.append("kick" if bare else f"kick:{fmt(n_p)}")
                segs.append(("kick", n_p))
            else:
                s = quarter if bare else (free_s if kind == "free" else diss_s)(rng)
                tokens.append(kind if bare else f"{kind}:{fmt(s)}")
                segs.append((kind, s))
        covs = ref.fold(params, with_dissipation(segs, True))
        if all(max(c[0, 0], c[1, 1]) < MAX_VARIANCE for c in covs):
            return ";".join(tokens), segs


def with_dissipation(segs, on: bool):
    """The segment list `simulate --dissipation on` folds."""
    if not on:
        return list(segs)
    out = []
    for kind, value in segs:
        out.append((kind, value))
        if kind == "free":
            out.append(("diss", value))
    return out


class Readout(Workload):
    name = "readout"
    # Free-evolution probes hold the median.  At 4-7 blocks a run, the tail
    # percentile (10 ops beyond it) falls mid-way through the JSON ops: with
    # more of them it would sit near their slowest few and follow any brief
    # slow spell of a shared host; with fewer, on the JSON/free boundary.
    block = (("free", 14), ("snapshot", 3), ("json", 2), ("kappa1e8", 1))
    trace_blocks = 1
    n_sim_files = 8

    def setup(self, cli_main) -> None:
        self.k8_config = self.write("kappa1e8.cfg", "kappa = 1e8\n")
        self.sim_files = []
        params = dict(ref.DEFAULTS)
        for i in range(self.n_sim_files):
            diss = self.rng.random() < 0.5
            spec, segs = draw_schedule(
                self.rng, params, self.rng.randint(3, 10),
                kick_np=lambda r: log_uniform(r, 1e9, 1e11),
                free_s=lambda r: r.uniform(1e-7, 3e-6),
                diss_s=lambda r: log_uniform(r, 1e-6, 1e-1),
            )
            out_fmt = ("csv", "json")[i % 2]
            path = self.path(f"sim{i}.{out_fmt}")
            argv = ["simulate", f"--schedule={spec}", "--dissipation", "on" if diss else "off",
                    "--format", out_fmt, "--out", path]
            if cli_main(argv) != 0:
                raise RuntimeError(f"set-up simulate failed: {argv}")
            covs = ref.fold(params, with_dissipation(segs, diss))
            self.sim_files.append((path, [ref.moments(c) for c in covs]))

    def make(self, cls: str) -> Op:
        rng = self.rng
        free = cls != "snapshot"
        out_fmt = "json" if cls == "json" else "csv"
        kappa = 1e8 if cls == "kappa1e8" else 1e7
        argv = ["readout"]
        if rng.random() < 0.5:
            path, rows = self.sim_files[rng.randrange(len(self.sim_files))]
            row = rng.randrange(len(rows))
            argv.append(f"--from-simulation={path}:{row}")
            var_p, var_x, cross = rows[row]
        else:
            var_p, var_x, cross = squeezed_state(rng)
            argv += [f"--var-p={fmt(var_p)}", f"--var-x={fmt(var_x)}", f"--cross={fmt(cross)}"]
        if kappa != 1e7:
            argv += ["--config", self.k8_config]
        argv += ["--free-evolution", "on" if free else "off", "--format", out_fmt,
                 "--out", self.path(f"out.{out_fmt}")]
        expect = ref.readout_expectation(var_p, var_x, cross, free, ref.DEFAULTS["g"],
                                         kappa, ref.DEFAULTS["omega_m"])
        expect["rows"] = ref.readout_rows(kappa, ref.DEFAULTS["omega_m"])
        return Op(cls, argv, out_fmt, expect)

    def check(self, op: Op, text: str) -> str | None:
        return ref.check_readout(text, op.fmt, op.expect)


# --- sweep -------------------------------------------------------------------

class Sweep(Workload):
    name = "sweep"
    # closed-form ops hold the median; pulses_needed ops the tail and most time
    block = (("var_x", 2), ("var_p", 2), ("decoherence_term", 2), ("json", 1),
             ("pulses_needed", 2), ("pulses_needed_diss", 1))
    trace_blocks = 8
    closed_grid = 40
    pulses_grid = 8
    # Below n_p ~ 1e9 a kick stretches the variances by less than 5 %, so
    # nearly every pulses_needed cell spends the whole 64-pulse budget and
    # the class's work per op is steady.
    pulses_base_np = 5e7
    pulses_np_range = (1e6, 1e8)

    def describe(self) -> dict:
        return dict(super().describe(), invalid_axis_share=INVALID_SHARE,
                    closed_form_grid=self.closed_grid, pulses_grid=self.pulses_grid)

    def setup(self, cli_main) -> None:
        self.pulses_config = self.write("pulses.cfg", f"n_p = {fmt(self.pulses_base_np)}\n")

    def draw_axis(self, name: str, n: int, pulses: bool) -> list[float]:
        lo, hi = self.pulses_np_range if pulses and name == "n_p" else SWEEP_RANGES[name]
        if name == "delta_tau":
            return [self.rng.uniform(lo, hi) for _ in range(n)]
        values = [log_uniform(self.rng, lo, hi) for _ in range(n)]
        if not pulses:      # pulses_needed grids stay valid so their work per op is steady
            for i in self.rng.sample(range(n), round(INVALID_SHARE * n)):
                values[i] = -values[i]     # T < 0, omega_m < 0, ...
        return values

    def make(self, cls: str) -> Op:
        rng = self.rng
        pulses = cls.startswith("pulses_needed")
        if pulses:
            obs, n, dissipation = "pulses_needed", self.pulses_grid, cls.endswith("_diss")
        else:
            obs = rng.choice(("var_x", "var_p", "decoherence_term")) if cls == "json" else cls
            n, dissipation = self.closed_grid, rng.random() < 0.5
        base = dict(ref.DEFAULTS, n_p=self.pulses_base_np) if pulses else dict(ref.DEFAULTS)
        axes = [(name, self.draw_axis(name, n, pulses)) for name in rng.sample(SWEEP_AXES, 2)]
        cells = [dict(base, **{axes[0][0]: v1, axes[1][0]: v2})
                 for v1 in axes[0][1] for v2 in axes[1][1]]
        out_fmt = "json" if cls == "json" else "csv"
        argv = ["sweep"] + [f"--axis={name}={','.join(fmt(v) for v in vals)}" for name, vals in axes]
        if pulses:
            argv += ["--config", self.pulses_config]
        argv += ["--observable", obs, "--dissipation", "on" if dissipation else "off",
                 "--format", out_fmt, "--out", self.path(f"out.{out_fmt}")]
        return Op(cls, argv, out_fmt, {"cells": cells, "observable": obs, "dissipation": dissipation})

    def check(self, op: Op, text: str) -> str | None:
        return ref.check_sweep(text, op.fmt, op.expect)


# --- simulate ----------------------------------------------------------------

MALFORMED_TOKENS = ("kick:abc", "free:-1e-6", "diss:nan", "warp:1e-6", "kick:-5", "free:1e-6:2")


class Simulate(Workload):
    name = "simulate"
    # Short ops hold the median, the long JSON class the tail percentile.
    # A 30 s run has 25-35 blocks, so the tail (10 ops beyond it) falls
    # mid-way through the long ops: with more of them it would sit among
    # their slowest few, which single hiccups of a shared host set.
    block = (("short", 54), ("json", 8), ("long", 1), ("malformed", 4), ("repeat", 13))
    trace_blocks = 5
    n_configs = 16

    def setup(self, cli_main) -> None:
        self.configs = []
        rng = self.rng
        for i in range(self.n_configs):
            p = dict(ref.DEFAULTS)
            p["g"] = log_uniform(rng, 5e-5, 2e-4)
            p["omega_m"] = log_uniform(rng, 5e5, 2e6)
            p["T"] = log_uniform(rng, 1e-6, 3e-4)
            p["gamma"] = log_uniform(rng, 1.0, 1e3)
            # default kicks stretch the variances by 1 + 2·g·n_p/omega_m
            p["n_p"] = log_uniform(rng, 1e-3, 3e-2) * p["omega_m"] / (2 * p["g"])
            text = "".join(f"{k} = {fmt(p[k])}\n" for k in ("g", "omega_m", "T", "gamma", "n_p"))
            self.configs.append((self.write(f"sim{i}.cfg", text), p))
        self.recent: deque[Op] = deque(maxlen=64)    # ops a repeat may replay

    def draw(self, n_segments: int, out_fmt: str, diss: bool) -> Op:
        path, p = self.configs[self.rng.randrange(len(self.configs))]
        scale = p["omega_m"] / (2 * p["g"])
        spec, segs = draw_schedule(
            self.rng, p, n_segments,
            kick_np=lambda r: log_uniform(r, 1e-3, 3e-2) * scale,
            free_s=lambda r: r.uniform(0.0, 4.0 / p["omega_m"]),
            diss_s=lambda r: log_uniform(r, 1e-6, 1e-3),
        )
        argv = ["simulate", "--config", path, f"--schedule={spec}",
                "--dissipation", "on" if diss else "off", "--format", out_fmt,
                "--out", self.path(f"out.{out_fmt}")]
        return Op("", argv, out_fmt, {"params": p, "segments": with_dissipation(segs, diss)})

    def make(self, cls: str) -> Op:
        rng = self.rng
        if cls == "repeat":
            src = rng.choice(self.recent)
            return Op(cls, list(src.argv), src.fmt, src.expect)
        if cls == "long":
            op = self.draw(rng.randint(280, 300), "json", True)
        elif cls == "json":
            op = self.draw(rng.randint(100, 200), "json", rng.random() < 0.5)
        else:
            op = self.draw(rng.randint(100, 200), "csv", rng.random() < 0.5)
        op.cls = cls
        if cls != "malformed":
            self.recent.append(op)
        else:
            i = next(k for k, a in enumerate(op.argv) if a.startswith("--schedule="))
            tokens = op.argv[i][len("--schedule="):].split(";")
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(MALFORMED_TOKENS))
            op.argv[i] = "--schedule=" + ";".join(tokens)
            op.exit_code, op.expect = 2, {}
        return op

    def check(self, op: Op, text: str) -> str | None:
        return ref.check_simulate(text, op.fmt, op.expect)


WORKLOADS = {w.name: w for w in (Readout, Sweep, Simulate)}
