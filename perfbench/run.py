"""Closed-loop benchmark of the quadkick CLI: one client, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload readout|sweep|simulate --seed N \
        --seconds S --trace 0|1

The benchmark calls ``quadkick.cli.main(argv)`` in-process on seed-generated
inputs, checks every output against the benchmark's own reference
(``reference.py``), and prints a metric table followed by one JSON line.

--trace 0  runs whole blocks of the workload's op mix until S seconds have
           passed and reports the end-to-end metrics, its times scaled to a
           reference host speed (``hostspeed.py``).
--trace 1  runs each op of a fixed op list twice, untraced and then with
           spans around the calls into each module (``spans.py``), and
           reports the per-layer metrics and the tracing overhead.

Each run writes a record (machine, seed, class mix, all metrics) and, when
traced, its spans under ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_LAUNCHES = 21
TAIL_BEYOND = 10        # samples the tail percentile must leave above it


def launcher():
    """A function timing one fresh `python -m quadkick constants` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "quadkick", "constants"]

    def launch() -> float:
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith("key,value\n"):
            raise RuntimeError(f"`{' '.join(cmd[1:])}` failed: {proc.stderr.strip()}")
        return elapsed

    return launch


class Runner:
    """Executes ops, checks them, and keeps per-op records."""

    def __init__(self, workload, main):
        self.w = workload
        self.main = main
        self.digests = {}       # argv -> sha256 of the first output it produced
        self.class_counts = {}
        self.attempted = 0
        self.failures = []
        self.bytes_out = 0

    def execute(self, op, call=None) -> float:
        if os.path.exists(op.out):
            os.remove(op.out)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = (call or self.main)(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            elapsed = perf_counter() - t0
        self.attempted += 1
        self.class_counts[op.cls] = self.class_counts.get(op.cls, 0) + 1
        reason = self.verify(op, rc, err.getvalue())
        if reason:
            self.failures.append(f"{op.cls}: {reason} [{' '.join(op.argv)[:300]}]")
        return elapsed

    def verify(self, op, rc, stderr: str) -> str | None:
        if "Traceback" in stderr:
            return "traceback: " + stderr.strip().splitlines()[-1]
        if rc != op.exit_code:
            return f"exit code {rc}, expected {op.exit_code}: {stderr.strip()[:200]}"
        if op.exit_code != 0:
            if os.path.exists(op.out) or not stderr.startswith("error:"):
                return "rejected input must write no output and report an error"
            return None
        with open(op.out, "rb") as fh:
            data = fh.read()
        self.bytes_out += len(data)
        digest = hashlib.sha256(data).hexdigest()
        key = hashlib.sha256("\0".join(op.argv).encode()).digest()
        if self.digests.setdefault(key, digest) != digest:
            return "output differs from an earlier run of the same input"
        try:
            return self.w.check(op, data.decode("utf-8"))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples above it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n - 1)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def timing_metrics(lat: list[float], launches: list[float]) -> dict:
    tail_s, _, _ = tail(lat)
    return {
        "throughput_ops_s": (len(lat) / sum(lat), "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(launches), "s"),
    }


def end_to_end(runner: Runner, seconds: float, launch) -> tuple[dict, dict]:
    """Whole blocks until `seconds` have passed.  The set-up launches are
    spread evenly over the same period, between ops, so they meet the same
    phases of a shared host as the ops do.  Every time is scaled to the
    reference host speed (``hostspeed.py``); the raw times go to the record."""
    from hostspeed import HostSpeed, kernel

    w = runner.w
    kernel()        # first call pays numpy's lazy set-up
    speed = HostSpeed()
    t0 = perf_counter()
    blocks = 0
    lat, launches = [], []      # (seconds, host-speed mark)

    def timed(fn, *args):
        speed.sample_if_due()
        return fn(*args), speed.mark()

    while blocks == 0 or perf_counter() - t0 < seconds:
        for op in w.next_block():
            lat.append(timed(runner.execute, op))
            due = len(launches) * seconds / SETUP_LAUNCHES
            if len(launches) < SETUP_LAUNCHES and perf_counter() - t0 >= due:
                launches.append(timed(launch))
        blocks += 1
    while len(launches) < SETUP_LAUNCHES:
        launches.append(timed(launch))
    speed.finish()
    scale = lambda xs: [speed.scaled(s, mark) for s, mark in xs]
    metrics = timing_metrics(scale(lat), scale(launches))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss_mb, "MiB")
    raw = timing_metrics([s for s, _ in lat], [s for s, _ in launches])
    _, pct, beyond = tail([s for s, _ in lat])
    info = {"blocks": blocks, "ops": len(lat), "wall_s": perf_counter() - t0,
            "tail_percentile": pct, "tail_samples_beyond": beyond,
            "host_speed": speed.describe(),
            "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}}
    return metrics, info


def traced(runner: Runner, spans_path: str) -> tuple[dict, dict]:
    """Run each op of a fixed list untraced, then traced, op by op, so the
    host's slow and fast phases fall on both sides of the overhead ratio."""
    import spans

    w = runner.w
    ops = [op for _ in range(w.trace_blocks) for op in w.next_block()]
    tracer = spans.Tracer()
    main = runner.main
    traced_main = lambda argv: tracer.call("cli.main", main, (argv,), {})
    plain = timed = 0.0
    bytes_out = 0
    for op in ops:
        plain += runner.execute(op)
        before = runner.bytes_out
        tracer.install()
        try:
            timed += runner.execute(op, traced_main)
        finally:
            tracer.uninstall()
        bytes_out += runner.bytes_out - before
    tracer.dump(spans_path)
    metrics = spans.per_layer_metrics(tracer, bytes_out, timed / plain - 1.0)
    info = {"ops": len(ops), "untraced_s": plain, "traced_s": timed, "absent": tracer.absent,
            "spans": len(tracer.spans), "leaf_groups": len(tracer.leaves)}
    return metrics, info


def machine() -> dict:
    import numpy

    blas = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads_env": blas,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadkick", "__init__.py")):
        print(f"error: no quadkick sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from quadkick import cli

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(RUN_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUN_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = perf_counter()
        launch = launcher()
        launch()        # also writes the bytecode cache, so it is not counted
        w = WORKLOADS[args.workload](args.seed, workdir)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            w.setup(cli.main)
        runner = Runner(w, cli.main)
        warmup = w.warmup()
        for op in warmup:
            runner.execute(op)
        runner.class_counts = {}
        setup_wall = perf_counter() - t0
        if args.trace:
            metrics, info = traced(runner, os.path.join(RUN_DIR, f"{tag}.spans.jsonl"))
        else:
            metrics, info = end_to_end(runner, args.seconds, launch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = runner.failures
    attempted, failed = runner.attempted, len(failures)
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        **w.describe(), "class_counts": runner.class_counts,
        "warmup_ops": len(warmup),
        "setup_wall_s": setup_wall, "setup_launches": SETUP_LAUNCHES,
        "total_wall_s": perf_counter() - t0,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures[:20], **info, "metrics": as_json,
    }
    with open(os.path.join(RUN_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={attempted}")
    if "tail_percentile" in info:
        print(f"latency_tail_ms is p{info['tail_percentile']:.2f} "
              f"({info['tail_samples_beyond']} of {info['ops']} samples beyond it)")
    for name, (value, unit) in [*metrics.items(), ("fail_frac", (failed / attempted, "fraction"))]:
        print(f"  {name:38s} {value:>16.6g} {unit}")
    if "raw_metrics" in info:
        host = info["host_speed"]
        print(f"times above are scaled to the reference host speed "
              f"(kernel {host['ref_s'] * 1e3:g} ms; here median {host['median_s'] * 1e3:.3g} ms "
              f"over {host['samples']} samples); unscaled:")
        for name, m in info["raw_metrics"].items():
            print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": as_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
