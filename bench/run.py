"""pathfinder-ops benchmark.

Run from the repository root:

    python3 bench/run.py --workload chain-grid --seed 1 --seconds 25 --trace 0

The package is imported from ./src and driven in this one process with a
closed loop: one call at a time, no threads. Subcommands go through
`pathfinder_ops.cli.main([...])` with `--out`, so the atomic-write path runs;
analyses without a subcommand are called as library functions. The run
repeats the workload's list of calls (a pass) until --seconds have passed,
checks every output against an independent reference, and prints a table of
metrics followed, on the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are scaled to a nominal host speed (see CAL_NOMINAL_S below).
With --trace 0 the metrics are the end-to-end ones, measured untraced. With
--trace 1 untraced and traced passes alternate; the metrics are the per-layer
ones from the traced passes plus the tracing overhead, and the spans are
written to .bench_traces/. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import checks as C
import tracing
import workloads as W

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 12
SETUP_CAL_REPS = 5
IMPORTTIME_REPS = 3
MIN_PASSES = 3

# Host-speed calibration. The shared host runs the same code at speeds up to
# about 1.5x apart, switching over seconds to minutes, so raw wall times of
# two runs of the same code can differ by more than any useful bound. Each
# call's time is therefore scaled by CAL_NOMINAL_S over the mean time of a
# calibration kernel run just before and just after it: a fixed mix of
# interpreter, memory and floating-point work that does not touch the
# package. The table also prints the median kernel time of the run.
CAL_NOMINAL_S = 0.003
CAL_DATA = np.random.default_rng(0).random(50_000)
CAL_MATRIX = np.random.default_rng(1).random((64, 64))
CAL_MATRIX += CAL_MATRIX.T

END_TO_END = [
    ("setup_s", "s"), ("steady_s", "s"), ("worst_s", "s"), ("gradmap_s", "s"), ("classify_s", "s"),
    ("simulate_s", "s"), ("library_s", "s"), ("pass_s", "s"), ("call_p50_ms", "ms"),
    ("call_p95_ms", "ms"), ("peak_rss_mib", "MiB"), ("failed_frac", "fraction"),
]


def load_package():
    """Import pathfinder_ops from ./src, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "pathfinder_ops", "__init__.py")):
        sys.exit("bench: src/pathfinder_ops not found; run from the repository root")
    os.environ.pop("PATHFINDER_THREADS", None)
    sys.path.insert(0, SRC)
    from pathfinder_ops import agents, chain, cli, ntml, simulate, worstcase

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported pathfinder_ops from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(agents=agents, chain=chain, cli=cli, ntml=ntml, simulate=simulate, worstcase=worstcase)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PATHFINDER_THREADS", None)
    return env


def calibrate() -> float:
    """Seconds for one run of the calibration kernel."""
    t0 = perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i
    np.sort(CAL_DATA)
    for _ in range(3):
        np.linalg.eigvalsh(CAL_MATRIX)
    return perf_counter() - t0


def scale_between(before: float, after: float) -> float:
    return CAL_NOMINAL_S / ((before + after) / 2)


def measure_setup() -> tuple[float, float]:
    """(wall time, scale) of `python -m pathfinder_ops --version` in a fresh
    interpreter. A set-up sample is long and unlike the kernel, so its scale
    comes from the median of several kernel runs before and after it."""
    kernel = [calibrate() for _ in range(SETUP_CAL_REPS)]
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pathfinder_ops", "--version"], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("pathfinder-ops "):
        sys.exit(f"bench: --version failed ({proc.returncode}): {proc.stderr[-300:]}")
    kernel += [calibrate() for _ in range(SETUP_CAL_REPS)]
    return elapsed, CAL_NOMINAL_S / statistics.median(kernel)


@dataclass
class Done:
    """One executed call: wall seconds, the host-speed scale measured
    around it, and the verdict of its check. `known` marks a failure that
    the check recognised as a known defect."""

    call: W.Call
    seconds: float
    scale: float
    cal: float
    outcome: W.Outcome
    reason: str | None = None
    stats: object = None
    known: bool = False


def execute(call: W.Call, pkg, tracer) -> tuple[W.Outcome, float]:
    """Run one call; SystemExit and every exception are caught, so one bad
    call cannot stop the run."""

    def invoke(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    o = W.Outcome()
    if call.argv is not None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            try:
                o.code = invoke("cli", pkg.cli.main, call.argv)
            except SystemExit as exc:
                o.code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:
                o.error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        o.stderr = err.getvalue()
    else:
        t0 = perf_counter()
        try:
            o.value = invoke("library", call.fn)
        except Exception as exc:
            o.error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    return o, elapsed


def fingerprint(call: W.Call, o: W.Outcome) -> str:
    h = hashlib.sha256(repr((call.name, o.code, o.stderr, o.error)).encode())
    for path in call.outputs:
        try:
            with open(path, "rb") as handle:
                h.update(handle.read())
        except OSError:
            h.update(b"<missing>")
    if call.fn is not None and o.error is None:
        h.update(pickle.dumps(o.value, protocol=5))
    return h.hexdigest()


def judge(done: Done, cache: dict) -> None:
    """Set the verdict; identical outputs reuse the verdict already reached
    for them. The return value of a library call is dropped once judged."""
    key = fingerprint(done.call, done.outcome)
    if key not in cache:
        try:
            cache[key] = (None, done.call.check(done.outcome), False)
        except C.CheckFailed as exc:
            cache[key] = (str(exc), exc.stats, isinstance(exc, C.KnownDefect))
        except Exception as exc:  # malformed output the check could not parse
            cache[key] = (f"unreadable output: {type(exc).__name__}: {exc}", None, False)
    done.reason, done.stats, done.known = cache[key]
    done.outcome.value = None


def run_pass(calls, pkg, tracer, cache) -> dict:
    """Run every call once, the calibration kernel between calls, then
    check the outputs. The process's peak memory is read before the checks,
    which parse whole outputs, so it is the program's peak."""
    done = []
    if tracer:
        first_span = len(tracer.spans)
        tracer.install(pkg)
    try:
        started = perf_counter()
        cal = calibrate()
        for call in calls:
            outcome, elapsed = execute(call, pkg, tracer)
            before, cal = cal, calibrate()
            done.append(Done(call, elapsed, scale_between(before, cal), (before + cal) / 2, outcome))
    finally:
        if tracer:
            tracer.uninstall()
    calls_s = perf_counter() - started
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for d in done:
        judge(d, cache)
    record = {"traced": tracer is not None, "calls": done, "calls_s": calls_s, "peak_rss_mib": peak_rss_mib}
    if tracer:
        record["spans"] = tracer.spans[first_span:]
    return record


def per_pass(passes, select) -> list[float]:
    return [sum(d.seconds * d.scale for d in p["calls"] if select(d.call)) for p in passes]


def per_call(passes, select) -> tuple[float, int]:
    """Sum over the selected calls of each call's median time, and the
    number of samples: one pass's worth of those calls, each call timed by
    the median of its runs."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for d in p["calls"]:
            if select(d.call):
                times.setdefault(d.call.name, []).append(d.seconds * d.scale)
    return sum(map(statistics.median, times.values())), sum(map(len, times.values()))


def end_to_end(passes, setup) -> dict[str, tuple[float, int]]:
    """Metric -> (value, samples). Timings are scaled to the nominal host
    speed."""
    out = {"setup_s": (statistics.median(t * k for t, k in setup), len(setup))}
    for kind in W.KINDS:
        out[f"{kind}_s"] = per_call(passes, lambda c, kind=kind: c.kind == kind and c.role != "contract")
    out["library_s"] = per_call(passes, lambda c: c.kind == "library")
    total = per_pass(passes, lambda c: True)
    out["pass_s"] = (statistics.median(total), len(total))
    latencies = [d.seconds * d.scale * 1e3 for p in passes for d in p["calls"] if d.call.argv is not None]
    out["call_p50_ms"] = (statistics.median(latencies), len(latencies))
    out["call_p95_ms"] = (statistics.quantiles(latencies, n=20)[18], len(latencies))
    # ru_maxrss never falls and every pass repeats the same calls, so the
    # first pass's reading is the program's peak.
    out["peak_rss_mib"] = (passes[0]["peak_rss_mib"], 1)
    calls = [d for p in passes for d in p["calls"]]
    out["failed_frac"] = (sum(d.reason is not None for d in calls) / len(calls), len(calls))
    return out


def layers(traced, untraced, import_s) -> dict[str, tuple[float, int]]:
    rows = []
    for p in traced:
        cli_roots = {s[0] for s in p["spans"] if s[1] is None and s[3] == "cli"}
        agree = [d.stats for d in p["calls"] if d.call.kind == "classify" and d.call.role != "contract" and d.stats]
        row = tracing.pass_layers(p["spans"], cli_roots, (sum(a for a, _ in agree), sum(n for _, n in agree)))
        row["cli.error_calls"] = sum(
            1 for d in p["calls"] if d.call.argv is not None and (d.outcome.error or d.outcome.code != 0))
        # Layer times are scaled by the pass's time-weighted host-speed scale.
        scale = sum(d.seconds * d.scale for d in p["calls"]) / sum(d.seconds for d in p["calls"])
        for name, unit, _ in tracing.LAYER_METRICS:
            row[name] *= {"s": scale, "1/s": 1 / scale}.get(unit, 1.0)
        rows.append(row)
    out = {name: (statistics.median(r[name] for r in rows), len(rows)) for name, _, _ in tracing.LAYER_METRICS}
    out.update({name: (value, IMPORTTIME_REPS) for name, value in import_s.items()})
    overhead = (statistics.median(per_pass(traced, lambda c: True))
                / statistics.median(per_pass(untraced, lambda c: True)) - 1)
    out["trace.overhead_frac"] = (overhead, min(len(traced), len(untraced)))
    return out


def units() -> dict[str, str]:
    table = dict(END_TO_END)
    table.update({name: unit for name, unit, _ in tracing.LAYER_METRICS})
    table.update({f"setup.import_s.{m}": "s" for m in tracing.IMPORT_MODULES})
    table["trace.overhead_frac"] = "fraction"
    return table


def report(args, passes, metrics, digests) -> dict:
    calls = [d for p in passes for d in p["calls"]]
    failures = collections.Counter((d.call.name, d.known, d.reason) for d in calls if d.reason is not None)
    unit = units()

    kernel_ms = statistics.median(d.cal for d in calls) * 1e3
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}"
          f" ({sum(p['traced'] for p in passes)} traced)  calls/pass {len(passes[0]['calls'])}"
          f"  kernel {kernel_ms:.4g} ms (nominal {CAL_NOMINAL_S * 1e3:g})")
    print(f"{'metric':<40} {'value':>14} {'unit':<9} {'samples':>7}")
    for name, (value, samples) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit[name]:<9} {samples:>7}")
    for (name, known, reason), count in sorted(failures.items()):
        print(f"failed [{'known defect' if known else 'UNEXPECTED'}] {name} x{count}: {reason}")
    for name, digest in digests.items():
        print(f"sha256 {name} {digest}")
    return {
        "correct": all(known for _, known, _ in failures),
        "attempted": len(calls),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit[name]} for name, (value, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            before = calibrate()
            import_s = tracing.import_times(child_env(), ROOT, IMPORTTIME_REPS)
            scale = scale_between(before, calibrate())
            import_s = {name: t * scale for name, t in import_s.items()}
        calls = W.build(args.workload, work, args.seed, pkg)
        cache: dict = {}
        for call in W.warmup(os.path.join(work, "warmup"), args.seed + 1, pkg):
            execute(call, pkg, None)

        # Set-up samples (untraced runs only) are spread over the run, so
        # that they meet the same host speeds as the passes.
        tracer = tracing.Tracer() if args.trace else None
        passes, setup = [], []
        setup_reps = 0 if args.trace else SETUP_REPS
        start = perf_counter()
        deadline = start + args.seconds
        while True:
            traced = args.trace and len(passes) % 2 == 1
            gc.collect()
            passes.append(run_pass(calls, pkg, tracer if traced else None, cache))
            due = math.ceil(setup_reps * (perf_counter() - start) / args.seconds)
            while len(setup) < min(due, setup_reps):
                setup.append(measure_setup())
            untraced_n = sum(not p["traced"] for p in passes)
            enough = untraced_n >= MIN_PASSES and (not args.trace or len(passes) - untraced_n >= MIN_PASSES)
            setup_left = (setup_reps - len(setup)) * (statistics.median(t for t, _ in setup) if setup else 1.0)
            # Stop when the next pass and the set-up samples still due would
            # likely end past the deadline. A pass's checks mostly hit the
            # verdict cache, so only its calls are counted.
            if enough and perf_counter() + passes[-1]["calls_s"] + setup_left >= deadline:
                break
        while len(setup) < setup_reps:
            setup.append(measure_setup())

        digests = {}
        for call in calls:
            if call.role == "main" and call.outputs and all(map(os.path.exists, call.outputs)):
                h = hashlib.sha256()
                for path in call.outputs:
                    with open(path, "rb") as handle:
                        h.update(handle.read())
                digests[call.name] = h.hexdigest()[:16]

        untraced = [p for p in passes if not p["traced"]]
        if args.trace:
            metrics = layers([p for p in passes if p["traced"]], untraced, import_s)
            os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
            tracer.write(os.path.join(ROOT, ".bench_traces", f"{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = end_to_end(untraced, setup)
        result = report(args, passes, metrics, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
