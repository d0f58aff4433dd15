#!/usr/bin/env python3
"""Benchmark of shogi-frieze: one command, one workload, one process with
one thread doing the work.

    python3 benchmark/run.py --workload cli-analyze --seed 1 --seconds 25 \
        --trace 0

Run from the repository root.  The package is imported from `src/`.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones (setup_s, wall_s, op_p50_ms, op_p95_ms, peak_rss_mb); with `--trace 1`
they are the per-layer ones, and the full span table is also written to
`.bench_out/`.  Times are scaled to a reference speed (see REFERENCE_S).
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-analyze", "search", "long-period")
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170

# On a shared machine the processor's speed can drift by up to 2x in phases
# of seconds.  A fixed piece of pure-Python work, timed every
# REFERENCE_EVERY_S of a pass by a timer signal (so also inside a long
# operation), measures that speed, and every time is reported at the speed
# at which the reference takes REFERENCE_S (about its time on the quiet
# 2-vCPU machine of the README's figures).  A change to the program moves the
# operations' times, not the reference's.
REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.1


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"),
                    default="main", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    sys.path.insert(0, str(SRC))
    import shogi_frieze
    if Path(shogi_frieze.__file__).resolve().parent != SRC / "shogi_frieze":
        raise SystemExit(f"imported shogi_frieze from {shogi_frieze.__file__}, "
                         f"not from {SRC}")
    return shogi_frieze


# ---------------------------------------------------------------------------
# Roles run in child interpreters

def role_setup(args) -> int:
    """Import the package and load the workload's inputs, then say so."""
    _import_package()
    from workloads import WORKLOADS as classes
    classes[args.workload](args.seed, Path(args.work))
    print("ready", flush=True)
    return 0


def _percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def _reference_work() -> int:
    """Tuples, a dict and integer arithmetic, like the engine's inner loops."""
    d: dict = {}
    for i in range(4000):
        c = (i % 97 - 48, i // 97)
        d[c] = d.get(c, 0) + c[0] * c[1]
    return len(d)


def _reference() -> float:
    """Median of three timings of the reference work."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Speed:
    """Samples of the reference during one pass: one at `start`, one at
    `stop`, and one from a SIGALRM handler every REFERENCE_EVERY_S between
    them.  The handler runs in the main thread, between bytecodes."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # start, end, ref
        self.busy = False

    def sample(self, *_):
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        ref = _reference()
        self.marks.append((t0, time.perf_counter(), ref))
        self.busy = False

    def start(self):
        self.marks = []
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S,
                         REFERENCE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, a: float, b: float) -> float:
        """The time from a to b at the reference speed, leaving out the
        samples: each stretch between two samples is scaled by the mean of
        their two reference times."""
        total = 0.0
        for (_, e0, r0), (s1, _, r1) in zip(self.marks, self.marks[1:]):
            lo, hi = max(a, e0), min(b, s1)
            if hi > lo:
                total += (hi - lo) * 2 * REFERENCE_S / (r0 + r1)
        return total


def _fingerprint(value):
    """What later passes must reproduce: the hash of the output where it
    has one (so large outputs need not stay alive), else the output."""
    try:
        return hash(value)
    except TypeError:
        return value


def role_worker(args) -> int:
    """Timed passes, then one untimed pass whose outputs are checked;
    prints one JSON line."""
    _import_package()
    import tracing
    from checks import CheckError, KnownFault
    from workloads import WORKLOADS as classes

    tracer = tracing.Tracer()
    speed = Speed()
    workload = classes[args.workload](args.seed, Path(args.work))
    ops = workload.ops()

    prints: dict[str, object] = {}
    differs: set[str] = set()
    latencies: list[float] = []
    walls = {False: [], True: []}
    setups: list[float] = []
    elapsed = 0.0
    while True:
        # A traced run alternates untraced and traced passes, so both meet
        # the same machine states and their difference is the overhead.
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if args.trace:
            tracer.enable(traced)
        gc.collect()
        t_pass = time.perf_counter()
        mark = tracer.mark()
        spans = []
        speed.start()
        for name, op in ops:
            t0 = time.perf_counter()
            result = op()
            spans.append((t0, time.perf_counter()))
            fp = _fingerprint(result)
            if prints.setdefault(name, fp) != fp:
                differs.add(name)
            del result
        speed.stop()
        times = [speed.scaled(a, b) for a, b in spans]
        latencies.extend(times)
        walls[traced].append(sum(times))
        if traced:  # layer times at the reference speed
            tracer.rescale(mark, sum(times) / sum(b - a for a, b in spans))
        elapsed += time.perf_counter() - t_pass
        if not args.trace:
            # Set-up runs are spread over the run, between passes and
            # outside every timing, so they meet the same machine states.
            while len(setups) < SETUP_REPEATS * min(1.0, elapsed / args.seconds):
                before = _reference()
                dt = _time_setup(args)
                setups.append(dt * 2 * REFERENCE_S / (before + _reference()))
        if elapsed >= args.seconds and (not args.trace or walls[True]):
            break
    if args.trace:
        tracer.enable(False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = len(walls[False]) + len(walls[True])

    # Every pass runs the same operations, and an operation that fails its
    # check on the untimed pass counts as failed in every pass.  One that
    # fails as a known fault predicts is failed; any other failure is wrong.
    wrong = {name: "output changed between passes" for name in differs}
    known: dict[str, str] = {}
    for name, op in ops:
        out = op()
        if _fingerprint(out) != prints[name]:
            wrong[name] = "output changed between passes"
            continue
        try:
            workload.check(name, out)
        except KnownFault as exc:
            known[name] = str(exc)
        except CheckError as exc:
            wrong[name] = str(exc)
    for name, why in sorted(known.items()):
        print(f"known fault {name}: {why}", file=sys.stderr)
    for name, why in sorted(wrong.items()):
        print(f"WRONG {name}: {why}", file=sys.stderr)
    attempted = passes * len(ops)
    failed = passes * len(set(wrong) | set(known))
    print(f"failed {len(set(wrong) | set(known))} of {len(ops)} operations "
          f"in each of {passes} passes", file=sys.stderr)
    if args.trace:
        layer = tracer.metrics(len(walls[True]))
        untraced = statistics.median(walls[False])
        traced = statistics.median(walls[True])
        layer["trace.overhead_s"] = traced - untraced
        layer["trace.overhead_ratio"] = (traced - untraced) / untraced
        units = dict(tracing.PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "untraced_passes": walls[False],
                        "traced_passes": walls[True],
                        "absent": tracer.absent, "metrics": layer,
                        "spans": tracer.table(len(walls[True]))},
                       indent=1) + "\n", "utf-8")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * _percentile(latencies, 50),
                          "unit": "ms"},
            "op_p95_ms": {"value": 1e3 * _percentile(latencies, 95),
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


# ---------------------------------------------------------------------------
# The command the user runs

def _child(args, role: str, work: Path) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]


def _time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its `ready` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(_child(args, "setup", Path(args.work)), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up run failed")
    return elapsed


def main(argv=None) -> int:
    args = _args(argv)
    if args.role == "setup":
        return role_setup(args)
    if args.role == "worker":
        return role_worker(args)

    if not (SRC / "shogi_frieze" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    import inputs
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs.write_inputs(args.workload, args.seed, work)
        args.work = str(work)
        _time_setup(args)  # fills bytecode caches; not counted
        proc = subprocess.run(_child(args, "worker", work), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print("workload run failed", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
