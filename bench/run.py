"""numrad benchmark: one command for the three workloads of bench/README.md.

    python3 bench/run.py --workload study-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload enclose-disk --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed with its unit; the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every operation is checked
by an independent oracle; any failed operation makes the exit code 1.

``--smoke`` shrinks every input to a tiny size.  Without ``--workload`` it runs
every workload in both modes as child processes and checks that each emits
exactly the metrics that BENCHMARK.json names.

Run from the root of a checkout: numrad is imported from ``src/`` next to
this directory, never from an installed copy.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the per-op CPU time then measures
# the work, not the thread pool.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"  # matrix files and CLI output of one run, removed at exit
SPANS = ROOT / ".bench_out"  # span dumps of traced runs

WORKLOAD_NAMES = ("study-mix", "enclose-large", "enclose-disk")

# setup_s: a fresh interpreter imports numrad and encloses one 2x2 matrix.
# One untimed spawn first warms the bytecode cache; the median of the rest
# is reported.  A spawn takes about 0.2 s, so 25 of them cost about 5 s.
SETUP_CODE = "import numrad; numrad.numerical_radius([[1.0, 2.0], [0.0, 1j]])"
SETUP_REPS = 25
SMOKE_SETUP_REPS = 1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_numrad():
    init = SRC / "numrad" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"numrad sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import numrad

    if pathlib.Path(numrad.__file__).resolve() != init.resolve():
        raise BenchError(f"imported numrad from {numrad.__file__}, not from {SRC}")
    return numrad


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(reps: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(reps + 1):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
        )
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr.decode(errors='replace')}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


class Runner:
    """Runs operations, times them and tallies oracle failures by label."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()

    def attempt(self, op, call):
        """Run one op through ``call`` and check it; returns (wall s, cpu s)."""
        op.prepare()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = call(op)
        except Exception as exc:  # a failed op is data; the run goes on
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if not self.failures[type(exc).__name__]:
                traceback.print_exc(file=sys.stderr)
            bad = [type(exc).__name__]
        else:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            bad = op.check(value)
        self.attempted += 1
        if bad:
            self.failed += 1
            self.failures.update(bad)
            print(f"op {op.slot} failed: {', '.join(bad)}", file=sys.stderr)
        return wall, cpu

    def loop(self, cycle, call, deadline: float):
        """Run the cycle in order until ``deadline`` has passed and every slot
        has run at least once.  Returns per-slot lists of wall and CPU seconds."""
        wall = [[] for _ in cycle]
        cpu = [[] for _ in cycle]
        i = 0
        while True:
            k = i % len(cycle)
            w, c = self.attempt(cycle[k], call)
            wall[k].append(w)
            cpu[k].append(c)
            i += 1
            if time.perf_counter() >= deadline and i >= len(cycle):
                return wall, cpu


def _direct(op):
    return op.run()


def run_untraced(runner: Runner, workload, seconds: float, setup_s: float) -> dict:
    start = time.perf_counter()
    wall, cpu = runner.loop(workload.cycle, _direct, start + seconds)
    ops = sum(len(s) for s in wall)
    print(f"measured {ops} ops of a {len(workload.cycle)}-op cycle in "
          f"{time.perf_counter() - start:.1f} s")
    # Cost of the whole mix from each slot's median, so a run that stops
    # part-way through a cycle is not biased towards the cheap slots.
    cycle_wall = sum(statistics.median(s) for s in wall)
    cycle_cpu = sum(statistics.median(s) for s in cpu)
    return {
        "ops_per_s": (len(workload.cycle) / cycle_wall, "1/s"),
        "cpu_s_per_op": (cycle_cpu / len(workload.cycle), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def run_traced(runner: Runner, workload, seconds: float, spans_path: pathlib.Path) -> dict:
    import tracer
    import workloads

    tr = tracer.Tracer()
    traced_call = lambda op: tr.root(op.slot, op.run)
    failures = Counter()
    plain_s = traced_s = 0.0
    cycles = 0
    start = time.perf_counter()
    # Every op runs untraced and traced back to back; the untraced runs are
    # the base of trace.overhead_share.  Which side goes first alternates
    # from op to op, so neither side is favoured by a drift in machine speed
    # or by meeting a slot for the first time.  Cycles run while the next
    # one is expected to end within ``seconds``.
    while cycles == 0 or (time.perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        for k, op in enumerate(workload.cycle):
            for traced in (False, True) if (k + cycles) % 2 == 0 else (True, False):
                if not traced:
                    plain_s += runner.attempt(op, _direct)[0]
                    continue
                before = runner.failures.copy()
                tr.install()
                try:
                    traced_s += runner.attempt(op, traced_call)[0]
                finally:
                    tr.uninstall()
                failures += runner.failures - before
        cycles += 1
    tr.finish()
    ops = cycles * len(workload.cycle)
    print(f"traced {cycles} cycle(s) of {len(workload.cycle)} ops")
    metrics = tr.metrics(ops, failures, traced_s / plain_s - 1.0, workloads.STUDY_IDS)
    SPANS.mkdir(exist_ok=True)
    tr.write(str(spans_path))
    print(f"wrote {len(tr.spans)} spans to {spans_path}")
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    load_numrad()
    import workloads

    print("env " + json.dumps(environment(seed)))
    setup_s = None
    if not trace:
        setup_s = measure_setup(SMOKE_SETUP_REPS if smoke else SETUP_REPS)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir()
    runner = Runner()
    try:
        workload = workloads.WORKLOADS[name](seed, str(workdir), smoke)
        runner.attempt(workload.warmup, _direct)
        if trace:
            spans_path = SPANS / f"spans-{name}-seed{seed}.jsonl"
            metrics = run_traced(runner, workload, seconds, spans_path)
        else:
            metrics = run_untraced(runner, workload, seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.rmdir()

    failed_share = runner.failed / runner.attempted
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<40} {value:.6g} {unit}")
    print(f"{'failed_share':<40} {failed_share:.6g} share "
          f"({runner.failed} of {runner.attempted} ops)")
    if runner.failures:
        print("failures " + json.dumps(dict(runner.failures)))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if runner.failed == 0 else 1


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """Run one workload in a fresh process.  Returns the finished process and
    its result line, which is None unless the process exited 0 and printed one."""
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        result = None
    return done, result if done.returncode == 0 else None


def smoke_all(seed: int) -> int:
    """Every workload, both modes, tiny inputs, each in a fresh process."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    want = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(WORKLOAD_NAMES):
        print(f"smoke: BENCHMARK.json declares {sorted(declared)}", file=sys.stderr)
        return 1
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done, result = run_child(name, seed, 0, trace, smoke=True)
            got = set(result["metrics"]) if result else set()
            ok = result is not None and result["correct"] and got == want[trace]
            print(f"smoke {name} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                status = 1
                print(done.stderr[-4000:], file=sys.stderr)
                for missing in sorted(want[trace] - got):
                    print(f"  missing metric {missing}", file=sys.stderr)
                for extra in sorted(got - want[trace]):
                    print(f"  undeclared metric {extra}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs; alone, check every workload")
    args = p.parse_args(argv)
    try:
        if args.workload is None:
            if not args.smoke:
                p.error("--workload is required without --smoke")
            load_numrad()
            return smoke_all(args.seed)
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
