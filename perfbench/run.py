"""Benchmark of the oja command-line tool.

    python3 perfbench/run.py --workload {verify,graph,queries} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of the repository.  It runs ``python -m oja.cli`` from
the working tree (``src`` on ``PYTHONPATH``; nothing is installed) in a fresh
process per command, one command at a time, the way users pay for it, and
checks every command's exit status and output against hand-written
expectations (``workloads.py``).  ``OJA_THREADS`` is removed from the
children's environment, so the default configuration is measured.

With ``--trace 0`` it repeats whole passes of the workload until the next
pass would end after ``--seconds``, with SETUPS_PER_PASS set-up processes
(a fresh interpreter that imports the CLI and, for verify and graph, loads
the catalog) before each pass.  It reports the median over passes of:

    wall_s       wall time of one pass
    cmd_p50_s    median wall time of one command within a pass
    cpu_s        user + system CPU time of the pass's processes
    peak_rss_mb  largest peak resident set of any process of the pass

and ``setup_s``, the median over the run's set-ups (at least SETUP_RUNS).
Times are rescaled to a reference speed; see ``reference()``.  The raw
figures are printed and recorded beside them.

With ``--trace 1`` it runs one untraced pass and two traced passes
(``tracer.py``) under different ``PYTHONHASHSEED`` values, and reports the
per-layer metrics of the first traced pass, ``trace.overhead_s`` (traced
minus untraced pass wall) and ``trace.count_drift`` (count
metrics that differ between the two traced passes; each is also printed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` /
``attempted`` is the share of processes whose exit status or output was
wrong.  Lines before it give the environment (git sha, dirty flag, Python,
CPU count, load average before and after) and that share as ``fail_rate``.
The full record, with the traced spans, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 7  # at least this many set-ups per run
SETUPS_PER_PASS = 2
RUN_LIMIT_S = 170.0  # every process must have ended by then
COUNT_SUFFIXES = (".calls", ".cells", ".built", ".distinct", ".failures")
REFERENCE_S = 0.009  # nominal time of one reference() call
REFERENCE_SHARE = 0.1  # reference time per second of run time


def reference() -> float:
    """Wall time of a fixed exact-arithmetic loop run in this process.

    The loop multiplies short vectors of stdlib Fractions, the arithmetic
    that dominates oja.  On a shared virtual machine the speed swings by 30%
    and more over seconds to minutes with other tenants' load.  So between
    commands, while no child runs, the benchmark runs this loop for
    REFERENCE_SHARE of the time since it last did, and rescales a run's
    times by REFERENCE_S over the mean of the run's samples: the figures are
    seconds at the speed where the loop takes REFERENCE_S.  No code under
    src/oja runs here, so no change to oja moves the reference.
    """
    a = [Fraction(i + 1, i + 2) for i in range(8)]
    b = [Fraction(2 * i + 1, 3 * i + 1) for i in range(8)]
    start = time.perf_counter()
    for _ in range(25):
        prod = [Fraction(0)] * 15
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        a = [p / (k + 1) + 1 for k, p in enumerate(prod[:8])]
    return time.perf_counter() - start


@dataclass
class Proc:
    """One finished child process."""

    argv: list[str]
    status: int
    wall: float  # spawn to reap, s
    cpu: float  # user + system, s
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Pass:
    """One pass over a workload's commands."""

    procs: list[Proc] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def figures(self) -> dict[str, float]:
        walls = [p.wall for p in self.procs]
        return {"wall_s": sum(walls),  # the parent's own checks excluded
                "cmd_p50_s": statistics.median(walls),
                "cpu_s": sum(p.cpu for p in self.procs),
                "peak_rss_mb": max(p.rss_mb for p in self.procs)}


class Runner:
    """Runs one child process at a time and measures it."""

    def __init__(self, env: dict[str, str], deadline: float):
        self.env = env
        self.deadline = deadline
        self.scratch = OUT / f"tmp-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.samples: list[float] = []  # reference() times
        self.sampled_at = time.perf_counter()

    def sample_speed(self) -> None:
        """Run reference() for REFERENCE_SHARE of the time since the last call."""
        until = time.perf_counter() + REFERENCE_SHARE * (time.perf_counter() - self.sampled_at)
        self.samples.append(reference())
        while time.perf_counter() < until:
            self.samples.append(reference())
        self.sampled_at = time.perf_counter()

    def spawn(self, argv: list[str], env: dict[str, str]) -> Proc:
        """Run argv to completion; kill it once the run's deadline has passed."""
        out, err = self.scratch / "stdout", self.scratch / "stderr"
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                     stdout=stdout, stderr=stderr)
            # os.kill, not child.kill(): Popen.kill polls, and polling reaps.
            timer = threading.Timer(max(self.deadline - start, 0.0),
                                    os.kill, (child.pid, signal.SIGKILL))
            timer.start()
            try:
                _, wait_status, usage = os.wait4(child.pid, 0)  # keeps its rusage
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(wait_status)  # reaped: Popen must not wait
        return Proc(argv=argv[1:], status=child.returncode, wall=wall,
                    cpu=usage.ru_utime + usage.ru_stime,
                    rss_mb=usage.ru_maxrss * 1024 / 1e6,  # Linux reports KiB
                    stdout=out.read_text(errors="replace"),
                    stderr=err.read_text(errors="replace"))

    def setup(self, code: str) -> tuple[Proc, str]:
        proc = self.spawn([sys.executable, "-c", code], self.env)
        problem = "" if proc.status == 0 else \
            f"set-up exited {proc.status}: {proc.stderr.strip()[-300:]}"
        return proc, problem

    def run_pass(self, commands: list[workloads.Command], hash_seed: int | None = None
                 ) -> Pass:
        """Run every command once; traced through tracer.py when hash_seed is set."""
        env = dict(self.env)
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = str(hash_seed)
        trace_file = self.scratch / "trace.json"
        result = Pass()
        for command in commands:
            if hash_seed is None:
                argv = [sys.executable, "-m", "oja.cli", *command.argv]
            else:
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_file),
                        "--", *command.argv]
            if hash_seed is None:
                self.sample_speed()
            proc = self.spawn(argv, env)
            result.procs.append(proc)
            problem = command.check(proc.status, proc.stdout)
            if problem:
                stderr = proc.stderr.strip()[-300:]
                result.failures.append(f"{' '.join(command.argv)}: {problem}"
                                       + (f" [{stderr}]" if stderr else ""))
            if hash_seed is not None and trace_file.exists():
                record = json.loads(trace_file.read_text())
                trace_file.unlink()
                for key, value in record["summary"].items():
                    result.layers[key] = result.layers.get(key, 0) + value
                result.spans.append({"argv": list(command.argv), "spans": record["spans"]})
        if hash_seed is None:
            self.sample_speed()
        return result

    def close(self) -> None:
        for path in self.scratch.iterdir():
            path.unlink()
        self.scratch.rmdir()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("OJA_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_before": os.getloadavg(),
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def timed(runner: Runner, plan, setup_code: str, rng: random.Random,
          seconds: float) -> tuple[dict[str, float], list[Pass], list[str], list[Proc]]:
    setups: list[Proc] = []
    failures: list[str] = []

    def set_up() -> None:
        runner.sample_speed()
        proc, problem = runner.setup(setup_code)
        setups.append(proc)
        if problem:
            failures.append(problem)

    # Set-ups are spread over the run so that they meet the same machine
    # states as the passes.  The run stops at the pass boundary nearest to
    # `seconds`.
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            set_up()
        passes.append(runner.run_pass(plan(rng)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 > seconds \
                or time.perf_counter() > runner.deadline:
            break
    while len(setups) < SETUP_RUNS:
        set_up()
    runner.sample_speed()

    figures = [p.figures() for p in passes]
    raw = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    raw["setup_s"] = statistics.median(p.wall for p in setups)
    # The mean, not the median: a command's time follows the average speed.
    factor = REFERENCE_S / statistics.fmean(runner.samples)
    print(f"raw {json.dumps(raw)}; speed factor {factor:.4f}")
    metrics = {name: value * (factor if name.endswith("_s") else 1.0)
               for name, value in raw.items()}
    return metrics, passes, failures, setups


def traced(runner: Runner, plan, rng: random.Random, seed: int
           ) -> tuple[dict[str, float], list[Pass], list[str], list[Proc]]:
    commands = plan(rng)
    hash_seeds = (2 * seed + 1) % 2**32, (2 * seed + 2) % 2**32
    plain = runner.run_pass(commands)
    first = runner.run_pass(commands, hash_seeds[0])
    second = runner.run_pass(commands, hash_seeds[1])
    counts = [k for k in set(first.layers) | set(second.layers) if k.endswith(COUNT_SUFFIXES)]
    drift = sorted(k for k in counts if first.layers.get(k, 0) != second.layers.get(k, 0))
    for key in drift:
        print(f"count drift under PYTHONHASHSEED {hash_seeds[0]} vs {hash_seeds[1]}: "
              f"{key} {first.layers.get(key, 0)} != {second.layers.get(key, 0)}")
    metrics = dict(first.layers)
    metrics["trace.overhead_s"] = first.figures()["wall_s"] - plain.figures()["wall_s"]
    metrics["trace.count_drift"] = len(drift)
    return metrics, [plain, first, second], [], []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "oja" / "cli.py").is_file():
        print(f"error: no oja source tree under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()

    info = environment()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    print("environment " + json.dumps(info))
    plan, setup_code = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    runner = Runner(child_env(), time.perf_counter() + RUN_LIMIT_S)
    try:
        runner.setup(setup_code)  # untimed: compiles the bytecode cache once
        if args.trace:
            values, passes, failures, setups = traced(runner, plan, rng, args.seed)
            declared = per_layer
        else:
            values, passes, failures, setups = timed(runner, plan, setup_code, rng,
                                                     args.seconds)
            declared = end_to_end
    finally:
        runner.close()
    info["load_after"] = os.getloadavg()

    failures += [f for p in passes for f in p.failures]
    attempted = len(setups) + sum(len(p.procs) for p in passes)
    for failure in failures:
        print("FAILED " + failure)
    print(f"load_after {list(info['load_after'])}; {len(passes)} passes; "
          f"fail_rate {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in declared.items()}

    def describe(proc: Proc) -> dict:
        return {"argv": proc.argv, "wall_s": proc.wall, "cpu_s": proc.cpu,
                "peak_rss_mb": proc.rss_mb}

    record = {"environment": info, "metrics": metrics, "failures": failures,
              "setups": [describe(p) for p in setups],
              "passes": [[describe(c) for c in p.procs] for p in passes],
              "reference_s": runner.samples}
    if args.trace:
        record["layers"] = passes[1].layers
        record["trace"] = [dict(command, pass_id=i) for i in (1, 2)
                           for command in passes[i].spans]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
