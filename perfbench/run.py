"""The charposet benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in workloads.py. Each pass of a workload runs in a
fresh process (the package's caches never evict, so one process per pass
keeps passes independent), as one closed loop: one caller, each op starting
only after the previous one returns. Every answer is checked against the
pinned references in references.json.

With ``--trace 0`` the run makes passes until the next one would end after
``--seconds`` (at least one), times the set-up of a fresh process before
each pass (at least SETUP_SAMPLES in all), and reports the medians of the
end-to-end metrics over the run; ``slowest_op_s`` is the largest of the
ops' median times. With ``--trace 1`` it makes one untraced and one traced
pass and reports the per-layer metrics of tracing.py.

The last line of stdout is the result, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the run
record: versions, the source digest, the per-pass figures and a reference
loop timed before and after each pass, which shows the machine's own speed
drift next to the figures it affects.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import OP_BUDGET_S, WORKLOADS  # noqa: E402

# A run must end within 180 s; keep a margin.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("slowest_op_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """A child process failed or overran; the run has no result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    # an installed package has its bytecode cached; the untimed first set-up
    # probe writes the cache, so that set-up is timed the way users meet it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args, env, timeout):
    """Run a Python child to completion and return its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} overran {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def reference_loop():
    """Seconds for a fixed plain-Python and numpy loop (no charposet code)."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(128 * 128, dtype=np.int64).reshape(128, 128) % 1009
    for _ in range(16):
        a = (a @ a + acc) % 1009
    return time.perf_counter() - t0


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "charposet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.env = child_env()
        self.passes = []
        self.op_times = []          # per pass, each op's seconds in run order

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def run_probe(self):
        return float(run_child(
            [os.path.join(HERE, "setup_probe.py"), self.args.workload],
            self.env, self.remaining()))

    def one_pass(self, trace):
        before = reference_loop()
        # leaves time for the child to exit and the reference loop after it
        deadline = self.remaining() - 10.0
        t0 = time.perf_counter()
        line = run_child(
            [os.path.join(HERE, "passrun.py"), self.args.workload,
             str(self.args.seed), str(trace), f"{deadline:.1f}"],
            self.env, self.remaining() - 2.0)
        elapsed = time.perf_counter() - t0
        result = json.loads(line)
        self.op_times.append(result.pop("op_s"))
        result["process_s"] = elapsed
        result["ref_loop_before_s"] = before
        result["ref_loop_after_s"] = reference_loop()
        self.passes.append(result)
        return result

    def measure(self):
        if self.args.trace:
            untraced = self.one_pass(0)
            traced = self.one_pass(1)
            values = traced["layers"]
            values["trace.overhead_frac"] = \
                traced["wall_s"] / untraced["wall_s"] - 1.0
            return values, PER_LAYER, []
        self.run_probe()            # untimed: writes the bytecode caches
        # one set-up probe before each pass, so that set-up is sampled
        # across the whole run, as the passes are
        setup = []
        window = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            setup.append(self.run_probe())
            self.one_pass(0)
            now = time.perf_counter()
            if now - window + (now - t0) > self.args.seconds or \
                    self.remaining() < now - t0 + 15.0:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(self.run_probe())
        values = {"setup_s": statistics.median(setup)}
        for name in ("wall_s", "peak_rss_mb"):
            values[name] = statistics.median(p[name] for p in self.passes)
        # every pass runs the same ops in the same order (the seed is fixed
        # within a run), so each op has one time per pass; the slowest op is
        # the one with the longest median, which a burst of machine noise on
        # some other op in one pass does not move
        values["slowest_op_s"] = max(
            statistics.median(times) for times in zip(*self.op_times))
        return values, END_TO_END, setup


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "charposet", "__init__.py")):
        print(f"error: no charposet sources under {SRC}", file=sys.stderr)
        return 1
    # the reference loop runs here too; keep numpy single-threaded
    os.environ.update({var: "1" for var in THREAD_VARS})
    import numpy

    run = Run(args)
    try:
        values, units, setup = run.measure()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in run.passes)
    failed = sum(p["failed"] for p in run.passes)
    wrong = sum(p["outcomes"]["mismatch"] + p["outcomes"]["error"]
                for p in run.passes)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "src_sha256": source_digest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "op_budget_s": OP_BUDGET_S,
        "failed_frac": failed / attempted,
        "setup_samples_s": setup,
        "passes": [{k: v for k, v in p.items() if k != "layers"}
                   for p in run.passes],
    }
    for name, unit in units:
        print(f"{name:44} {values[name]:.6g} {unit}")
    print(f"{'failed_frac':44} {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
