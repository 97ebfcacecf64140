"""spin1wave benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the package is imported from
./src).  Every timed operation is a fresh process; workloads and operations
run one at a time, with the numerics thread pools capped at nproc through
SPIN1_THREADS.

--trace 0: CLI runs for --seconds, at least 3, each after set-up probes
           for a fifth of the previous CLI run's time; prints the end-to-end
           metrics (medians over the repeats).
--trace 1: groups of untraced, traced, traced, untraced CLI runs for
           --seconds, at least one group; prints the per-layer metrics
           (medians over the traced runs) and the tracing overhead (median
           traced minus median untraced wall time).

Every run's outputs are checked; a failed check or a nonzero exit counts
as a failed operation.  The last line of standard output is the result
JSON; the lines before it are a provenance record and a readable summary.
Work files go to .perfbench_out/ in the checkout.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join("src", "spin1wave")
OUT = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_REPEATS = 3      # timed CLI runs per --trace 0 run
SETUP_SHARE = 0.2    # set-up probe time per unit of CLI time
WARM_UP_SIZE = 8
WARM_UP_S = 1.5


class Op:
    """One finished child process: wall time from launch to exit, peak
    resident memory, exit code and captured standard output."""

    def __init__(self, argv: list[str], out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        stdout_path = os.path.join(out_dir, "stdout.txt")
        stderr_path = os.path.join(out_dir, "stderr.txt")
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        with open(stdout_path) as fh:
            self.stdout = fh.read()
        with open(stderr_path) as fh:
            self.stderr = fh.read()
        self.out_dir = out_dir


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "spin1wave.cli", *argv]


def _probe(*args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "probe.py"), *args]


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never a parent's."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def provenance(workload: str, seed: int, threads: str) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    lib = {k: {f: deps.get(k, {}).get(f) for f in ("name", "version", "openblas configuration")}
           for k in ("blas", "lapack")}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": lib,
        "SPIN1_THREADS": threads,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(),
    }


class Run:
    """State of one benchmark invocation: inputs, operations and failures."""

    def __init__(self, workload: workloads.Workload, seed: int, work: str, size=None):
        self.w = workload
        self.size = size
        self.work = work
        os.makedirs(work, exist_ok=True)
        self.cfg = workload.config(seed, size)
        self.cfg_path = "-"
        if self.cfg is not None:
            self.cfg_path = os.path.join(work, "config.json")
            with open(self.cfg_path, "w") as fh:
                json.dump(self.cfg, fh, indent=1)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self._n = 0

    def _out_dir(self, kind: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"{kind}{self._n:03d}")

    def record(self, op: Op, what: str) -> Op:
        """Count one finished operation and check its outputs."""
        self.attempted += 1
        problems = []
        if op.code != 0:
            problems.append(f"exit code {op.code}: {op.stderr.strip()[-300:]}")
        if op.code in (0, 1):  # on 1 (failed verification) the report says which check
            problems += workloads.check_outputs(self.w, self.cfg, op.out_dir, op.stdout,
                                                self.size)
        if op.code == 0:
            digest = self.w.output_digest(op.out_dir)
            if digest is not None:
                self.digests.add(digest)
                if len(self.digests) > 1:
                    problems.append("output CSV differs from an earlier run of this seed")
        snapshot = os.path.join(op.out_dir, "state.s1wf")
        if os.path.exists(snapshot):
            os.remove(snapshot)  # checked; 10 MB each at 48^3
        if problems:
            self.failures.append(f"{what} {os.path.basename(op.out_dir)}: {'; '.join(problems)}")
        return op

    def setup(self) -> Op:
        op = Op(_probe("setup", self.w.name, self.cfg_path), self._out_dir("setup"))
        self.attempted += 1
        if op.code != 0:
            self.failures.append(f"setup exit code {op.code}: {op.stderr.strip()[-300:]}")
        return op

    def untraced(self) -> Op:
        out = self._out_dir("cli")
        return self.record(Op(_cli(self.w.argv(self.cfg_path, out, self.size)), out), "cli")

    def traced(self) -> tuple[Op, dict | None]:
        out = self._out_dir("traced")
        os.makedirs(out, exist_ok=True)
        spans = os.path.join(out, "spans.jsonl")
        metrics = os.path.join(out, "layers.json")
        argv = _probe("trace", self.w.name, f"{self.w.name}/{os.path.basename(out)}",
                      spans, metrics, "--", *self.w.argv(self.cfg_path, out, self.size))
        op = self.record(Op(argv, out), "traced")
        if op.code != 0:
            return op, None
        with open(metrics) as fh:
            return op, json.load(fh)


def _repeat(op_fn, seconds: float, minimum: int) -> list:
    """Run op_fn at least `minimum` times; start another only while it is
    expected to finish within `seconds` of the first start."""
    t0 = time.perf_counter()
    done = []
    while len(done) < minimum or (
        time.perf_counter() - t0 + (time.perf_counter() - t0) / len(done) <= seconds
    ):
        done.append(op_fn())
    return done


def end_to_end(run: Run, seconds: float) -> dict:
    # Set-up probes run in the gaps before each CLI run, for SETUP_SHARE of
    # the previous CLI run's time, so that both kinds sample the machine's
    # speed over the whole run rather than over one stretch of it.
    setups, ops = [], []

    def probes_then_cli():
        gap = SETUP_SHARE * ops[-1].wall_s if ops else 0.0
        setups.extend(_repeat(run.setup, gap, 1))
        ops.append(run.untraced())

    _repeat(probes_then_cli, seconds, MIN_REPEATS)
    setup_s = statistics.median(op.wall_s for op in setups)
    wall_s = statistics.median(op.wall_s for op in ops)
    compute_s = wall_s - setup_s
    print(f"set-up: {len(setups)} probes {[round(o.wall_s, 3) for o in setups]} s")
    print(f"cli: {len(ops)} runs {[round(o.wall_s, 3) for o in ops]} s")
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
        "records_per_s": run.w.records / compute_s,
        "steps_per_s": run.w.steps / compute_s,
    }


LAYER_NAMES = tuple(tracing.layer_metrics([]))
# Counts made by the program that must repeat exactly between traced runs.
DETERMINISTIC = ("fields.fft_calls", "fields.fft_transforms", "dynamics.evolve_calls",
                 "em_coupling.generator_calls", "em_coupling.rk4_steps",
                 "em_coupling.cg_iterations", "em_coupling.pi_calls",
                 "em_coupling.landau_dim")


def per_layer(run: Run, seconds: float) -> dict:
    # untraced, traced, traced, untraced: drift of the machine's speed
    # during the group affects both kinds of run alike
    groups = _repeat(lambda: (run.untraced(), run.traced(), run.traced(), run.untraced()),
                     seconds, 1)
    untraced = [op for g in groups for op in (g[0], g[3])]
    traced = [t for g in groups for t in (g[1], g[2])]
    layers = [m for _, m in traced if m is not None]
    run.failures += compare_counts(layers)
    untraced_s = statistics.median(op.wall_s for op in untraced)
    overhead = statistics.median(op.wall_s for op, _ in traced) - untraced_s
    print(f"untraced: {[round(op.wall_s, 3) for op in untraced]} s, "
          f"traced: {[round(op.wall_s, 3) for op, _ in traced]} s")
    print(f"tracing overhead: {overhead:+.3f} s on a {untraced_s:.3f} s run (medians)")
    metrics = {name: statistics.median(m[name] for m in layers) if layers else 0.0
               for name in LAYER_NAMES}
    metrics["trace.overhead_s"] = overhead
    return metrics


def configure_env() -> str:
    """Cap the numerics threads at nproc for this process and its children,
    and import the package from ./src."""
    threads = str(len(os.sched_getaffinity(0)))  # what `nproc` prints
    os.environ["SPIN1_THREADS"] = threads
    for var in THREAD_VARS:  # what spin1wave.cli derives from SPIN1_THREADS
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.path.abspath("src")
    sys.path.insert(0, os.path.abspath("src"))
    return threads


def compare_counts(layers: list[dict]) -> list[str]:
    """Failures for the deterministic counts that differ between traced runs."""
    return [
        f"count {key} differs between traced runs: {sorted({m[key] for m in layers})}"
        for key in DETERMINISTIC
        if len({m[key] for m in layers}) > 1
    ]


def _spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, help="grid size override, for self-tests only")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: {SRC} not found; run from the root of a spin1wave checkout",
              file=sys.stderr)
        return 2
    spec = _spec()

    threads = configure_env()

    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workloads.WORKLOADS[args.workload], args.seed, work, args.size)

    # Untimed and unchecked: one small run of the same command warms the
    # bytecode and page caches, and set-up probes for WARM_UP_S bring the
    # CPUs out of idle (a first run after idle is up to 30% slower here).
    # Users running the CLI repeatedly do not pay these costs every time.
    warm = Run(run.w, args.seed, os.path.join(work, "warm-up"), WARM_UP_SIZE)
    Op(_cli(warm.w.argv(warm.cfg_path, warm.work, WARM_UP_SIZE)), warm.work)
    _repeat(lambda: Op(_probe("setup", run.w.name, run.cfg_path), warm.work), WARM_UP_S, 1)

    if args.trace:
        metrics = per_layer(run, args.seconds)
    else:
        metrics = end_to_end(run, args.seconds)
    failed = len(run.failures)
    error_rate = failed / run.attempted
    if args.trace:
        metrics["error_rate"] = error_rate
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2

    prov = provenance(args.workload, args.seed, threads)
    with open(os.path.join(work, "provenance.json"), "w") as fh:
        json.dump(prov, fh, indent=1)
    print("provenance:", json.dumps(prov, sort_keys=True))
    for f in run.failures:
        print("FAILED:", f)
    print(f"operations: {run.attempted} attempted, {failed} failed, error_rate {error_rate:g}")
    for m in wanted:
        print(f"  {m['name']:34s} {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
