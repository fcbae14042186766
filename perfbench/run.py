"""Host-time benchmark for mlmsim.

Run from the repository root:

    python3 perfbench/run.py --workload staircase --seed 1 --seconds 30 --trace 0

One single-threaded process runs one workload as a closed loop with one
operation in flight, checks every operation's output, and prints a table
of metrics with units followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run also repeats a fixed,
seed-determined set of operations under the span recorder and reports the
per-layer numbers instead. --workload all runs every workload in turn,
each in its own process. perfbench/README.md describes the workloads, the
metrics and what each layer should move.

The program under test is imported from src/ of the checkout this file
sits in; without it the benchmark exits non-zero and prints no result.
"""

import os

# Pin BLAS to one thread before numpy loads; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_SAMPLES = 5          # fresh interpreters per run, after one warm-up
P90_MIN_OPS = 100          # op_s_p90 is reported only from this many ops on
PROBE_SHARE = 0.1          # host-speed probe time after an op, as a share of it
PROBE_MIN_S = 0.1


class HostSpeed:
    """Host-speed probe: seconds per fixed block of simulator-like work.

    The host's speed drifts by up to 2x within a minute (other tenants
    share the cores), and the drift is common to all work on the core.
    Timing this block right before and after each op, and rescaling the
    op's time to a block time of REF_BLOCK_S, removes most of that drift.
    The block is a frozen, self-contained copy of the kind of work in one
    simulator timestep: stamp three conductances into a 13x13 nodal
    matrix, solve it, check the residual and evaluate a windowed state
    update. It calls nothing in mlmsim, so a change to the program cannot
    change the probe.
    """

    REF_BLOCK_S = 4.7e-4   # about the block's time when the host is quiet

    def __init__(self):
        a = np.zeros((13, 13))
        for k in range(12):
            a[k:k + 2, k:k + 2] += np.array([[1e-3, -1e-3], [-1e-3, 1e-3]])
        a[12, 12] += 1e-3
        self.a_base = a
        self.z = np.random.default_rng(0).random((1, 13))
        self.w = np.array([[0.1, 0.5, 0.9]])
        self.ports = ((1, 2), (4, 5), (7, 8))

    def _block(self):
        for _ in range(8):
            a = np.broadcast_to(self.a_base, (1, 13, 13)).copy()
            g = 1.0 / (1000.0 + self.w * 99000.0)
            for k, (i, j) in enumerate(self.ports):
                a[..., i, i] += g[..., k]
                a[..., j, j] += g[..., k]
                a[..., i, j] -= g[..., k]
                a[..., j, i] -= g[..., k]
            x = np.linalg.solve(a, self.z[..., None])[..., 0]
            np.abs(a @ x[..., None] - self.z[..., None]).max()
            v = x[..., [1, 4, 7]] - x[..., [2, 5, 8]]
            arg = np.where(v > 0, np.maximum(self.w, 1e-3), np.minimum(self.w, 1 - 1e-3))
            f = 1.0 - (2.0 * arg - 1.0) ** 2
            np.clip(self.w + np.where(np.abs(v) > 0.3, v * f, 0.0), 0.0, 1.0)

    def sample(self, seconds):
        """Mean block time over at least `seconds` of blocks."""
        n = 0
        t0 = time.perf_counter()
        while True:
            self._block()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return elapsed / n

    def scale(self, before, after):
        """Factor from wall seconds to seconds at the reference speed."""
        return self.REF_BLOCK_S / ((before + after) / 2.0)


def import_program():
    """Import mlmsim from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import mlmsim
    location = Path(mlmsim.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"mlmsim imported from {location}, not from {SRC}")


def pin_to_one_cpu():
    """Keep this process and its set-up probes on one CPU, so the host-speed
    probe measures the core that runs the timed work."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def machine_record():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpus_used": sorted(os.sched_getaffinity(0)),
    }


def measure_setup(workdir, speed):
    """Median time from a fresh interpreter to CLI imported, config loaded
    and cell built, wall and rescaled, with the probe's own breakdown."""
    config = workdir / "setup.json"
    config.write_text("{}\n", encoding="utf-8")
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)]
    samples = []
    before = speed.sample(PROBE_MIN_S)
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        rec = json.loads(done.stdout.splitlines()[-1])
        rec["wall_s"] = rec.pop("t_done") - t0
        after = speed.sample(max(PROBE_MIN_S, PROBE_SHARE * rec["wall_s"]))
        rec["setup_s"] = rec["wall_s"] * speed.scale(before, after)
        before = after
        if i:   # the first one fills the bytecode and page caches
            samples.append(rec)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


class Loop:
    """Closed loop over one workload's ops; records times and failures.

    An op fails if it raises or any of its output checks fails; the loop
    carries on after a failure.
    """

    def __init__(self, wl, speed):
        self.wl = wl
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, seconds=None, count=None):
        """Run `count` ops, or ops until the next one is expected to end
        past `seconds`. Returns (wall seconds, rescaled seconds) per op."""
        wall, scaled = [], []
        start = time.perf_counter()
        before = self.speed.sample(PROBE_MIN_S)
        while not wall or (len(wall) < count if count else
                           time.perf_counter() - start + statistics.median(wall)
                           <= seconds):
            t = self._one()
            after = self.speed.sample(max(PROBE_MIN_S, PROBE_SHARE * t))
            wall.append(t)
            scaled.append(t * self.speed.scale(before, after))
            before = after
        return wall, scaled

    def _one(self):
        i = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.wl.run_op(i)
        except Exception:
            elapsed = time.perf_counter() - t0
            self._record([f"op {i} raised:\n{traceback.format_exc()}"])
            return elapsed
        elapsed = time.perf_counter() - t0
        self._record(self._guarded(self.wl.check, i, result))
        return elapsed

    def final(self):
        """The dense-reference check; a mismatch fails the op it checked."""
        self._record(self._guarded(self.wl.final_check))

    @staticmethod
    def _guarded(check, *args):
        try:
            return check(*args)
        except Exception:
            return [f"check raised:\n{traceback.format_exc()}"]

    def _record(self, problems):
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    machine = machine_record()
    speed = HostSpeed()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup = measure_setup(workdir, speed)
        wl = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(wl, speed)
        wall, scaled = loop.run(seconds=args.seconds / 2 if args.trace else args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layers = None
        if args.trace:
            wl.restart()
            tracer = spans.Tracer()
            tracer.install()
            try:
                _, traced = loop.run(count=wl.traced_ops)
            finally:
                tracer.uninstall()
            tracer.save(WORK / f"spans-{args.workload}.npz")
            layers = tracer.report(wl.traced_ops)
            layers["trace.overhead_ratio"] = (statistics.median(traced)
                                              / statistics.median(scaled))
        loop.final()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "setup_wall_s": (setup["wall_s"], "s"),
        "op_s_p50": (statistics.median(scaled), "s"),
        "op_wall_s_p50": (statistics.median(wall), "s"),
        "op_s_p90": ((statistics.quantiles(scaled, n=10)[-1], "s")
                     if len(wall) >= P90_MIN_OPS
                     else (None, f"n/a, {len(wall)} ops < {P90_MIN_OPS}")),
        "cycles_per_s": (wl.cycles_per_op * len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (loop.failed / loop.attempted, "ratio"),
    }
    if layers is not None:
        layers["cli.import_s"] = setup["import_s"]
        layers["config.load_s"] = setup["config_s"]
        metrics.update((k, (v, UNITS.get(k, "count/op"))) for k, v in sorted(layers.items()))

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {len(wall)} timed ops "
          f"in {sum(wall):.2f} s, {loop.failed} of {loop.attempted} ops failed")
    for problem in loop.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:30s} {shown:>14s} {unit}")

    declared = benchmark_metrics("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {},
    }
    for name, unit in declared.items():
        value, measured_unit = metrics[name]
        if measured_unit != unit:
            raise RuntimeError(f"{name} is measured in {measured_unit}, "
                               f"BENCHMARK.json says {unit}")
        result["metrics"][name] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload of BENCHMARK.json in its own process, in turn."""
    codes = [subprocess.run([sys.executable, __file__, "--workload", w["name"],
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for w in load_benchmark()["workloads"]]
    return max(codes)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def benchmark_metrics(section):
    """Metric names and units that BENCHMARK.json declares for a section."""
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}


UNITS = {
    **{k: "s/op" for k in ("cli.self_s", "config.self_s", "encoder.self_s",
                           "controller.self_s", "network.template_s",
                           "network.solve_s", "device.step_s", "device.resistance_s")},
    "cli.import_s": "s",
    "config.load_s": "s",
    "controller.rows_per_call": "rows",
    "controller.unique_row_ratio": "ratio",
    "network.solve_us_per_row": "us",
    "device.active_step_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

if __name__ == "__main__":
    sys.exit(main())
