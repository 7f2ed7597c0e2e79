"""bqcf benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload sweep-ref --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  The
workload is repeated until --seconds have passed (at least one pass).
Every operation's output is checked after its pass, outside the timed
part.  Human-readable lines come first, among them every metric by name
and unit and the environment; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`:

    --trace 0  setup_s, wall_s, op_ms_p50, op_ms_p90, peak_rss_mb
    --trace 1  the per-layer metrics of layertrace.LAYER_METRICS, from passes
               run with every layer entry point wrapped, after an
               untraced loop of the same length (for trace.overhead_share)

Times of one pass and one operation are medians over the run.  setup_s
is the median wall time of SETUPS fresh interpreters, each importing
bqcf.cli and building the workload's inputs, half of them started before
the timed loops and half after.  Set-up times, and the pass and operation
times of host-normalized workloads, are divided by the host factor of the
kernel samples taken next to them (hostspeed.py); the record keeps them
as measured.  BLAS threading is left as found and recorded with the
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("sweep-ref", "cmin-ladder", "deform-cli")
SETUPS = 10  # half before the timed loops and half after, to span the run
SETUP_KERNEL = 2  # host-speed samples right before and right after each set-up
SETUP_TIMEOUT_S = 60


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
    }


def measure_setup(workload, seed, setups, speed):
    """Wall seconds of `setups` fresh set-ups, each also divided by the
    host factor of the kernel samples around it, and their import ms."""
    walls, normalized, import_ms = [], [], []
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), str(OUT_DIR)]
    for _ in range(setups):
        kernel = speed.sample(SETUP_KERNEL)
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        wall = perf_counter() - t0
        kernel += speed.sample(SETUP_KERNEL)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        walls.append(wall)
        normalized.append(wall / hostspeed.factor(kernel))
        import_ms.append(json.loads(proc.stdout.splitlines()[-1])["import_ms"])
    return walls, normalized, import_ms


class Loop:
    """Outcome of repeating passes: walls, operation times, check counts."""

    def __init__(self):
        self.walls = []
        self.ops = []  # one list of operation seconds per completed pass
        self.kernel = []  # host-speed samples, one before each pass and after each operation
        self.layers = []  # per-layer values per traced pass
        self.attempted = 0
        self.failed = 0
        self.crashed = False


def run_loop(wl, seconds, one_pass):
    """Repeat one_pass(ops) -> (wall, result, layers, kernel) until
    `seconds` pass."""
    loop = Loop()
    deadline = perf_counter() + seconds
    while True:
        ops = []
        try:
            wall, result, layers, kernel = one_pass(ops)
        except Exception:  # the program failed; count it and stop timing
            traceback.print_exc(file=sys.stderr)
            loop.attempted += len(ops) + 1
            loop.failed += len(ops) + 1
            loop.crashed = True
            return loop
        try:
            flags = wl.check(result, len(ops))
        except Exception:  # a check that cannot run fails its operations
            traceback.print_exc(file=sys.stderr)
            flags = [False] * max(1, len(ops))
        loop.attempted += len(flags)
        loop.failed += flags.count(False)
        loop.walls.append(wall)
        loop.ops.append(ops)
        loop.kernel.append(kernel)
        if layers is not None:
            loop.layers.append(layers)
        if perf_counter() >= deadline:
            return loop


def untraced_pass(wl, speed):
    """A pass with one host-speed sample before it and one after each
    operation, outside the operation's time and taken out of the pass's."""

    def one_pass(ops):
        kernel = speed.sample(1)
        spent = speed.spent
        t0 = perf_counter()
        result = wl.run_pass(ops, lambda: kernel.extend(speed.sample(1)))
        return perf_counter() - t0 - (speed.spent - spent), result, None, kernel

    return one_pass


def traced_pass(name, seed, small):
    """Inputs are rebuilt inside each traced pass so set-up layers show."""
    import layertrace
    import workloads

    def one_pass(ops):
        tracer = layertrace.Tracer()
        with tracer.patched():
            wl = workloads.make(name, seed, OUT_DIR, small)
            t0 = perf_counter()
            result = wl.run_pass(ops, lambda: None)
            wall = perf_counter() - t0
        return wall, result, tracer.layer_values(), []

    return one_pass


def named_metrics(name, wl, loop, setup_s):
    """Every end-to-end metric under its workload-specific name.

    On a host-normalized workload each operation time is divided by the
    host factor of the two kernel samples that bracket it, and a pass time
    is the sum of its operations so divided plus the rest of the pass
    divided by the factor of all the pass's samples (see hostspeed)."""
    if wl.host_normalized:
        flat, walls = [], []
        for wall, ops, kernel in zip(loop.walls, loop.ops, loop.kernel):
            normalized = [s / hostspeed.factor(kernel[i : i + 2]) for i, s in enumerate(ops)]
            flat += [s * 1e3 for s in normalized]
            walls.append(sum(normalized) + (wall - sum(ops)) / hostspeed.factor(kernel))
    else:
        flat = [s * 1e3 for ops in loop.ops for s in ops]
        walls = loop.walls
    out = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if name == "cmin-ladder":
        for i, rung in enumerate(wl.rung_names()):
            out[f"cmin_ms.{rung}"] = (statistics.median(p[i] for p in wl.rung_seconds) * 1e3, "ms")
        for i, rung in enumerate(wl.rung_names()):
            out[f"cmin_factorizations.{rung}"] = (wl.rung_factorizations[0][i], "count")
    else:
        label = "eval_ms" if name == "sweep-ref" else "case_ms"
        out[f"{label}_p50"] = (percentile(flat, 0.50), "ms")
        out[f"{label}_p95"] = (percentile(flat, 0.95), "ms")
    # p90 keeps ten samples beyond it at the ~100 operations of a deform run
    out["op_ms_p50"] = (percentile(flat, 0.50), "ms")
    out["op_ms_p90"] = (percentile(flat, 0.90), "ms")
    return out, flat


def layer_metrics(loop, untraced, import_ms):
    """Per-layer metrics: counts from the first traced pass, times as medians.

    Returns the metrics and whether every count repeated in every pass.
    """
    import layertrace

    units = {name: unit for name, unit, _, _ in layertrace.LAYER_METRICS}
    first = loop.layers[0]
    repeated = all(p[k] == first[k] for p in loop.layers for k in layertrace.COUNT_METRICS)
    values = {}
    for k in first:
        if k in layertrace.COUNT_METRICS:
            values[k] = first[k]
        else:
            values[k] = statistics.median(p[k] for p in loop.layers)
    values["setup.import_ms"] = statistics.median(import_ms)
    values["trace.overhead_share"] = (
        statistics.median(loop.walls) / statistics.median(untraced.walls) - 1.0
    )
    return {k: {"value": values[k], "unit": units[k]} for k, _, _, _ in layertrace.LAYER_METRICS}, repeated


E2E_METRICS = ("setup_s", "wall_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")


def use_program_sources():
    """Put ./src first on the import path; False when it holds no bqcf."""
    if not (SRC / "bqcf" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def measure(workload, seed, seconds, trace, small=False, setups=SETUPS):
    """One benchmark run.  Returns the result object and a full record
    (environment, inputs, every metric under its workload-specific name).
    Raises RuntimeError when no pass of the workload completed."""
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    speed = hostspeed.Sampler()
    setup_walls, setup_s, import_ms = measure_setup(workload, seed, setups - setups // 2, speed)
    wl = workloads.make(workload, seed, OUT_DIR, small)
    untraced = run_loop(wl, seconds, untraced_pass(wl, speed))
    loops = [untraced]
    if trace and not untraced.crashed:
        loops.append(run_loop(wl, seconds, traced_pass(workload, seed, small)))
    if any(not lp.walls for lp in loops):
        raise RuntimeError("no pass of the workload completed")
    more = measure_setup(workload, seed, setups // 2, speed)
    setup_walls += more[0]
    setup_s += more[1]
    import_ms += more[2]
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    correct = failed == 0

    named, op_ms = named_metrics(workload, wl, untraced, setup_s)
    named["ops_failed_share"] = (failed / attempted, f"of {attempted}")
    if trace:
        metrics, repeated = layer_metrics(loops[1], untraced, import_ms)
        correct = correct and repeated
    else:
        metrics = {k: {"value": named[k][0], "unit": named[k][1]} for k in E2E_METRICS}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(
        result,
        workload=workload,
        seed=seed,
        environment=env,
        inputs=wl.describe(),
        passes=len(untraced.walls),
        operations_timed=len(op_ms),
        counts_repeated=repeated if trace else None,
        named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        host_factor=hostspeed.factor(speed.samples),
        host_normalized=wl.host_normalized,
        host_samples_s=speed.samples,
        wall_s_measured=untraced.walls,
        op_s_measured=untraced.ops,
        kernel_s=untraced.kernel,
        setup_s_measured=setup_walls,
        op_ms=op_ms,
    )
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_program_sources():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {json.dumps(record['inputs'])}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"passes {record['passes']}, operations timed {record['operations_timed']}")
    print(
        f"host factor {record['host_factor']:.4f} over the run (times divided by the"
        f" local factor: set-up{', passes and operations' if record['host_normalized'] else ' only'})"
    )
    for key, m in record["named"].items():
        print(f"  {key:<40} {m['value']:16.6f} {m['unit']}")
    if args.trace:
        if not record["counts_repeated"]:
            print("counts differed between traced passes", file=sys.stderr)
        for key, m in result["metrics"].items():
            print(f"  {key:<40} {m['value']:16.6f} {m['unit']}")
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
