"""Benchmark of starqm: one closed-loop client per workload, one process.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; starqm is imported from `src/`.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s          median over three cold processes of imports, input
                   construction and one untimed warm-up op;
  ops_per_s        warm ops completed per second of op wall time;
  op_p50_ms        median op wall time (the sample count is printed);
  accuracy_digits  minimum over passing ops of -log10(relative error
                   against the op's closed form);
  peak_rss_mb      peak resident memory of the measuring process.
Every op is checked against its oracle.  The failure fraction is printed with
them and carried by the result's `attempted` and `failed` fields.

--trace 1 runs each op input twice, untraced and then with every layer
traced (see spans.py), and reports the per-layer metrics plus the tracing
overhead per op.  The spans are written to perfbench/out/.

The last line of standard output is the JSON result.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# One BLAS thread, fixed before numpy loads (threadpoolctl is not available).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(config):
        dep = config.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.__config__),
        "scipy_blas": blas(scipy.__config__),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Loop:
    """Runs ops one at a time and keeps each one's wall time and oracle outcome."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.walls: list[float] = []
        self.errors: list[float] = []
        self.failures: list[str] = []

    def op(self, inp, call=None):
        call = call or (lambda fn: fn())
        start = time.perf_counter()
        try:
            result = call(lambda: self.workload.run(inp))
        except Exception:
            self.walls.append(time.perf_counter() - start)
            self.failures.append(traceback.format_exc())
            return
        self.walls.append(time.perf_counter() - start)
        try:
            ok, err, detail = self.workload.check(inp, result)
        except Exception:
            ok, err, detail = False, math.inf, traceback.format_exc()
        if ok:
            self.errors.append(err)
        else:
            self.failures.append(detail)

    def run_for(self, seconds: float) -> None:
        """Ops until `seconds` have passed (at least one)."""
        start = time.perf_counter()
        for inp in self.inputs:
            self.op(inp)
            if time.perf_counter() - start >= seconds:
                break

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def failed(self) -> int:
        return len(self.failures)


def warmed_loop(name: str, seed: int) -> tuple[Loop, float]:
    """Input construction plus one untimed warm-up op; returns the loop and setup seconds."""
    loop = Loop(workloads.WORKLOADS[name], seed)
    loop.workload.run(next(loop.inputs))
    return loop, time.perf_counter() - _T0


def setup_probe(name: str, seed: int) -> float:
    """Setup seconds of a fresh process, which pays every cold cost again."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(loop: Loop, setups: list[float]) -> dict[str, float]:
    walls = loop.walls
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(walls),
        "accuracy_digits": -math.log10(max(loop.errors)) if loop.errors else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(name: str, loop: Loop, seconds: float):
    """Per-layer metrics; returns (tracer, values)."""
    import spans

    # Each input runs untraced, then traced, so that drift in machine speed
    # falls on both sides of the overhead estimate alike.
    tracer = spans.Tracer()
    start = time.perf_counter()
    n = 0
    for inp in loop.inputs:
        if n and time.perf_counter() - start >= seconds:
            break
        loop.op(inp)
        with tracer.installed():
            loop.op(inp, call=lambda fn: tracer.run_op(n, name, fn))
        n += 1
    values = spans.aggregate(tracer.spans, n)
    values["trace.overhead_s"] = (sum(loop.walls[1::2]) - sum(loop.walls[0::2])) / n
    return tracer, values


def run_one(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    loop, setup0 = warmed_loop(name, seed)
    env = environment()
    if trace_on:
        tracer, values = traced(name, loop, seconds)
    else:
        loop.run_for(seconds)
        setups = [setup0] + [setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        values = end_to_end(loop, setups)
    misses = 0
    if name == "star_products":
        misses, note = workloads.narrow_pair_misses(seed)
        print(f"narrow pair (known-defect probe, not an op): {misses} of 2 missed ({note})")
    if trace_on:
        values["star.narrow_pair.misses"] = misses
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace_{name}_seed{seed}.json")
        tracer.write(path, {"workload": name, "seed": seed, "env": env, "metrics": values,
                            "moves": {k: metrics.moves(k) for k in values}})
        print(f"spans written to {os.path.relpath(path)}")
    for detail in loop.failures:
        print(f"FAILED op: {detail}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(f"{name} seed={seed} ops={loop.attempted} failed={loop.failed} "
          f"fail_frac={loop.failed / loop.attempted:.4g}")
    declared = metrics.PER_LAYER if trace_on else metrics.END_TO_END
    result = {k: {"value": values[k], "unit": unit} for k, (unit, _) in declared.items()}
    for key, val in result.items():
        print(f"  {key:42s} {val['value']:.6g} {val['unit']}")
    return {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*metrics.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        print(warmed_loop(args.workload, args.seed)[1])
        return 0
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in metrics.WORKLOADS
        ]
        return max(codes)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
