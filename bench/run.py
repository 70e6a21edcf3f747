"""Benchmark of the seqvol package: end-to-end metrics, or per-layer ones.

Run from the root of a source checkout:

    python3 bench/run.py --workload filter_p8 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

The package is imported from ``src/`` of the checkout; nothing is installed.
Without ``--trace`` (or with ``--trace 0``) the run measures the end-to-end
metrics with nothing patched. With ``--trace 1`` operations alternate
untraced and traced (see ``tracer.py``), and the run reports per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
name every metric with its unit and record the machine. ``--workload all``
runs each workload in its own process and prints a table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
# On a shared 2-vCPU virtual machine the speed of any code (a fixed loop
# too) drifts by up to a third from minute to minute. Timed end-to-end
# metrics are therefore scaled by a reference kernel timed next to each
# operation, to the speed at which the kernel takes REF_SECONDS.
REF_SECONDS = 0.040

# metric name -> unit, from the benchmark's own description
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])


def import_package():
    """Import ``seqvol`` from this checkout's ``src/``, or exit with an error."""
    if not (SRC / "seqvol" / "__init__.py").is_file():
        sys.exit(f"error: no seqvol package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import seqvol
    if Path(seqvol.__file__).resolve().parent != (SRC / "seqvol").resolve():
        sys.exit(f"error: imported seqvol from {seqvol.__file__}, not from {SRC}")


def machine() -> dict:
    """The machine and software a result was measured on."""
    import numpy as np
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def blas_threads() -> int | None:
    """Thread count numpy's OpenBLAS runs with, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``. It is never taken below the median: with
    fewer than ``2 * TAIL_BEYOND`` samples no tail is measurable and the
    median sample is returned.
    """
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[rank], 100.0 * rank / len(ordered)


def reference_kernel(repeats: int = 1) -> float:
    """Mean wall time of a fixed loop of small numpy operations and Python arithmetic.

    It uses no ``seqvol`` code, so a change to the package leaves it alone.
    """
    import numpy as np

    start = time.perf_counter()
    for _ in range(repeats):
        a = 0.5 * np.eye(4)
        b = np.full((4, 4), 0.1)
        acc = 0.0
        for i in range(3000):
            a = a @ b + np.eye(4)
            a = 0.5 * (a + a.T)
            w, _ = np.linalg.eigh(a)
            acc += float(w[0]) * 1e-9 + (i % 7) * 0.5
    return (time.perf_counter() - start) / repeats


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the machine speed where the reference kernel takes REF_SECONDS."""
    return seconds * REF_SECONDS / (0.5 * (ref_before + ref_after))


def measure_setup(workload: str, seed: int, workdir: Path,
                  tiny: bool) -> list[list[float]]:
    """Wall times of fresh processes that import ``seqvol`` and warm up once.

    Returns ``[wall, reference kernel before, reference kernel after]`` per
    process.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    samples = []
    ref = reference_kernel()
    for _ in range(1 if tiny else SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        after = reference_kernel()
        samples.append([wall, ref, after])
        ref = after
    return samples


def timed_ops(wl, seconds: float, max_ops: int | None, tracer=None):
    """Run operations until ``seconds`` have passed; at least one runs.

    The reference kernel is timed before each operation and after the last.
    With a tracer, operations alternate untraced and traced, so that drift
    over the run affects both alike. Returns ``(ops, raised)``: one record
    per operation that returned, and the number of operations that raised.
    """
    ops = []
    raised = 0
    started = time.perf_counter()
    index = 0
    ref = reference_kernel(wl.reference_repeats)
    while True:
        tracing = tracer is not None and index % 2 == 1
        if tracing:
            tracer.reset()
            tracer.enable()
        t0 = time.perf_counter()
        try:
            result = wl.op(index)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            raised += 1
            result = None
        finally:
            elapsed = time.perf_counter() - t0
            if tracing:
                tracer.disable()
        after = reference_kernel(wl.reference_repeats)
        if result is not None:
            ops.append({
                "wall": elapsed,
                "scale": scaled(1.0, ref, after),
                "steps": wl.steps(result),
                "layers": tracer.metrics(elapsed, wl.lookups(result)) if tracing else None,
            })
            wl.record(index, result)
        ref = after
        index += 1
        out_of_time = time.perf_counter() - started >= seconds
        if (out_of_time or (max_ops and index >= max_ops)) and (tracer is None or index >= 2):
            return ops, raised


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import_package()
    from workloads import WORKLOADS

    info = machine()
    scratch_root = ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    try:
        wl = WORKLOADS[workload](seed, workdir, tiny)
        reference_kernel()  # the first run of the kernel pays numpy's own warm-up
        setup = [] if trace else measure_setup(workload, seed, workdir, tiny)
        wl.warmup()
        tracer = None
        if trace:
            from tracer import COUNTS, Tracer

            tracer = Tracer()
            tracer.install()
        ops, raised = timed_ops(wl, seconds, 1 if tiny else None, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain = [op for op in ops if op["layers"] is None]
        traced = [op for op in ops if op["layers"] is not None]
        if not plain or (trace and not traced):
            sys.exit("error: no operation completed")
        failed_ops, problems = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": workload, "seed": seed, "machine": info, "problems": problems,
              "samples": len(plain),
              "op_times": [round(op["wall"], 4) for op in plain],
              "op_scales": [round(op["scale"], 4) for op in plain]}
    attempted = len(ops) + raised
    adjusted = [op["wall"] * op["scale"] for op in plain]
    if not trace:
        op_tail, percentile = tail(adjusted)
        metrics = {
            "op_s": statistics.median(adjusted),
            "op_s_tail": op_tail,
            "steps_per_s": statistics.median(op["steps"] / t for op, t in zip(plain, adjusted)),
            "setup_s": statistics.median(scaled(*s) for s in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        walls = [op["wall"] for op in plain]
        detail.update(tail_percentile=percentile,
                      wall={"op_s": statistics.median(walls), "op_s_tail": tail(walls)[0],
                            "steps_per_s": statistics.median(
                                op["steps"] / op["wall"] for op in plain),
                            "setup_s": statistics.median(s[0] for s in setup)},
                      setup_times=[[round(v, 5) for v in s] for s in setup])
    else:
        units = PER_LAYER_UNITS
        # times are scaled like the end-to-end ones; counts are taken as they are
        layers = [{k: v * op["scale"] if units.get(k) in ("s", "us") or k == "_self_sum" else v
                   for k, v in op["layers"].items()} for op in traced]
        first = layers[0]
        metrics = {k: (first[k] if k in COUNTS else statistics.median(m[k] for m in layers))
                   for k in first if not k.startswith("_")}
        untraced_op = statistics.median(adjusted)
        metrics["trace.overhead_s"] = statistics.median(
            op["wall"] * op["scale"] for op in traced) - untraced_op
        self_sum = statistics.median(m["_self_sum"] for m in layers)
        metrics["trace.reconcile_gap"] = abs(self_sum - untraced_op) / untraced_op
        unsteady = [k for k in COUNTS if k in first and any(m[k] != first[k] for m in layers)]
        detail.update(reconciled_within_10pct=metrics["trace.reconcile_gap"] <= 0.10,
                      traced_samples=len(traced),
                      traced_op_times=[round(op["wall"], 4) for op in traced],
                      absent=tracer.absent, counts_differ_between_ops=unsteady,
                      wrapper_cost_us={"span": 1e6 * tracer.span_cost,
                                       "count": 1e6 * tracer.count_cost})
        absent = sorted(set(units) - set(metrics))
        if absent:
            detail["absent_metrics"] = absent
    failed = raised + sum(failed_ops)
    detail["fail_ratio"] = failed / attempted
    for name, value in metrics.items():
        wall = f" (wall {detail['wall'][name]:.6g})" if name in detail.get("wall", {}) else ""
        print(f"{workload} {name} = {value:.6g} {units[name]}{wall}")
    print(f"{workload} fail_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print("detail " + json.dumps(detail, sort_keys=True))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    code = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        if tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        code |= not result["correct"]
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
    print(f"{'workload':<14} {'metric':<12} {'value':>14} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<14} {name:<12} {value:>14.6g} {unit}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one operation, for the smoke test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:  # the fresh process whose wall time is setup_s
        import_package()
        from workloads import WORKLOADS
        WORKLOADS[args.workload].probe(args.workdir, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.tiny)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
