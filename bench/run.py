"""Benchmark of triphoton: the scan-d8, export-d12 and certify workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload scan-d8 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --seed 0      # every workload, each in its own process

One process runs one workload as a single closed-loop caller with BLAS and
OpenMP pinned to one thread. With --trace 0 it times operations untraced,
times the workload's reference work (reference.py) after each of them, and
prints the end-to-end metrics. With --trace 1 it runs every input untraced
and traced, back to back, and prints the per-layer metrics. Metric names
and units come from BENCHMARK.json. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
environment, every sample, the output digests and the spans of a run are
written to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 7
REF_SHARE = 0.5  # reference seconds timed after an op, per second of the op
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# span name -> per-layer metric; spans not listed are named "<span>_s"
_SPAN_METRIC = {
    "op": "trace.unattributed_s",
    "scan.scan_pair": "scan.scan_pair_residual_s",
    "cli.main": "cli.write_s",
}
# layers timed per basis (per call) rather than per operation
_PER_CALL = {"states.sample", "scan.simulate_adaptive_scan"}
# units of the metrics that are printed and saved but not declared
_EXTRA_UNITS = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "triplets_per_s": "1/s",
    "error_rate": "ratio",
    "op_s.samples": "count",
    "traced_op_s.samples": "count",
    "ref_s.mean": "s",
    "ref.samples": "count",
}


def _metric_of(span: str) -> str:
    return _SPAN_METRIC.get(span, f"{span}_s")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload_seed": seed,
    }


def _time_reference(kernels, budget: float) -> list[float]:
    """Reference timings until `budget` seconds have gone on them (one at least)."""
    import reference

    samples = [reference.time_once(kernels)]
    while sum(samples) < budget:
        samples.append(reference.time_once(kernels))
    return samples


def _probe_setup(args) -> float:
    """Set-up seconds (import, config load, inputs) in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """One workload's operations, their timings, faults and trace."""

    def __init__(self, workload, tracer, null_tracer):
        self.wl = workload
        self.tracer = tracer
        self.null_tracer = null_tracer
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def attempt(self, i: int, traced: bool):
        """One checked operation; returns (outputs or None, seconds)."""
        gc.collect()
        self.attempted += 1
        try:
            if traced:
                self.tracer.op_id = i
                with self.tracer.instrument():
                    t0 = time.perf_counter()
                    with self.tracer.span("op"):
                        out = self.wl.run(i, self.tracer)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = self.wl.run(i, self.null_tracer)
                dt = time.perf_counter() - t0
            problems = self.wl.check(i, out)
        except Exception:
            problems = ["raised " + traceback.format_exc(limit=3)]
            out, dt = None, None
        self.failed += bool(problems)
        self.faults += [f"op {i}{' traced' if traced else ''}: {p}" for p in problems]
        return (out if not problems else None), dt


def measure(args, spec: dict) -> dict:
    import tracing
    import workloads

    setup: list[float] = []
    tracer = tracing.Tracer() if args.trace else tracing.NULL
    work_dir = RESULTS / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tracer, work_dir)
        run = Run(wl, tracer, tracing.NULL)

        # warm-up: op 0, untimed; the first timed op repeats it for the
        # determinism check
        first, _ = run.attempt(0, traced=False)
        digest = wl.digest(first) if first is not None else None
        repeat_digest = first = None
        _time_reference(wl.reference, 0.0)

        untraced, inputs, traced, counts, ref = [], [], [], [], []
        start = time.perf_counter()
        i = 0
        while i < wl.cycle or time.perf_counter() - start < args.seconds:
            # set-up probes are spread over the run, so that they sample the
            # same stretch of machine time as the ops do
            if time.perf_counter() - start >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(_probe_setup(args))
            order = (False, True) if (i // wl.cycle) % 2 == 0 else (True, False)
            for mode in order if args.trace else (False,):
                out, dt = run.attempt(i, mode)
                if dt is not None and mode:
                    traced.append(dt)
                elif dt is not None:
                    untraced.append(dt)
                    inputs.append(i % wl.cycle)
                if i == 0 and not mode and out is not None:
                    repeat_digest = wl.digest(out)
                if mode and i < wl.cycle and out is not None:
                    counts.append(wl.counts(out))
                out = None  # the next op starts with only its own data live
                if dt is not None and not args.trace:
                    ref += _time_reference(wl.reference, REF_SHARE * dt)
            i += 1
        setup += [_probe_setup(args) for _ in range(SETUP_REPEATS - len(setup))]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    deterministic = digest is not None and digest == repeat_digest
    ops_per_s = len(untraced) / sum(untraced) if untraced else 0.0
    # The inputs of a cycle differ in cost (scan-d8 alternates two states),
    # so the median is taken per input and then averaged over the cycle: a
    # median of the pooled times would sit in the gap between the inputs.
    by_input = [[t for t, k in zip(untraced, inputs) if k == j] for j in range(wl.cycle)]
    op_s = statistics.fmean(statistics.median(g) for g in by_input if g)
    extra = {
        "op_s.p50": op_s,
        "op_s.p90": _p90(untraced),
        "ops_per_s": ops_per_s,
        "triplets_per_s": wl.triplets_per_op * ops_per_s,
        "error_rate": run.failed / run.attempted,
        "op_s.samples": len(untraced),
    }
    if args.trace:
        values = _layer_metrics(spec, tracer, untraced, traced, counts)
        extra["traced_op_s.samples"] = len(traced)
    else:
        # Means, not medians: the host switches between fast and slow spells,
        # and a ratio of means cancels the share of time spent in each.
        values = {
            "op_ref.mean": statistics.fmean(untraced) / statistics.fmean(ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        extra.update({"ref_s.mean": statistics.fmean(ref), "ref.samples": len(ref)})
    names = spec["per_layer" if args.trace else "end_to_end"]
    return {
        "result": {
            "correct": deterministic and not run.faults,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
        },
        "extra": extra,
        "deterministic": deterministic,
        "sha256": digest,
        "faults": run.faults,
        "samples": {
            "op_s": untraced,
            "op_input": inputs,
            "ref_s": ref,
            "traced_op_s": traced,
            "setup_s": setup,
        },
        "spans": tracer.records() if args.trace else [],
    }


def _layer_metrics(spec: dict, tracer, untraced: list[float], traced: list[float],
                   counts: list) -> dict:
    selfs = tracer.self_times()
    ops = [op for op in selfs if op != "setup"]
    total, calls = Counter(), Counter()
    for op in ops:
        for name, (secs, n) in selfs[op].items():
            total[name] += secs
            calls[name] += n
    # a layer the workload does not run reads 0
    values = {m["name"]: 0.0 for m in spec["per_layer"] if m["unit"] == "s"}
    for name in total:
        per = calls[name] if name in _PER_CALL else len(ops)
        values[_metric_of(name)] = total[name] / per
    values["spdc.load_config_s"] = selfs.get("setup", {}).get("spdc.load_config", (0.0, 0))[0]

    c = sum(counts, Counter())
    per_op = max(len(counts), 1)
    values.update({
        "scan.n_cells": c["n_cells"] / per_op,
        "scan.n_leaves": c["n_leaves"] / per_op,
        "scan.occupied_leaf_ratio": c["occupied_leaves"] / c["n_leaves"] if c["n_leaves"] else 0.0,
        "scan.kept_ratio": c["kept"] / c["n_samples"] if c["n_samples"] else 0.0,
        "scan.sample_bytes_computed": c["sample_bytes"] / c["bases"] if c["bases"] else 0.0,
        "entropy.hist_bins": c["hist_bins"] / per_op,
        "cli.bytes_written": c["bytes_written"] / per_op,
        "trace.op_s.p50": statistics.median(traced),
        "trace.untraced_op_s.p50": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.self_sum_s": sum(t for name, t in total.items() if name != "op") / len(ops),
    })
    return values


def _setup_only(args) -> int:
    t0 = time.perf_counter()
    import tracing
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.smoke, tracing.NULL, RESULTS)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _run_all(args, spec: dict) -> int:
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status |= subprocess.run(cmd, timeout=600).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="triphoton benchmark")
    p.add_argument("--workload", choices=["all", *names], default="all")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "triphoton" / "__init__.py").is_file():
        print(f"error: no triphoton package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return _run_all(args, spec)
    if args.setup_only:
        return _setup_only(args)

    env = _environment(args.seed)
    res = measure(args, spec)
    result = res.pop("result")
    spans = res.pop("spans")
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "result": result, **res}, indent=1) + "\n"
    )
    if spans:
        (RESULTS / f"{stem}_spans.json").write_text(json.dumps(spans) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in res["extra"].items():
        if name != "triplets_per_s" or value:
            print(f"  {name} = {value:.6g} {_EXTRA_UNITS[name]}")
    for fault in res["faults"]:
        print(f"  FAULT {fault}")
    print(f"  deterministic = {res['deterministic']}  sha256 = {res['sha256']}")
    print(f"  env = {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
