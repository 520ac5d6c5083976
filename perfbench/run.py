"""Benchmark runner for the HDC edge stack.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-sweep --seed 1 \\
        --seconds 15 --trace 0

One invocation runs one workload (see ``perfbench/workloads.py``) in
this process: it builds the inputs from ``--seed`` at least five times
before the passes and once after each (the median is ``setup_s``), then
repeats measured passes of train → deploy → serve until ``--seconds``
have elapsed, and reports medians over the passes.  A workload whose
training is short times extra trainings after each pass for
``train_s``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics (see ``perfbench/spans.py``).

Every pass is checked: each request must be served or dropped, every
pass must produce the same modeled-output digest, and at the default
seed the digest must match ``perfbench/golden.json``.  A failed check
counts the pass's requests as failed.

The last line of standard output is the result JSON.  The line before
it holds the details: host environment, per-pass samples with their
quartiles, digests and modeled values.  A traced run also prints a
per-layer table to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 3
UNATTRIBUTED_LIMIT = 0.10

def _prepare_environment() -> int:
    """Pin thread pools and caches before numpy loads; put the
    checkout's ``src`` first on the path.  Returns the core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    # The native kernels compile on first use; keep the build inside
    # the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build"
                                           / "repro-native")
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro must load from {ROOT / 'src'}, "
                         f"not {repro.__file__}")
    return nproc


def _git_commit() -> str | None:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if (done.returncode != 0 or len(lines) != 2
            or Path(lines[0]).resolve() != ROOT):
        return None
    return lines[1]


def environment(nproc: int) -> dict:
    """The host facts a wall-clock figure depends on."""
    import numpy as np

    from repro import native

    flags: set[str] = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "avx512_vnni": "avx512_vnni" in flags,
        "blas": blas_name,
        "native": native.available(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile, and sample count."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, inputs, traced: bool):
    """One measured pass; returns ``(outcome, layers, spans)`` where
    the last two are ``None`` unless traced."""
    import spans

    gc.collect()
    if not traced:
        return workload.run(inputs), None, None
    log = spans.SpanLog()
    uninstall = spans.install(log)
    try:
        outcome = workload.run(inputs)
    finally:
        uninstall()
    own = log.self_times()
    layers = {name: own.get(name, (0.0, 0))[0] for name in spans.TIMED}
    layers.update({name: log.counts[name] for name in spans.COUNTED})
    calls = log.counts["runtime.compile_cache_calls"]
    layers["runtime.compile_cache_hit_ratio"] = (
        log.counts["runtime.compile_cache_hits"] / calls if calls else 0.0)
    layers.update(outcome.serving)
    layers["trace.unattributed_s"] = outcome.wall["wall_s"] - sum(
        seconds for seconds, _ in own.values())
    return outcome, layers, {name: count for name, (_, count) in own.items()}


def layer_table(layers: dict, span_counts: dict, wall: float) -> str:
    """Per layer: self time, share of traced wall, calls and rows."""
    import spans

    lines = [f"{'layer metric':26s} {'self s':>9s} {'share':>6s} "
             f"{'calls':>8s} {'rows':>9s}"]
    for name in spans.TIMED:
        seconds = layers[name]
        # ``x_s`` pairs with the counters ``x_calls`` / ``x_rows``.
        stem = name[:-len("_s")]
        calls = layers.get(f"{stem}_calls", span_counts.get(name, 0))
        rows = layers.get(f"{stem}_rows", "")
        lines.append(f"{name:26s} {seconds:9.4f} {seconds / wall:6.1%} "
                     f"{calls:>8} {rows:>9}")
    unattributed = layers["trace.unattributed_s"]
    lines.append(f"{'trace.unattributed_s':26s} {unattributed:9.4f} "
                 f"{unattributed / wall:6.1%}")
    if unattributed > UNATTRIBUTED_LIMIT * wall:
        lines.append(f"FLAG: unattributed time exceeds "
                     f"{UNATTRIBUTED_LIMIT:.0%} of traced wall time")
    return "\n".join(lines)


def run(args) -> tuple[dict, dict]:
    """Measure one workload; returns ``(details, result)``."""
    nproc = _prepare_environment()
    # Modules that load numpy or repro import only after the line above.
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.size)
    clock = time.perf_counter

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        inputs = workload.setup(args.seed)
        setup_samples.append(clock() - start)
    env = environment(nproc)
    golden = None
    if args.seed == DEFAULT_SEED:
        goldens = json.loads((HERE / "golden.json").read_text())
        golden = goldens.get(args.workload, {}).get(args.size)

    passes = []
    errors = []
    attempted = failed = 0
    reference = None
    # A traced run needs two passes of each kind for its medians.
    minimum = 4 if args.trace else MIN_PASSES
    deadline = clock() + args.seconds
    pass_seconds: list[float] = []
    train_samples: list[float] = []
    # Start another pass only if a typical one would end by the deadline.
    while (len(passes) < minimum
           or clock() + statistics.median(pass_seconds) < deadline):
        started = clock()
        untraced_count = sum(not p["traced"] for p in passes)
        traced = bool(args.trace) and untraced_count > len(passes) / 2
        try:
            outcome, layers, span_counts = measure(workload, inputs, traced)
        except Exception:  # report the run as failed rather than crash
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            lost = workload.offered(inputs)
            attempted += lost
            failed += lost
            break
        if not traced:
            train_samples.append(outcome.wall["train_s"])
            for _ in range(workload.EXTRA_TRAINS):
                start = clock()
                workload.train(inputs)
                train_samples.append(clock() - start)
        # One more set-up between passes: the set-up median then spans
        # the whole run instead of its first fraction of a second.
        start = clock()
        inputs = workload.setup(args.seed)
        setup_samples.append(clock() - start)
        pass_seconds.append(clock() - started)
        attempted += outcome.offered
        reference = reference or outcome.digest
        digest_ok = (outcome.digest == reference
                     and (args.seed != DEFAULT_SEED
                          or outcome.digest == golden))
        failed += (max(0, outcome.offered - outcome.accounted)
                   if digest_ok else outcome.offered)
        passes.append({"traced": traced, "outcome": outcome,
                       "layers": layers, "spans": span_counts,
                       "digest_ok": digest_ok})

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    samples = {name: [p["outcome"].wall[name] for p in untraced]
               for name in ("wall_s", "serve_s")}
    samples["train_s"] = train_samples
    samples["sim_rps"] = [p["outcome"].offered / p["outcome"].wall["serve_s"]
                          for p in untraced]
    samples["setup_s"] = setup_samples
    modeled = untraced[0]["outcome"].modeled if untraced else {}
    modeled_traced = (traced_passes[0]["outcome"].modeled
                      if traced_passes else None)
    if modeled_traced is not None and modeled_traced != modeled:
        failed = attempted

    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "env": env,
        "dispersion": {name: quartiles(values)
                       for name, values in samples.items() if values},
        "passes": [{"traced": p["traced"], "digest": p["outcome"].digest,
                    "digest_ok": p["digest_ok"],
                    "offered": p["outcome"].offered,
                    "accounted": p["outcome"].accounted,
                    **p["outcome"].wall} for p in passes],
        "golden": golden, "modeled": modeled,
        "modeled_traced": modeled_traced, "errors": errors,
    }
    values: dict = {}
    if not args.trace:
        metric_specs = spec["end_to_end"]
        if untraced:
            values.update({name: statistics.median(series)
                           for name, series in samples.items()})
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            values.update(modeled)
    else:
        metric_specs = spec["per_layer"]
        if traced_passes and untraced:
            for name in traced_passes[0]["layers"]:
                series = [p["layers"][name] for p in traced_passes]
                # Counts repeat exactly; keep them whole numbers.
                values[name] = (statistics.median_low(series)
                                if isinstance(series[0], int)
                                else statistics.median(series))
            traced_wall = statistics.median(
                p["outcome"].wall["wall_s"] for p in traced_passes)
            values["trace.overhead_frac"] = (
                traced_wall / statistics.median(samples["wall_s"]) - 1.0)
            print(f"[{args.workload} seed={args.seed}: median of "
                  f"{len(traced_passes)} traced passes, wall "
                  f"{traced_wall:.4f}s]\n"
                  + layer_table(values, traced_passes[0]["spans"],
                                traced_wall), file=sys.stderr)
            details["layers"] = values
            details["unattributed_flag"] = (values["trace.unattributed_s"]
                                            > UNATTRIBUTED_LIMIT
                                            * traced_wall)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs if m["name"] in values}
    result = {"correct": failed == 0 and len(metrics) == len(metric_specs),
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure one workload of the HDC edge stack.")
    parser.add_argument("--workload", required=True,
                        choices=("isolet-pipeline", "fleet-sweep",
                                 "fleet-elastic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)
    details, result = run(args)
    print(json.dumps({"detail": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
