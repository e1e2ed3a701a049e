"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cag-qa-2k --seed 1 --seconds 20

Run from the root of a source checkout; cagkit is imported from ``src/``
there. With ``--trace 0`` the run is untraced and the last line of standard
output carries the end-to-end metrics; with ``--trace 1`` cagkit's public
functions are wrapped in spans and the last line carries the per-layer
metrics. Lines before it give every named metric with its unit and sample
count, the environment, the output checks and the output digest; the same
data goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``, and a traced
run also writes its spans next to it. The exit code is 0 only when every
operation and every output check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOAD_NAMES = ("cag-qa-2k", "cag-cold-6k", "rag-qa-1k", "train-lookup")

# metrics of the last output line, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "ops_per_s": "1/s",
    "peak_mem_mb": "MB",
}

# per-layer metrics of the last output line, in BENCHMARK.json order.
# ``.ms_per_op`` and ``.<count>_per_op`` cover the measure phase and are
# divided by the operations measured; ``.setup_ms`` is per set-up repetition.
# A function a workload does not call reads 0: no time or work was spent in
# it, which the traced run measured.
PER_LAYER = {
    "model.prefill.ms_per_op": "ms",
    "model.prefill.tokens_per_op": "count",
    "model.prefill.flops_per_op": "count",
    "model.decode.ms_per_op": "ms",
    "model.decode.calls_per_op": "count",
    "model.decode.kv_bytes_per_op": "B",
    "model.greedy_generate.ms_per_op": "ms",
    "kvcache.kv_encode.ms_per_op": "ms",
    "kvcache.kv_encode.tokens_per_op": "count",
    "kvcache.truncate_to.ms_per_op": "ms",
    "kvcache.truncate_to.calls_per_op": "count",
    "kvcache.save_cache.ms_per_op": "ms",
    "kvcache.save_cache.bytes_per_op": "B",
    "kvcache.verify_cache.ms_per_op": "ms",
    "kvcache.load_cache.ms_per_op": "ms",
    "kvcache.load_cache.bytes_per_op": "B",
    "kvcache.fnv1a64.ms_per_op": "ms",
    "retrieval.bm25_topk.ms_per_op": "ms",
    "retrieval.dense_topk.ms_per_op": "ms",
    "retrieval.embed_text.ms_per_op": "ms",
    "retrieval.rag_generate.ms_per_op": "ms",
    "retrieval.rag_generate.prefill_tokens_per_op": "count",
    "training.step.ms_per_op": "ms",
    "training.loss_and_grads.ms_per_op": "ms",
    "training.loss_and_grads_shared.ms_per_op": "ms",
    "training.adam_step.ms_per_op": "ms",
    "training.task_gen.ms_per_op": "ms",
    "weights.init_weights.setup_ms": "ms",
    "weights.load_weights.setup_ms": "ms",
    "kvcache.kv_encode.setup_ms": "ms",
    "retrieval.bm25_build.setup_ms": "ms",
    "retrieval.dense_build.setup_ms": "ms",
    "model.failed": "count",
    "kvcache.failed": "count",
    "retrieval.failed": "count",
    "training.failed": "count",
    "weights.failed": "count",
    "trace.measure_covered_pct": "%",
}

# named report metrics from raw samples: key -> (name, scale, unit)
SAMPLED = {
    "op_s": ("op_ms", 1e3, "ms"),
    "ttft_s": ("ttft_ms", 1e3, "ms"),
    "tpot_s": ("tpot_ms", 1e3, "ms"),
    "cag_s": ("cag_answer_ms", 1e3, "ms"),
    "rag_sparse_s": ("rag_sparse_ms", 1e3, "ms"),
    "rag_dense_s": ("rag_dense_ms", 1e3, "ms"),
    "cag_token_s": ("cag_answer_ms_per_token", 1e3, "ms"),
    "rag_sparse_token_s": ("rag_sparse_ms_per_token", 1e3, "ms"),
    "rag_dense_token_s": ("rag_dense_ms_per_token", 1e3, "ms"),
    "recompute_s": ("recompute_ms", 1e3, "ms"),
    "encode_s": ("encode_s", 1.0, "s"),
    "save_s": ("save_s", 1.0, "s"),
    "verify_s": ("verify_s", 1.0, "s"),
    "load_s": ("load_s", 1.0, "s"),
    "train_step_s": ("train_step_s", 1.0, "s"),
}


def pin_blas_threads() -> None:
    """Run BLAS on one thread; call before numpy is imported.

    The model's matrices are at most a few hundred wide, so a second BLAS
    thread buys little and makes timings depend on what else the machine
    runs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


IMPORT_REPEATS = 5


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and cagkit.

    The benchmark's own process imports them once; timing the import again
    in child processes gives set-up time a median of several imports.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); import numpy, cagkit; "
            "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy as np
    from cagkit.config import ModelConfig, config_hash

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "model_config_hash": f"{config_hash(ModelConfig(init_seed=0)):016x}",
    }


def named_metrics(run, setup_s: float, peak_mb: float) -> dict:
    """Every end-to-end metric the workload produces, by its report name."""
    from stats import summarize

    out = {"setup_s": {"value": setup_s, "unit": "s"},
           "peak_mem_mb": {"value": peak_mb, "unit": "MB"},
           "ops_per_s": {"value": len(run.samples.get("op_s", ()))
                         / run.window_s, "unit": "1/s"}}
    for key, (name, scale, unit) in SAMPLED.items():
        if run.samples.get(key):
            out[name] = dict(summarize([v * scale
                                        for v in run.samples[key]]),
                             unit=unit)
    questions = run.counts.get("queries", run.counts.get("questions", 0))
    if questions:
        out["queries_per_s"] = {"value": questions / run.window_s,
                                "unit": "1/s", "n": int(questions)}
    for path in ("rag_sparse", "rag_dense"):
        if f"{path}_tokens" in run.counts:
            out[f"{path}_answer_tokens"] = {
                "value": run.counts[f"{path}_tokens"] / questions,
                "unit": "count", "n": int(questions)}
    if run.counts.get("train_tokens"):
        out["train_tokens_per_s"] = {
            "value": run.counts["train_tokens"]
            / sum(run.samples["train_step_s"]), "unit": "1/s"}
    attempted = run.ops + run.checks.attempted
    failed = run.ops_failed + run.checks.failed
    out["error_rate"] = {"value": failed / attempted, "unit": "share",
                         "failed": failed, "attempted": attempted}
    return out


def layer_metrics(run, tracer) -> dict:
    """Per-layer metrics from the spans of a traced run, by metric name.

    Measure-phase figures are divided by the operations measured, and
    set-up figures by the set-up repetitions, so that they follow a layer's
    speed and work per operation, not how many operations fit in the run.
    """
    from spans import aggregate, covered_seconds, under

    base = ("calls", "failed", "s", "self_s")
    out: dict[str, float] = {}
    measured = aggregate(tracer.spans, tracer.names, "measure")
    for name, f in sorted(measured.items()):
        out[f"{name}.ms_per_op"] = 1e3 * f["s"] / run.ops
        out[f"{name}.self_ms_per_op"] = 1e3 * f["self_s"] / run.ops
        out[f"{name}.calls_per_op"] = f["calls"] / run.ops
        if f["calls"]:
            out[f"{name}.ms_per_call"] = 1e3 * f["s"] / f["calls"]
        for key in sorted(set(f) - set(base)):
            out[f"{name}.{key}_per_op"] = f[key] / run.ops
    setup = aggregate(tracer.spans, tracer.names, "setup")
    for name, f in sorted(setup.items()):
        out[f"{name}.setup_ms"] = 1e3 * f["s"] / len(run.setup_rep_s)
    for layer in ("model", "kvcache", "retrieval", "training", "weights"):
        out[f"{layer}.failed"] = sum(s.failed for s in tracer.spans
                                     if s.name.startswith(layer + "."))
    out["retrieval.rag_generate.prefill_tokens_per_op"] = under(
        tracer.spans, "retrieval.rag_generate", "model.prefill", "tokens",
        "measure") / run.ops
    questions = run.counts.get("questions", 0)
    if questions:
        out["retrieval.sparse.recall_at_k"] = \
            run.counts.get("sparse_hits", 0) / questions
        out["retrieval.dense.recall_at_k"] = \
            run.counts.get("dense_hits", 0) / questions
    if run.counts.get("train_tokens"):
        out["training.tokens_per_step"] = \
            run.counts["train_tokens"] / len(run.samples["train_step_s"])
    wall = sum(run.phase_s.values())
    for phase, seconds in run.phase_s.items():
        out[f"trace.{phase}_covered_pct"] = \
            100.0 * covered_seconds(tracer.spans, phase) / seconds
    out["trace.run_covered_pct"] = 100.0 * sum(
        s.seconds for s in tracer.spans if s.parent < 0) / wall
    return out


def contract_value(name: str, named: dict, layers: dict | None) -> float:
    if layers is not None:
        return layers[name]
    if name == "op_ms.p50":
        return named["op_ms"]["p50"]
    return named[name]["value"]


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}")
    for key, val in result["environment"].items():
        print(f"  env {key} = {val}")
    for name, m in result["named"].items():
        stats = "  ".join(f"{k} {v:.6g}" for k, v in m.items()
                          if k not in ("unit", "n", "failed", "attempted"))
        extra = f"  n {m['n']}" if "n" in m else ""
        if "attempted" in m:
            extra = f"  failed {m['failed']} of {m['attempted']}"
        print(f"  {name} [{m['unit']}]  {stats}{extra}")
    for name, val in result.get("layers", {}).items():
        if val or name in PER_LAYER:
            print(f"  layer {name} = {val:.6g}")
    for name, c in result["checks"]["by_name"].items():
        print(f"  check {name}: {c['attempted'] - c['failed']} of "
              f"{c['attempted']} passed")
    for line in result["checks"]["failures"] + result["op_failures"]:
        print(f"  FAILED {line}")
    for key, val in result["inputs"].items():
        print(f"  input {key} = {val}")
    print(f"  digest {result['digest']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cagkit" / "__init__.py").is_file():
        print(f"error: no cagkit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imports count towards set-up time)
    import cagkit
    import_rep_s = [time.perf_counter() - t0]
    if SRC not in Path(cagkit.__file__).resolve().parents:
        print(f"error: cagkit was imported from {cagkit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import_rep_s += [fresh_import_seconds()
                     for _ in range(IMPORT_REPEATS - 1)]

    from spans import Tracer
    from stats import median, summarize
    from workloads import WORKLOADS, Run

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = Run(args.seed, args.seconds, Path(tmp), tracer)
        if tracer is None:
            WORKLOADS[args.workload](run)
        else:
            with tracer:
                WORKLOADS[args.workload](run)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = median(import_rep_s) + median(run.setup_rep_s)
    named = named_metrics(run, setup_s, peak_mb)
    named["import_s"] = dict(summarize(import_rep_s), unit="s")
    layers = layer_metrics(run, tracer) if tracer is not None else None
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "named": named,
        "phase_s": run.phase_s,
        "checks": run.checks.to_dict(),
        "op_failures": run.failures,
        "inputs": run.info,
        "digest": run.digest.hexdigest(),
    }
    if layers is not None:
        result["layers"] = layers
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}-spans.json")
    print_report(result)

    wanted = PER_LAYER if layers is not None else END_TO_END
    attempted = run.ops + run.checks.attempted
    failed = run.ops_failed + run.checks.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": contract_value(name, named, layers),
                           "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
