"""Run every workload untraced and then traced, and print one report.

    python3 perfbench/report.py --seed 1 --seconds 20

For each workload it prints every named end-to-end metric with its unit and
sample count from the untraced run, the same metric from the traced run and
their difference (the tracing overhead, which includes run-to-run noise),
how much of each phase the traced run's top-level spans cover, and the time
per measured operation of every traced layer function. It exits nonzero if
any run failed or if tracing changed a workload's output digest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
STATS = ("p50", "p90", "p99", "value")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    if proc.returncode not in (0, 1) or not path.is_file():
        sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode, None
    return proc.returncode, json.loads(path.read_text())


def print_workload(plain: dict, traced: dict) -> None:
    print(f"  {'metric':32s} {'unit':5s} {'n':>6s} {'untraced':>12s} "
          f"{'traced':>12s} {'overhead':>10s}")
    for name, m in plain["named"].items():
        t = traced["named"].get(name, {})
        for stat in STATS:
            if stat not in m:
                continue
            label = name if stat == "value" else f"{name}.{stat}"
            n = m.get("n", m.get("attempted", ""))
            row = f"  {label:32s} {m['unit']:5s} {n!s:>6s} {m[stat]:12.6g}"
            if stat in t:
                diff = t[stat] - m[stat]
                share = f" ({100 * diff / m[stat]:+.1f}%)" if m[stat] else ""
                row += f" {t[stat]:12.6g} {diff:+10.4g}{share}"
            print(row)
    layers = traced["layers"]
    for key in sorted(k for k in layers if k.startswith("trace.")):
        print(f"  {key} = {layers[key]:.2f}")
    times = sorted(((v, k[:-len(".ms_per_op")]) for k, v in layers.items()
                    if k.endswith(".ms_per_op") and v), reverse=True)
    for ms, fn in times:
        print(f"  layer {fn:36s} {ms:10.4f} ms/op  self "
              f"{layers[fn + '.self_ms_per_op']:10.4f} ms/op  calls/op "
              f"{layers[fn + '.calls_per_op']:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOAD_NAMES:
        rc_plain, plain = run_workload(workload, args.seed, args.seconds, 0)
        rc_traced, traced = run_workload(workload, args.seed, args.seconds, 1)
        print(f"== {workload}  seed {args.seed}  seconds {args.seconds}")
        if plain is None or traced is None:
            print("  FAILED: no result")
            ok = False
            continue
        print_workload(plain, traced)
        same = plain["digest"] == traced["digest"]
        print(f"  digest {plain['digest']} "
              f"({'same' if same else 'DIFFERENT'} when traced)")
        ok &= rc_plain == 0 and rc_traced == 0 and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
