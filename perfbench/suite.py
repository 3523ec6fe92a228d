"""Run every benchmark workload, each in a fresh process, and print the
end-to-end metrics with unit and sample count.

    python3 perfbench/suite.py --seed 0 --seconds 28

With ``--record PATH`` it also makes, per workload, two traced runs and one
run with OPENBLAS_NUM_THREADS=1 and CSTAR_MIXING_THREADS=1 (the plain
single-threaded baseline, informational and outside the gated runs), and
writes everything to PATH as JSON: the environment, the end-to-end and
per-layer metrics, the tracing overhead (traced minus untraced end-to-end),
and whether the linear-algebra call counts repeat exactly across the two
traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-examples", "random-channels", "verify-ensemble")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "CSTAR_MIXING_THREADS": "1"}


def run(workload: str, seed: int, seconds: float, trace: int,
        env_extra: dict | None = None) -> dict:
    """One fresh-process run of run.py, with its output lines and the
    parsed result and environment."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(os.environ, **(env_extra or {}))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1]), "lines": lines[:-1]}
    for line in out["lines"]:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
    return out


def metric_values(out: dict, prefix: str) -> dict:
    """Parse 'metric NAME = VALUE UNIT (n=N) NOTE' lines."""
    values = {}
    for line in out["lines"]:
        if line.startswith(prefix + "metric "):
            name, _, rest = line[len(prefix) + 7:].partition(" = ")
            values[name] = float(rest.split()[0])
    return values


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--record", metavar="PATH")
    args = p.parse_args()

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        print(f"== {workload}")
        plain = run(workload, args.seed, args.seconds, 0)
        for line in plain["lines"]:
            if line.startswith(("metric ", "info ")):
                print("  " + line)
        entry = {"env": plain["env"], "result": plain["result"],
                 "end_to_end": metric_values(plain, ""),
                 "info": [line[5:] for line in plain["lines"]
                          if line.startswith("info ")]}
        record["workloads"][workload] = entry
        if not args.record:
            continue

        traced = [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        untraced_e2e = entry["end_to_end"]
        traced_e2e = metric_values(traced[0], "traced ")
        entry["tracing_overhead"] = {
            name: traced_e2e[name] - untraced_e2e[name]
            for name in ("latency_p50_s", "throughput_ops_s")}
        layers = [t["result"]["metrics"] for t in traced]
        counts = [{k: v["value"] for k, v in m.items()
                   if k.startswith("linalg.")} for m in layers]
        entry["per_layer"] = {k: v["value"] for k, v in layers[0].items()}
        entry["linalg_counts_repeat_exactly"] = counts[0] == counts[1]
        entry["class_counts"] = [line[5:] for line in traced[0]["lines"]
                                 if line.startswith("info counts ")]
        single = run(workload, args.seed, args.seconds, 0, SINGLE_THREAD)
        entry["single_threaded"] = {
            "env": single["env"], "end_to_end": metric_values(single, ""),
            "info": [line[5:] for line in single["lines"]
                     if line.startswith("info class ")]}
        print(f"  tracing overhead: {entry['tracing_overhead']}")
        print(f"  linalg counts repeat exactly across two traced runs: "
              f"{entry['linalg_counts_repeat_exactly']}")
        print(f"  single-threaded: {entry['single_threaded']['end_to_end']}")

    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"record: {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
