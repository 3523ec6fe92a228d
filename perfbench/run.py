"""Seeded benchmark of cstar_mixing: classify, verify and the CLI examples.

Run from the root of a checkout:

    python3 perfbench/run.py --workload random-channels --seed 0 \
        --seconds 28 --trace 0

The load generator is one process and one thread in a closed loop: the next
operation starts when the previous one returns. The library keeps its own
thread defaults (CSTAR_MIXING_THREADS and the BLAS thread variables are
read from the environment, never set here). Set-up (import of the library
from the checkout's ``src`` plus construction of the seeded inputs) is
repeated in fresh processes and reported as a median. The loop runs whole
rounds, one operation of every input class each, until at least
``--seconds`` have passed. Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the library's public functions and its numpy/scipy linear-algebra entry
points are wrapped (see ``tracing.py``), the loop is repeated under them,
and the per-layer metrics are reported; the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()   # set-up is timed from here, before any import

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 8           # fresh-process set-ups besides this process's own
SEED_RANGE = 2 ** 63        # numpy takes only non-negative seeds


def _import_library():
    """Import cstar_mixing from this checkout's src, and nowhere else."""
    if SRC in sys.path:
        import cstar_mixing
        return cstar_mixing
    if not os.path.isfile(os.path.join(SRC, "cstar_mixing", "__init__.py")):
        sys.exit(f"error: no library source at {SRC}; run from the root of "
                 f"a full checkout")
    sys.path.insert(0, SRC)
    import cstar_mixing
    if not os.path.abspath(cstar_mixing.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: cstar_mixing imported from {cstar_mixing.__file__}, "
                 f"not from {SRC}")
    return cstar_mixing


def _setup(workload, seed: int):
    _import_library()
    rounds = workload.setup(seed)
    return rounds, time.perf_counter() - _T0


def _setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Digest of the library sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cstar_mixing")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    from cstar_mixing import mixing
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "CSTAR_MIXING_THREADS": os.environ.get("CSTAR_MIXING_THREADS",
                                               "unset"),
        "verify_trial_threads": mixing._thread_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Per-operation record of the loop."""

    item: object
    index: int
    latency: float
    correct: bool
    failed: int         # failed units (trials on verify-ensemble)
    out_dir: str | None


def _one(workload, item, index: int, scratch: str, tracer=None):
    out_dir = workload.prepare(item, scratch, index)
    output = error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(item, out_dir)
        else:
            with tracer.op(str(index), item.label):
                output = workload.run(item, out_dir)
    except Exception as exc:   # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    correct = False
    if error is None:
        try:
            correct = workload.observe(item, output, out_dir) == \
                workload.expect(item)
        except Exception as exc:   # a check that breaks is a wrong output
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    if error is not None:
        print(f"op {index} ({item.label}) failed: {error}", file=sys.stderr)
    elif not correct:
        print(f"op {index} ({item.label}) wrong output", file=sys.stderr)
    failed = item.units if error is not None else \
        workload.failed_units(item, output, correct)
    return Outcome(item, index, latency, correct, failed, out_dir), output


def run_loop(workload, rounds, seconds: float, scratch: str, tracer=None):
    """Whole rounds until ``seconds`` have passed; returns outcomes and the
    first operation's output (for the self-check)."""
    outcomes, first = [], None
    start = time.perf_counter()
    for ops in rounds:
        for item in ops:
            outcome, output = _one(workload, item, len(outcomes), scratch,
                                   tracer)
            if first is None:
                first = (outcome, output)
            outcomes.append(outcome)
        if time.perf_counter() - start >= seconds:
            break
    else:
        print(f"note: all prepared rounds used before {seconds} s",
              file=sys.stderr)
    return outcomes, first


def self_check(workload, first) -> bool:
    """A flipped expected verdict must be counted as a wrong output."""
    outcome, output = first
    if not outcome.correct:
        return True     # already counted as a failure
    expected = workload.expect(outcome.item)
    key = next(iter(expected))
    expected[key] = not expected[key]
    return workload.observe(outcome.item, output, outcome.out_dir) != expected


def tail(latencies: list[float], permille: int) -> tuple[float, int]:
    """Latency at the given per-mille percentile by nearest rank, and the
    number of samples beyond it."""
    xs = sorted(latencies)
    rank = -(-permille * len(xs) // 1000)
    return xs[rank - 1], len(xs) - rank


def end_to_end(outcomes, setups: list[float], units: int, failed: int,
               tail_permille: int) -> dict:
    lat = [o.latency for o in outcomes]
    tail_value, beyond = tail(lat, tail_permille)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setups), "s", len(setups), ""),
        "throughput_ops_s": (units / sum(lat), "1/s", units,
                             "per trial" if units != len(lat) else ""),
        "latency_p50_s": (statistics.median(lat), "s", len(lat), ""),
        "latency_tail_s": (tail_value, "s", len(lat),
                           f"p{tail_permille / 10:g}, {beyond} beyond"),
        "fail_frac": (failed / units, "ratio", units, ""),
        "peak_rss_mb": (rss_mb, "MB", 1, ""),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYER_SPANS = (
    "channel.random_unital_cp", "channel.canonical_invariant_state",
    "channel.invariant_states", "channel.tensor",
    "spectral.spectrum", "spectral.spectrum_tensor", "spectral.power_limit",
    "spectral.range_of_defect",
    "mixing.check_ergodic", "mixing.check_strictly_ergodic",
    "mixing.check_weakly_mixing", "mixing.check_strictly_weak_mixing",
    "mixing.check_exact", "mixing.check_phi_ergodic_equiv",
    "mixing.check_peripheral_obstruction", "mixing.classify",
    "sequences.check_kvn_equivalence",
    "serialize.parse_system", "serialize.report_to_dict",
)


def _per_op(spans: list[dict]) -> dict:
    """Group spans by operation id."""
    ops: dict = {}
    for s in spans:
        ops.setdefault(s["op"], []).append(s)
    return ops


def per_layer(loop_spans: list[dict], pass_spans: list[dict],
              report_bytes: dict) -> tuple[dict, dict]:
    """Per-layer metrics, each the median over operations of its per-op
    total. A metric takes its operations from the timed loop when the layer
    is on the workload's path, and from the layer pass otherwise; the
    second dict names the source of each."""
    from cstar_mixing import THEOREM_NAMES
    from tracing import LINALG_FUNCTIONS

    def samples(spans):
        out: dict = {}
        for op_id, group in _per_op(spans).items():
            if op_id is None:
                continue
            totals: dict = {}
            for s in group:
                d = s["end"] - s["start"]
                name = s["name"]
                if name in LAYER_SPANS:
                    totals[name + "_s"] = totals.get(name + "_s", 0.0) + d
                elif name == "mixing.verify_theorem":
                    key = f"mixing.verify_theorem.{s['theorem']}.ms_per_trial"
                    totals[key] = 1000.0 * d / s["trials"]
                elif name == "cli.main":
                    label = next(g["label"] for g in group
                                 if g["name"] == "op")
                    if label.startswith("example"):
                        totals[f"cli.{label}_s"] = d
                elif name == "op":
                    for fn, count in s["counts"].items():
                        totals[f"linalg.{fn}_calls"] = count
            dims = [s["dim"] for s in group if s["name"] == "spectral.spectrum"]
            tdims = [s["dim"] for s in group
                     if s["name"] == "spectral.spectrum_tensor"]
            if dims:
                totals["operator.dim"] = max(dims)
            if tdims:
                totals["operator.tensor_dim"] = max(tdims)
            if op_id in report_bytes:
                totals["serialize.report_bytes"] = report_bytes[op_id]
            for k, v in totals.items():
                out.setdefault(k, []).append(v)
        return out

    names = [n + "_s" for n in LAYER_SPANS]
    names += [f"mixing.verify_theorem.{t}.ms_per_trial" for t in THEOREM_NAMES]
    names += ["serialize.report_bytes", "cli.example1_s", "cli.example2_s",
              "cli.example3_s"]
    names += [f"linalg.{fn}_calls" for _, fn in LINALG_FUNCTIONS]
    names += ["operator.dim", "operator.tensor_dim"]
    loop, lpass = samples(loop_spans), samples(pass_spans)
    metrics, sources = {}, {}
    for name in names:
        src, vals = ("loop", loop.get(name)) if name in loop else \
            ("layer pass", lpass.get(name))
        if not vals:    # the library no longer calls this function
            src, vals = ("no call", [0])
        metrics[name] = statistics.median(vals)
        sources[name] = (len(vals), f"from {src}")
    return metrics, sources


def unit_of(name: str) -> str:
    if name.endswith("_calls") or name.startswith("operator."):
        return "count"
    if name.endswith("ms_per_trial"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "s"


def layer_pass(seed: int, scratch: str, tracer) -> dict:
    """Calls into every layer on small fixed inputs, so that each per-layer
    metric is measured on every workload: the three CLI examples, each
    theorem for two trials on shape (2), and classify on a fresh random
    channel on shape (3). Returns report bytes by op id."""
    from workloads import WORKLOADS, Item
    from cstar_mixing import (THEOREM_NAMES, AlgebraShape, DynamicalSystem,
                              canonical_invariant_state, classify,
                              random_unital_cp, verify_theorem)
    examples = WORKLOADS["paper-examples"]
    report_bytes = {}
    for label, argv in examples.ARGV.items():
        op_id = f"pass-{label}"
        out_dir = os.path.join(scratch, op_id)
        os.makedirs(out_dir)
        with tracer.op(op_id, label):
            examples.run(Item(label, argv + ["--seed", str(seed)]), out_dir)
        report_bytes[op_id] = examples.report_bytes(out_dir)
    for name in THEOREM_NAMES:
        with tracer.op(f"pass-{name}", name):
            verify_theorem(name, [2], 2, seed=seed)
    with tracer.op("pass-classify", "(3) k=2"):
        op = random_unital_cp(AlgebraShape([3]), 2, seed=seed + 7)
        classify(DynamicalSystem(op, canonical_invariant_state(op)))
    return report_bytes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _print_metric(name, value, unit, n, note="") -> None:
    extra = f" {note}" if note else ""
    print(f"metric {name} = {value:.6g} {unit} (n={n}){extra}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # any integer is a valid seed: it is folded into numpy's seed range, so
    # that the same seed always gives the same inputs and none is refused
    seed = args.seed % SEED_RANGE

    tracer = None
    if args.trace:
        _import_library()
        from tracing import Tracer
        tracer = Tracer().install()
    rounds, setup_s = _setup(workload, seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    os.makedirs(OUT, exist_ok=True)
    # a fresh name even where a killed run left its directory behind
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)
    try:
        env = environment(args.workload, seed)
        print("env " + json.dumps(env))

        # First call pays one-off costs (BLAS thread start, lazy imports);
        # it is reported but neither in set-up nor in the loop.
        t0 = time.perf_counter()
        _one(workload, workload.warmup(seed), -1, scratch)
        print(f"info warmup_s = {time.perf_counter() - t0:.4f}")

        setups = [setup_s]
        if not args.trace:
            setups += [_setup_in_fresh_process(args.workload, seed)
                       for _ in range(SETUP_REPEATS)]
        if tracer is not None:
            tracer.spans.clear()    # set-up spans are not operations

        outcomes, first = run_loop(workload, rounds, args.seconds, scratch,
                                   tracer)
        selfcheck = self_check(workload, first)
        print(f"info self_check_flipped_verdict_detected = {selfcheck}")
        _print_class_latencies(outcomes)
        attempted = sum(o.item.units for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        e2e = end_to_end(outcomes, setups, attempted, failed,
                         workload.TAIL_PERMILLE)
        prefix = "traced " if tracer else ""
        for name, (value, unit, n, note) in e2e.items():
            if tracer is None or name != "setup_s":
                print(prefix, end="")
                _print_metric(name, value, unit, n, note)

        if tracer is None:
            metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()
                       if k != "fail_frac"}
        else:
            loop_spans = list(tracer.spans)
            tracer.spans.clear()
            report_bytes = {}
            if hasattr(workload, "report_bytes"):
                report_bytes = {str(o.index): workload.report_bytes(o.out_dir)
                                for o in outcomes}
            report_bytes.update(layer_pass(seed, scratch, tracer))
            pass_spans = list(tracer.spans)
            tracer.uninstall()
            values, sources = per_layer(loop_spans, pass_spans, report_bytes)
            for name, value in values.items():
                _print_metric(name, value, unit_of(name), *sources[name])
            _print_class_counts(loop_spans + pass_spans)
            path = os.path.join(
                OUT, f"spans-{args.workload}-seed{seed}-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"env": env, "spans": loop_spans + pass_spans}, fh)
            print(f"info spans written to {os.path.relpath(path, ROOT)}")
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in values.items()}

        correct = selfcheck and failed == 0
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _print_class_latencies(outcomes) -> None:
    """Median latency per input class, and per unit (trial) in ms."""
    by_class: dict = {}
    for o in outcomes:
        by_class.setdefault(o.item.label, []).append(o)
    for label, group in by_class.items():
        lat = statistics.median(o.latency for o in group)
        per_unit = 1000.0 * lat / group[0].item.units
        print(f"info class {label!r}: latency_p50_s = {lat:.4f} "
              f"(n={len(group)}), {per_unit:.1f} ms per unit")


def _print_class_counts(spans: list[dict]) -> None:
    """Linear-algebra and spectrum call counts of the first operation of
    each input class (example 2 is compared with ROADMAP's figures)."""
    seen = set()
    groups = _per_op(spans)
    for s in spans:
        if s["name"] != "op" or s["label"] in seen:
            continue
        seen.add(s["label"])
        n_spec = sum(1 for g in groups[s["op"]]
                     if g["name"].startswith("spectral.spectrum"))
        counts = dict(s["counts"], spectrum=n_spec)
        print(f"info counts op={s['op']} class={s['label']!r} "
              + json.dumps(counts, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
