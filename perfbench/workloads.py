"""The three benchmark workloads.

Each workload turns the seed into inputs (``setup``), cuts them into rounds
of operations, runs one operation (``run``), and checks its output against
an expectation computed independently of the library (``observe`` and
``expect`` return dicts of booleans; an operation is correct when they are
equal). A round holds one operation of every input class, and the loop in
``run.py`` only ever stops between rounds, so every run measures the same
mix of classes whatever its length.

Imports of ``cstar_mixing`` happen inside the functions: ``run.py`` puts the
checkout's ``src`` on the path first and times the import as set-up.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field

# Rounds of random channels built in set-up. Channels are never reused
# across rounds, so that memoization keyed on an operator object cannot turn
# a repeat into a cache hit that no user would see.
CHANNEL_ROUNDS = 16


@dataclass
class Item:
    """One operation: a class label, its input, and the attempted units it
    counts for (trials for verify-ensemble, otherwise 1)."""

    label: str
    args: object = field(repr=False)
    units: int = 1


def _bools(verdicts: dict, names) -> dict:
    return {name: verdicts.get(name) is True for name in names}


class Workload:
    """Defaults shared by the workloads: no per-operation output directory,
    and a wrong or failed operation counts all of its units as failed.

    TAIL_PERMILLE is the tail percentile of ``latency_tail_s``: the highest
    of p99.9, p99, p95, p90, p75 and p50 that has at least ten samples
    beyond it in a run of the first baseline. It is fixed per workload, so
    that two commits are compared at the same percentile even when one of
    them completes more operations in a run; a percentile that followed the
    sample count would move between input classes of different cost.
    """

    TAIL_PERMILLE = 750

    def prepare(self, item: Item, scratch: str, index: int):
        return None

    def failed_units(self, item: Item, output, correct: bool) -> int:
        return 0 if correct else item.units


# ---------------------------------------------------------------------------
# paper-examples: the three paper examples through the CLI entry point
# ---------------------------------------------------------------------------

class PaperExamples(Workload):
    name = "paper-examples"

    ARGV = {
        "example1": ["example", "1", "--d", "8"],
        "example2": ["example", "2", "--d", "12", "--k", "5"],
        "example3": ["example", "3", "--L", "3"],
    }
    REPORTS = {
        "example1": ["example1_d8.report.json"],
        "example2": ["example2_d12_k5.report.json"],
        "example3": ["example3_K1.report.json", "example3_K2.report.json"],
    }

    def setup(self, seed: int):
        from cstar_mixing import cli  # noqa: F401  (import is set-up work)
        # every operation builds its system from scratch inside the CLI, so
        # the argument lists can repeat
        return itertools.repeat([Item(label, argv + ["--seed", str(seed)])
                                 for label, argv in self.ARGV.items()])

    def warmup(self, seed: int) -> Item:
        return Item("example1", self.ARGV["example1"] + ["--seed", str(seed)])

    def prepare(self, item: Item, scratch: str, index: int) -> str:
        out = os.path.join(scratch, f"op{index}")
        os.makedirs(out)
        return out

    def run(self, item: Item, out_dir: str):
        from cstar_mixing import cli
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(item.args + ["--out", out_dir])
        return code

    def observe(self, item: Item, output, out_dir: str) -> dict:
        from cstar_mixing import PROPERTIES
        obs = {"exit_code_0": output == 0}
        for report in self.REPORTS[item.label]:
            with open(os.path.join(out_dir, report), encoding="utf-8") as fh:
                doc = json.load(fh)
            for prop, holds in _bools(doc["verdicts"], PROPERTIES).items():
                obs[f"{report}:{prop}"] = holds
            if item.label == "example2":
                wit = doc["witnesses"]["rotation_witness"]
                re_im = wit["eigenvalue"]
                lam = complex(*re_im) if isinstance(re_im, list) else re_im
                target = cmath.exp(-2j * math.pi * 5 / 12)
                obs["witness_eigenvalue"] = abs(lam - target) <= 1e-12
                obs["witness_residual"] = wit["residual"] <= 1e-12
        return obs

    def expect(self, item: Item) -> dict:
        from cstar_mixing import PROPERTIES
        exp = {"exit_code_0": True}
        for report in self.REPORTS[item.label]:
            for prop in PROPERTIES:
                holds = item.label != "example2" or prop in (
                    "ergodic", "strictly_ergodic")
                exp[f"{report}:{prop}"] = holds
        if item.label == "example2":
            exp["witness_eigenvalue"] = True
            exp["witness_residual"] = True
        return exp

    def report_bytes(self, out_dir: str) -> int:
        return sum(os.path.getsize(os.path.join(out_dir, f))
                   for f in os.listdir(out_dir) if f.endswith(".report.json"))


# ---------------------------------------------------------------------------
# random-channels: classify on seeded random unital CP channels
# ---------------------------------------------------------------------------

class RandomChannels(Workload):
    name = "random-channels"

    SHAPES = ((3,), (2, 3), (4,))
    KRAUS = (1, 2, 3, 4)
    TAIL_PERMILLE = 500     # 24 ops per run: p75 would leave 6 beyond

    @staticmethod
    def _item(shape, kraus: int, seed: int) -> Item:
        from cstar_mixing import (AlgebraShape, DynamicalSystem,
                                  canonical_invariant_state, random_unital_cp)
        op = random_unital_cp(AlgebraShape(shape), kraus, seed=seed)
        system = DynamicalSystem(op, canonical_invariant_state(op))
        return Item(f"{shape} k={kraus}", system)

    def setup(self, seed: int):
        # shape and Kraus count advance together (3 and 4 are coprime), so
        # a round of 12 holds each pair once
        per_round = len(self.SHAPES) * len(self.KRAUS)
        return [[self._item(self.SHAPES[j % len(self.SHAPES)],
                            self.KRAUS[j % len(self.KRAUS)],
                            seed * 10_000 + j)
                 for j in range(r * per_round, (r + 1) * per_round)]
                for r in range(CHANNEL_ROUNDS)]

    def warmup(self, seed: int) -> Item:
        return self._item(self.SHAPES[0], 2, seed * 10_000 + 9_999)

    def run(self, item: Item, out_dir):
        from cstar_mixing import classify
        return classify(item.args)

    def observe(self, item: Item, output, out_dir) -> dict:
        return _bools(output.verdicts,
                      ("strictly_ergodic", "exact", "strictly_weak_mixing"))

    def expect(self, item: Item) -> dict:
        """Plain-numpy eigenvalue oracle on the transfer matrix."""
        import numpy as np
        from cstar_mixing import DEFAULT
        eigs = np.linalg.eigvals(np.asarray(item.args.operator.matrix))
        near_one = np.abs(eigs - 1.0) <= DEFAULT.tol_cluster
        unique = int(near_one.sum()) == 1
        peripheral_rest = np.abs(eigs[~near_one]) >= 1.0 - DEFAULT.tol_peripheral
        primitive = unique and not peripheral_rest.any()
        return {"strictly_ergodic": unique, "exact": primitive,
                "strictly_weak_mixing": primitive}


# ---------------------------------------------------------------------------
# verify-ensemble: verify_theorem for every theorem id on three shapes
# ---------------------------------------------------------------------------

class VerifyEnsemble(Workload):
    name = "verify-ensemble"

    SHAPES = ((2,), (3,), (1, 1, 2))
    TRIALS = 4      # trial i draws i % 4 + 1 Kraus operators: all four

    def _item(self, name: str, shape, seed: int) -> Item:
        from cstar_mixing import AlgebraShape
        return Item(f"{name} {shape}",
                    (name, AlgebraShape(shape), self.TRIALS, seed),
                    units=self.TRIALS)

    def setup(self, seed: int):
        from cstar_mixing import THEOREM_NAMES
        # trial channels are drawn from the verify seed, so each round gets
        # its own seeds and never repeats a channel
        return ([self._item(name, shape, seed * 100_000 + r * 100)
                 for name in THEOREM_NAMES for shape in self.SHAPES]
                for r in itertools.count())

    def warmup(self, seed: int) -> Item:
        return self._item("prop_4_4", self.SHAPES[0], seed * 100_000 + 99_000)

    def run(self, item: Item, out_dir):
        from cstar_mixing import verify_theorem
        name, shape, trials, seed = item.args
        return verify_theorem(name, shape, trials, seed=seed)

    def observe(self, item: Item, output, out_dir) -> dict:
        return {"all_trials_pass": output.failures == 0
                and output.passes == item.units}

    def expect(self, item: Item) -> dict:
        return {"all_trials_pass": True}

    def failed_units(self, item: Item, output, correct: bool) -> int:
        return item.units - output.passes


WORKLOADS = {w.name: w for w in (PaperExamples(), RandomChannels(),
                                 VerifyEnsemble())}
