"""Golden outputs of the library: generate them, or check them byte for byte.

The cases are the ones a change to the numerics should leave unchanged up to
rounding:

- ``verify.json``: ``verify_theorem`` records of the six theorems on the
  shapes (2), (3) and (1,1,2), 8 trials each at seed 0;
- ``random_channels.json``: ``classify`` reports (seed 0) of random unital
  CP channels with their canonical invariant state, on the shapes (3), (2,3)
  and (4), Kraus counts 1-4, channel seeds 0-3;
- ``examples.json``: the exit code and every JSON file that
  ``cstar-mixing example`` writes for examples 1 (d 8), 2 (d 12, k 5) and 3
  (L 3).

Estimator traces are downsampled to every other checkpoint to keep the
files small. ``tests/test_golden.py`` compares the current outputs with
these files: discrete fields exactly, floats to a relative tolerance.

    python tests/golden/generate.py           # rewrite the golden files
    python tests/golden/generate.py --bytes   # exit 1 unless the current
                                              # code reproduces them exactly

Where the bytes differ, ``--bytes`` names each differing file with the
number of floats that differ from the float at the same place, the largest
absolute difference among them, and where that difference is. Another BLAS build
or thread count rounds differently: regenerating the committed files, with
no change to the code, can rewrite thousands of floats at rounding level,
so ``--bytes`` against them does not show that a change keeps every output. To show that, run this script
without ``--bytes`` in a scratch copy of the parent commit and one of the
change, with the same BLAS thread count, and compare the files they wrote::

    git archive <parent> --prefix=parent/ | tar -x -C scratch
    git archive <change> --prefix=change/ | tar -x -C scratch
    export OPENBLAS_NUM_THREADS=1
    (cd scratch/parent && python tests/golden/generate.py)
    (cd scratch/change && python tests/golden/generate.py)
    for f in verify.json random_channels.json examples.json; do
        cmp scratch/parent/tests/golden/$f scratch/change/tests/golden/$f
    done
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from cstar_mixing import (  # noqa: E402
    THEOREM_NAMES,
    AlgebraShape,
    DynamicalSystem,
    canonical_invariant_state,
    classify,
    random_unital_cp,
    verify_theorem,
)
from cstar_mixing.cli import main as cli_main  # noqa: E402
from cstar_mixing.serialize import (  # noqa: E402
    report_to_dict,
    verification_record_to_dict,
)

VERIFY_SHAPES = ((2,), (3,), (1, 1, 2))
VERIFY_TRIALS = 8
CHANNEL_SHAPES = ((3,), (2, 3), (4,))
KRAUS_COUNTS = (1, 2, 3, 4)
CHANNEL_SEEDS = (0, 1, 2, 3)
EXAMPLES = {
    "example1": ["example", "1", "--d", "8"],
    "example2": ["example", "2", "--d", "12", "--k", "5"],
    "example3": ["example", "3", "--L", "3"],
}


def _downsampled(obj):
    """``obj`` with every checkpoint trace ({"checkpoints", "values"}) cut
    to its even-indexed checkpoints."""
    if isinstance(obj, dict):
        if set(obj) == {"checkpoints", "values"}:
            return {k: v[::2] for k, v in obj.items()}
        return {k: _downsampled(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_downsampled(v) for v in obj]
    return obj


def verify_records() -> dict:
    return {f"{name} {shape}": verification_record_to_dict(
                verify_theorem(name, shape, VERIFY_TRIALS, seed=0))
            for name in THEOREM_NAMES for shape in VERIFY_SHAPES}


def channel_reports() -> dict:
    out = {}
    for blocks in CHANNEL_SHAPES:
        for kraus in KRAUS_COUNTS:
            for seed in CHANNEL_SEEDS:
                op = random_unital_cp(AlgebraShape(blocks), kraus, seed=seed)
                system = DynamicalSystem(op, canonical_invariant_state(op))
                out[f"{blocks} kraus {kraus} seed {seed}"] = _downsampled(
                    report_to_dict(classify(system)))
    return out


def example_outputs() -> dict:
    out = {}
    for name, argv in EXAMPLES.items():
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv + ["--out", tmp])
            files = {}
            for fname in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, fname), encoding="utf-8") as fh:
                    # file paths inside a document name the temporary directory
                    text = fh.read().replace(tmp + os.sep, "")
                files[fname] = _downsampled(json.loads(text))
        out[name] = {"exit_code": code, "files": files}
    return out


GROUPS = {
    "verify.json": verify_records,
    "random_channels.json": channel_reports,
    "examples.json": example_outputs,
}


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def float_differences(got, want, path=""):
    """Yield (|got - want|, path) for each float at the same place in two
    JSON documents that differs. Integers, and places that only one
    document has, are skipped."""
    if isinstance(got, dict) and isinstance(want, dict):
        pairs = [(got[k], want[k], f"{path}.{k}") for k in want if k in got]
    elif isinstance(got, list) and isinstance(want, list):
        pairs = [(g, w, f"{path}[{i}]")
                 for i, (g, w) in enumerate(zip(got, want))]
    else:
        if isinstance(got, float) and isinstance(want, float) and got != want:
            yield abs(got - want), path
        return
    for g, w, p in pairs:
        yield from float_differences(g, w, p)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--bytes", action="store_true",
                   help="compare with the golden files byte for byte "
                        "instead of rewriting them")
    args = p.parse_args(argv)
    differ = []
    for fname, make in GROUPS.items():
        text = dumps(make())
        path = HERE / fname
        if not args.bytes:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path} ({len(text)} bytes)")
        elif not path.exists():
            differ.append(f"{fname}: missing")
        elif (golden := path.read_text(encoding="utf-8")) != text:
            found = list(float_differences(json.loads(text),
                                           json.loads(golden)))
            size, where = max(found, default=(0.0, None),
                              key=lambda d: d[0])
            differ.append(f"{fname}: {len(found)} floats differ, the largest"
                          f" by {size:.2g} at {where or '-'}")
    if args.bytes:
        print("\n".join(["differ:"] + differ) if differ else "byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
