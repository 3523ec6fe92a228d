"""The current outputs against the committed goldens in ``tests/golden/``.

Verdicts, routes, exit codes, ``agreed`` flags and every other discrete
field must match exactly; floats match to a relative 1e-9 with an absolute
floor of 1e-12, since other BLAS builds round differently. Peripheral
eigenvalue lists are compared as sets. A violating pair whose residual is
at or below ``tol_spectral`` is rounding noise, as the residual is, and is
not compared. ``python tests/golden/generate.py --bytes`` checks the same
outputs byte for byte.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
REL, ABS = 1e-9, 1e-12
TOL_SPECTRAL = 1e-8


def _generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate", GOLDEN / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATE = _generator()


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_complex(v):
    """A float, or a complex serialized as [re, im]; None otherwise."""
    if _is_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(
            isinstance(x, float) for x in v):
        return complex(*v)
    return None


def _close(got, want):
    return abs(got - want) <= max(REL * abs(want), ABS)


def _compare(got, want, path, errors):
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            errors.append(f"{path}: keys {sorted(got)} != {sorted(want)}"
                          if isinstance(got, dict) else f"{path}: {got!r}")
            return
        for key in want:
            if (key == "violating_pair"
                    and abs(want.get("residual", 1.0)) <= TOL_SPECTRAL):
                continue
            sub = f"{path}.{key}"
            if key == "peripheral":
                _compare_sets(got[key], want[key], sub, errors)
            else:
                _compare(got[key], want[key], sub, errors)
        return
    if isinstance(want, bool) or isinstance(got, bool):
        if got is not want:
            errors.append(f"{path}: {got!r} != {want!r}")
        return
    if isinstance(want, int) and isinstance(got, int):
        if got != want:
            errors.append(f"{path}: {got} != {want}")
        return
    g, w = _as_complex(got), _as_complex(want)
    if g is not None and w is not None:
        if not _close(g, w):
            errors.append(f"{path}: {got!r} != {want!r}")
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g_, w_) in enumerate(zip(got, want)):
            _compare(g_, w_, f"{path}[{i}]", errors)
        return
    if got != want:
        errors.append(f"{path}: {got!r} != {want!r}")


def _compare_sets(got, want, path, errors):
    """Complex lists as sets: each point within tolerance of one of the
    other's, and the same count."""
    g = [_as_complex(v) for v in got]
    w = [_as_complex(v) for v in want]
    if len(g) != len(w) or any(
            not any(_close(a, b) for b in w) for a in g) or any(
            not any(_close(b, a) for a in g) for b in w):
        errors.append(f"{path}: {got!r} != {want!r} as sets")


@pytest.mark.parametrize("fname", list(GENERATE.GROUPS))
def test_outputs_match_the_goldens(fname):
    want = json.loads((GOLDEN / fname).read_text(encoding="utf-8"))
    # a JSON round trip, so that tuples and lists compare as the files do
    got = json.loads(GENERATE.dumps(GENERATE.GROUPS[fname]()))
    errors = []
    _compare(got, want, fname, errors)
    assert not errors, "\n".join(errors[:20])


def test_the_comparison_catches_a_flipped_verdict_and_a_moved_float():
    doc = {"verdicts": {"ergodic": True},
           "witnesses": {"residual": 0.5, "violating_pair": [1, 2],
                         "peripheral": [1.0, [-0.5, 0.866]]}}
    same = json.loads(json.dumps(doc))
    same["witnesses"]["residual"] = 0.5 * (1 + 1e-12)
    same["witnesses"]["peripheral"] = [[-0.5, 0.866], 1.0]
    errors = []
    _compare(same, doc, "doc", errors)
    assert errors == []
    flipped = json.loads(json.dumps(doc))
    flipped["verdicts"]["ergodic"] = False
    flipped["witnesses"]["residual"] = 0.5 * (1 + 1e-6)
    flipped["witnesses"]["violating_pair"] = [2, 1]
    _compare(flipped, doc, "doc", errors)
    assert {e.split(":")[0] for e in errors} == {
        "doc.verdicts.ergodic", "doc.witnesses.residual",
        "doc.witnesses.violating_pair[0]", "doc.witnesses.violating_pair[1]"}
