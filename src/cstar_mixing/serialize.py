"""JSON reading and writing for systems, reports, and ensemble records.

On-disk format
--------------
A system file is one JSON object:

* ``"algebra"``: ``{"blocks": [n1, n2, ...]}``, the matrix block sides.
* ``"operator"``: ``{"kind": ..., "data": ...}`` where kind is
  ``"superoperator"`` (a D x D matrix on the vectorized algebra, positivity
  taken as declared), ``"kraus"`` (a list of N x N matrices on the
  block-diagonal embedding, complete positivity verified by construction),
  or ``"stochastic"`` (a real row-stochastic matrix on the shape (1,...,1)).
* ``"state"`` (optional): ``{"blocks": [matrix, ...]}``; when absent the
  invariant state is computed and must be unique.
* ``"config"`` (optional): tolerance overrides by field name.

Matrix entries are plain numbers or ``[re, im]`` pairs; a matrix is written
with pairs throughout as soon as any entry has an imaginary part. Floats
round-trip exactly, so parse/serialize is lossless.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from . import __version__
from .algebra import AlgebraElement, AlgebraShape, Functional
from .channel import (
    MarkovOperator,
    from_kraus,
    from_stochastic,
    from_superoperator,
    invariant_states,
)
from .config import Config, DEFAULT, FIELD_TYPES
from .errors import ParseError, ValidationError, ValidationFailure
from .mixing import (
    DynamicalSystem,
    MixingReport,
    ProbeRecord,
    Unsupported,
    VerificationRecord,
)

__all__ = [
    "config_overrides",
    "dump_json",
    "matrix_from_json",
    "matrix_to_json",
    "operator_to_dict",
    "parse_system",
    "probe_record_to_dict",
    "report_to_dict",
    "system_from_dict",
    "system_to_dict",
    "to_jsonable",
    "verification_record_to_dict",
]

OPERATOR_KINDS = ("superoperator", "kraus", "stochastic")


# ---------------------------------------------------------------------------
# scalars and matrices
# ---------------------------------------------------------------------------

def _entry(obj: Any, where: str) -> complex:
    if isinstance(obj, bool):
        raise ParseError(f"{where}: expected a number, got a boolean")
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (isinstance(obj, list) and len(obj) == 2
            and all(isinstance(t, (int, float)) and not isinstance(t, bool)
                    for t in obj)):
        return complex(obj[0], obj[1])
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def matrix_from_json(obj: Any, where: str) -> np.ndarray:
    """Nested-list matrix with numeric or [re, im] entries -> complex array."""
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    if not all(isinstance(row, list) for row in obj):
        raise ParseError(f"{where}: every row must be a list")
    width = len(obj[0])
    out = np.zeros((len(obj), width), dtype=complex)
    for i, row in enumerate(obj):
        if len(row) != width:
            raise ParseError(
                f"{where}[{i}]: row length {len(row)} != {width} of row 0")
        for j, cell in enumerate(row):
            out[i, j] = _entry(cell, f"{where}[{i}][{j}]")
    return out


def matrix_to_json(a: np.ndarray) -> list:
    """Inverse of matrix_from_json; real matrices stay plain numbers."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and np.any(a.imag != 0.0):
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]
    return [[float(z.real) for z in row] for row in a]


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

def config_overrides(config: Config) -> dict:
    """The fields on which ``config`` differs from the package defaults."""
    base = DEFAULT.to_dict()
    return {k: v for k, v in config.to_dict().items() if v != base[k]}


def operator_to_dict(op: MarkovOperator) -> dict:
    if op.provenance == "kraus" and op.kraus is not None:
        return {"kind": "kraus", "data": [matrix_to_json(a) for a in op.kraus]}
    if op.provenance == "stochastic" and op.stochastic is not None:
        return {"kind": "stochastic", "data": matrix_to_json(op.stochastic)}
    return {"kind": "superoperator", "data": matrix_to_json(op.matrix)}


def system_to_dict(system: DynamicalSystem) -> dict:
    """Input-schema object that parse_system maps back to the same system."""
    out = {
        "algebra": {"blocks": list(system.shape.blocks)},
        "operator": operator_to_dict(system.operator),
        "state": {"blocks": [matrix_to_json(b) for b in system.state.blocks]},
    }
    overrides = config_overrides(system.config)
    if overrides:
        out["config"] = overrides
    return out


def _expect_object(obj: Any, where: str, required: tuple[str, ...],
                   optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"{where}: unknown fields {unknown}")
    for name in required:
        if name not in obj:
            raise ParseError(f"{where}: missing field {name!r}")
    return obj


def _parse_config(obj: Any, base: Config) -> Config:
    if not isinstance(obj, dict):
        raise ParseError("config: expected an object of overrides")
    bad = sorted(set(obj) - set(FIELD_TYPES))
    if bad:
        raise ParseError(f"config: unknown fields {bad}; valid: "
                         + ", ".join(sorted(FIELD_TYPES)))
    for k, v in obj.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"config.{k}: expected a number, got {v!r}")
        if FIELD_TYPES[k] is int and not isinstance(v, int):
            raise ParseError(f"config.{k}: expected an integer, got {v!r}")
    return base.replace(**obj)


def system_from_dict(d: Any, base: Config = DEFAULT) -> DynamicalSystem:
    """Build and validate a system from the input schema.

    A missing "state" falls back on the operator's invariant states, which
    must be unique for the file to define a system at all.
    """
    _expect_object(d, "top level", ("algebra", "operator"), ("state", "config"))
    alg = _expect_object(d["algebra"], "algebra", ("blocks",))
    blocks = alg["blocks"]
    if (not isinstance(blocks, list) or not blocks
            or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                       for n in blocks)):
        raise ParseError("algebra.blocks: expected a list of positive integers")
    shape = AlgebraShape(blocks)

    config = _parse_config(d["config"], base) if "config" in d else base

    op_obj = _expect_object(d["operator"], "operator", ("kind", "data"))
    kind = op_obj["kind"]
    if kind not in OPERATOR_KINDS:
        raise ParseError(
            f"operator.kind: {kind!r} is not one of {', '.join(OPERATOR_KINDS)}")
    data = op_obj["data"]
    if kind == "superoperator":
        op = from_superoperator(shape, matrix_from_json(data, "operator.data"),
                                config=config)
    elif kind == "kraus":
        if not isinstance(data, list) or not data:
            raise ParseError("operator.data: expected a non-empty list of matrices")
        mats = [matrix_from_json(a, f"operator.data[{k}]")
                for k, a in enumerate(data)]
        op = from_kraus(shape, mats, config)
    else:
        P = matrix_from_json(data, "operator.data")
        if np.any(P.imag != 0.0):
            raise ParseError("operator.data: stochastic matrices must be real")
        op = from_stochastic(P.real, config)
        if op.shape != shape:
            raise ParseError(
                f"operator.data: a stochastic matrix of side {P.shape[0]} lives "
                f"on blocks {list(op.shape.blocks)}, file declares {blocks}")

    if "state" in d:
        st = _expect_object(d["state"], "state", ("blocks",))
        if not isinstance(st["blocks"], list):
            raise ParseError("state.blocks: expected a list of matrices")
        mats = [matrix_from_json(b, f"state.blocks[{k}]")
                for k, b in enumerate(st["blocks"])]
        try:
            state = Functional(shape, mats)
        except ValidationFailure as e:
            raise ParseError(f"state.blocks: {e}") from None
    else:
        states = invariant_states(op, config)
        if len(states) != 1:
            raise ValidationError(
                f"no state supplied and the invariant state is not unique "
                f"({len(states)} spanning states found)")
        state = states[0]
    return DynamicalSystem(op, state, config)


def parse_system(text: str, base: Config = DEFAULT) -> DynamicalSystem:
    """Parse a JSON system file; syntax errors carry line/column positions."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    return system_from_dict(d, base)


# ---------------------------------------------------------------------------
# reports and records
# ---------------------------------------------------------------------------

def to_jsonable(obj: Any) -> Any:
    """Map package objects onto plain JSON values.

    Complex numbers become [re, im] pairs (plain numbers when exactly real),
    systems and operators become their input-schema objects, so any embedded
    counterexample can be replayed directly.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return z.real if z.imag == 0.0 else [z.real, z.imag]
    if isinstance(obj, Unsupported):
        return {"unsupported": obj.reason}
    if isinstance(obj, AlgebraShape):
        return list(obj.blocks)
    if isinstance(obj, (Functional, AlgebraElement)):
        return {"blocks": [matrix_to_json(b) for b in obj.blocks]}
    if isinstance(obj, DynamicalSystem):
        return system_to_dict(obj)
    if isinstance(obj, MarkovOperator):
        return operator_to_dict(obj)
    if isinstance(obj, Config):
        return obj.to_dict()
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _split_traces(obj: Any) -> tuple[Any, Any]:
    """Pull "trace"/"traces" entries out of a witness tree, keeping paths."""
    if not isinstance(obj, dict):
        return obj, None
    rest, traces = {}, {}
    for k, v in obj.items():
        if k in ("trace", "traces"):
            traces[k] = v
        else:
            r, t = _split_traces(v)
            rest[k] = r
            if t is not None:
                traces[k] = t
    return rest, (traces or None)


def report_to_dict(report: MixingReport) -> dict:
    """Full classification report: verdicts, witnesses, traces, provenance."""
    witnesses, traces = {}, {}
    for prop, w in report.witnesses.items():
        rest, tr = _split_traces(w)
        witnesses[prop] = to_jsonable(rest)
        if tr is not None:
            traces[prop] = to_jsonable(tr)
    return {
        "verdicts": {k: to_jsonable(v) for k, v in report.verdicts.items()},
        "witnesses": witnesses,
        "traces": traces,
        "method_agreement": to_jsonable(report.method_agreement),
        "config": report.config.to_dict(),
        "seed": report.seed,
        "tool_version": __version__,
    }


def verification_record_to_dict(rec: VerificationRecord) -> dict:
    return {
        "theorem": rec.name,
        "shape": list(rec.shape.blocks),
        "trials": rec.trials,
        "seed": rec.seed,
        "passes": rec.passes,
        "failures": rec.failures,
        "counterexample": to_jsonable(rec.counterexample),
        "tool_version": __version__,
    }


def probe_record_to_dict(rec: ProbeRecord) -> dict:
    return {
        "shape": list(rec.shape.blocks),
        "trials": rec.trials,
        "seed": rec.seed,
        "no_counterexample": rec.no_counterexample,
        "counterexample": to_jsonable(rec.counterexample),
        "verdicts": to_jsonable(rec.verdicts),
        "tool_version": __version__,
    }


def dump_json(obj: dict, path) -> None:
    """Write UTF-8 JSON with LF endings and a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")
