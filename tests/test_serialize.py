import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_mixing import (
    AlgebraShape,
    DynamicalSystem,
    Functional,
    ParseError,
    Unsupported,
    ValidationError,
    canonical_invariant_state,
    classify,
    from_stochastic,
    parse_system,
    probe_problem1,
    random_unital_cp,
    report_to_dict,
    system_from_dict,
    system_to_dict,
    verify_theorem,
)
from cstar_mixing.config import DEFAULT
from cstar_mixing.serialize import (
    dump_json,
    matrix_from_json,
    matrix_to_json,
    probe_record_to_dict,
    to_jsonable,
    verification_record_to_dict,
)

CHAIN = [[0.7, 0.3], [0.4, 0.6]]


def chain_system():
    op = from_stochastic(np.array(CHAIN))
    return DynamicalSystem(op, canonical_invariant_state(op))


def roundtrip(system):
    text = json.dumps(system_to_dict(system))
    return parse_system(text)


def test_stochastic_roundtrip():
    system = chain_system()
    doc = system_to_dict(system)
    assert doc["operator"]["kind"] == "stochastic"
    assert doc["operator"]["data"] == CHAIN
    back = roundtrip(system)
    assert np.array_equal(back.operator.matrix, system.operator.matrix)
    assert np.array_equal(back.state.vec(), system.state.vec())
    assert back.operator.provenance == "stochastic"


def test_kraus_roundtrip_with_complex_entries():
    op = random_unital_cp(AlgebraShape([2]), 2, seed=1)
    system = DynamicalSystem(op, canonical_invariant_state(op))
    doc = system_to_dict(system)
    assert doc["operator"]["kind"] == "kraus"
    # complex matrices serialize as [re, im] pairs throughout
    assert isinstance(doc["operator"]["data"][0][0][0], list)
    back = roundtrip(system)
    assert np.array_equal(back.operator.matrix, system.operator.matrix)
    assert back.operator.is_cp_verified()


def test_superoperator_roundtrip_stays_declared():
    from cstar_mixing import from_superoperator
    op = from_superoperator(AlgebraShape([1, 1]), np.array(CHAIN))
    system = DynamicalSystem(op, canonical_invariant_state(op))
    doc = system_to_dict(system)
    assert doc["operator"]["kind"] == "superoperator"
    back = roundtrip(system)
    assert back.operator.provenance == "explicit"
    assert not back.operator.is_cp_verified()


def test_config_overrides_roundtrip():
    op = from_stochastic(np.array(CHAIN))
    cfg = DEFAULT.replace(tol_spectral=1e-9, estimator_n=1024)
    system = DynamicalSystem(op, canonical_invariant_state(op), cfg)
    doc = system_to_dict(system)
    assert doc["config"] == {"tol_spectral": 1e-9, "estimator_n": 1024}
    back = roundtrip(system)
    assert back.config.tol_spectral == 1e-9
    assert back.config.estimator_n == 1024
    # defaults produce no config block at all
    assert "config" not in system_to_dict(chain_system())


@st.composite
def small_shapes(draw):
    """Block sides with D = sum of squares <= 9: (3), (2, 2), (2, 1, 1, 1,
    1, 1), nine 1x1 blocks, ...; each side fits the room left, so no draw
    is rejected."""
    blocks, room = [], 9
    while room and (not blocks or draw(st.booleans())):
        n = draw(st.integers(1, math.isqrt(room)))
        blocks.append(n)
        room -= n * n
    return AlgebraShape(blocks)


OVERRIDES = st.sampled_from([{}, {"tol_spectral": 1e-9},
                             {"estimator_n": 1024, "dyadic_factor": 0.5}])


@settings(max_examples=30, deadline=None)
@given(small_shapes(), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.booleans(), OVERRIDES)
def test_random_systems_round_trip_exactly(shape, kraus_count, seed, explicit,
                                           overrides):
    from cstar_mixing import from_superoperator
    cfg = DEFAULT.replace(**overrides)
    op = random_unital_cp(shape, kraus_count, seed=seed, config=cfg)
    if explicit:
        op = from_superoperator(shape, op.matrix, config=cfg)
    system = DynamicalSystem(op, canonical_invariant_state(op, cfg), cfg)
    doc = system_to_dict(system)
    assert doc.get("config", {}) == overrides
    for back in (parse_system(json.dumps(doc)), system_from_dict(doc)):
        assert back.shape == system.shape
        assert np.array_equal(back.operator.matrix, system.operator.matrix)
        assert np.array_equal(back.state.vec(), system.state.vec())
        assert back.config == cfg
        assert back.operator.provenance == op.provenance
        assert back.operator.is_cp_verified() == (not explicit)
        assert system_to_dict(back) == doc


def test_parse_system_reports_syntax_position():
    with pytest.raises(ParseError, match=r"line 2, column"):
        parse_system('{\n  "algebra": }')


def test_unknown_fields_rejected():
    doc = system_to_dict(chain_system())
    doc["extra"] = 1
    with pytest.raises(ParseError, match="unknown fields.*extra"):
        system_from_dict(doc)


def test_bad_blocks_rejected():
    base = system_to_dict(chain_system())
    for bad in ([], [0], [2, True], ["2"], "2"):
        doc = dict(base, algebra={"blocks": bad})
        with pytest.raises(ParseError, match="algebra.blocks"):
            system_from_dict(doc)


def test_bad_operator_kind_rejected():
    doc = system_to_dict(chain_system())
    doc["operator"] = {"kind": "choi", "data": CHAIN}
    with pytest.raises(ParseError, match="operator.kind"):
        system_from_dict(doc)


def test_entry_diagnostics_name_the_cell():
    with pytest.raises(ParseError, match=r"m\[0\]\[1\]"):
        matrix_from_json([[1.0, "x"], [0.0, 1.0]], "m")
    with pytest.raises(ParseError, match="boolean"):
        matrix_from_json([[True]], "m")
    with pytest.raises(ParseError, match=r"m\[1\]: row length 1 != 2"):
        matrix_from_json([[1.0, 0.0], [1.0]], "m")
    assert matrix_from_json([[ [1.5, -2.0] ]], "m")[0, 0] == 1.5 - 2j


def test_matrix_to_json_uses_pairs_only_when_needed():
    real = np.array([[1.0, 0.5]])
    assert matrix_to_json(real) == [[1.0, 0.5]]
    cplx = np.array([[1.0 + 0j, 2j]])
    assert matrix_to_json(cplx) == [[[1.0, 0.0], [0.0, 2.0]]]


def test_config_field_validation():
    base = system_to_dict(chain_system())
    for unknown in ({"tol_spectrall": 1e-9}, {"tol_psd": 1e-10}):
        doc = dict(base, config=unknown)
        with pytest.raises(ParseError, match="unknown fields.*valid:"):
            system_from_dict(doc)
    doc = dict(base, config={"estimator_n": 2048.5})
    with pytest.raises(ParseError, match="expected an integer"):
        system_from_dict(doc)
    doc = dict(base, config={"tol_spectral": True})
    with pytest.raises(ParseError, match="expected a number"):
        system_from_dict(doc)


def test_stochastic_must_be_real_and_match_blocks():
    base = system_to_dict(chain_system())
    doc = dict(base, operator={"kind": "stochastic",
                               "data": [[[0.7, 0.1], [0.3, -0.1]],
                                        [[0.4, 0.0], [0.6, 0.0]]]})
    with pytest.raises(ParseError, match="must be real"):
        system_from_dict(doc)
    doc = dict(base, algebra={"blocks": [2]})
    with pytest.raises(ParseError, match="file declares"):
        system_from_dict(doc)


def test_state_blocks_mismatch_is_a_parse_error():
    doc = system_to_dict(chain_system())
    doc["state"] = {"blocks": [[[1.0]]]}
    with pytest.raises(ParseError, match="state.blocks"):
        system_from_dict(doc)


def test_missing_state_falls_back_on_unique_invariant():
    doc = system_to_dict(chain_system())
    del doc["state"]
    system = system_from_dict(doc)
    assert np.allclose(np.array([b[0, 0].real for b in system.state.blocks]),
                       [4 / 7, 3 / 7], atol=1e-12)


def test_missing_state_with_non_unique_invariant_fails():
    doc = {
        "algebra": {"blocks": [2]},
        "operator": {"kind": "kraus", "data": [[[1.0, 0.0], [0.0, 1.0]]]},
    }
    with pytest.raises(ValidationError, match="not unique"):
        system_from_dict(doc)


def test_to_jsonable_values():
    assert to_jsonable(Unsupported("why")) == {"unsupported": "why"}
    assert to_jsonable(2.5 + 0j) == 2.5
    assert to_jsonable(1 + 2j) == [1.0, 2.0]
    assert to_jsonable(np.complex128(3j)) == [0.0, 3.0]
    assert to_jsonable(np.float64(1.5)) == 1.5
    assert to_jsonable(np.int64(4)) == 4
    assert to_jsonable(np.bool_(True)) is True
    assert to_jsonable(np.array([[1.0, 2.0]])) == [[1.0, 2.0]]
    assert to_jsonable({"k": (1, 2)}) == {"k": [1, 2]}
    assert to_jsonable(AlgebraShape([1, 2])) == [1, 2]
    fun = Functional.uniform_state(AlgebraShape([1, 1]))
    assert to_jsonable(fun) == {"blocks": [[[0.5]], [[0.5]]]}
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_report_to_dict_layout():
    doc = report_to_dict(classify(chain_system()))
    assert sorted(doc) == ["config", "method_agreement", "seed",
                           "tool_version", "traces", "verdicts", "witnesses"]
    assert doc["verdicts"]["exact"] is True
    # the config block is the complete effective configuration
    assert doc["config"] == DEFAULT.to_dict()
    # traces are split out of the witnesses wholesale
    def no_trace_keys(obj):
        if isinstance(obj, dict):
            return all(k not in ("trace", "traces") and no_trace_keys(v)
                       for k, v in obj.items())
        if isinstance(obj, list):
            return all(no_trace_keys(v) for v in obj)
        return True
    assert no_trace_keys(doc["witnesses"])
    assert "checkpoints" in doc["traces"]["ergodic"]["estimator"]["trace"]
    json.dumps(doc)


def test_verification_record_to_dict():
    rec = verify_theorem("prop_4_4", [2], trials=4, seed=1)
    doc = verification_record_to_dict(rec)
    assert doc["theorem"] == "prop_4_4"
    assert doc["shape"] == [2]
    assert doc["passes"] == 4
    assert doc["counterexample"] is None
    json.dumps(doc)


def test_probe_record_to_dict():
    doc = probe_record_to_dict(probe_problem1([2], trials=4, seed=0))
    assert doc["no_counterexample"] is True
    assert len(doc["verdicts"]) == 4
    json.dumps(doc)


def test_dump_json_writes_lf_and_trailing_newline(tmp_path):
    path = tmp_path / "out.json"
    dump_json({"a": [1, 2]}, path)
    raw = path.read_bytes()
    assert raw.endswith(b"}\n")
    assert b"\r" not in raw
    with pytest.raises(ValueError):
        dump_json({"a": float("inf")}, tmp_path / "bad.json")
