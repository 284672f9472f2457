"""Report dataclass serialization and invariants."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triphoton.report import EntanglementReport, json_dumps
from triphoton.states import TripleGaussianState
from triphoton.witness import analytic_report

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# integral floats, which a writer that drops the ".0" would parse back as ints
_FLOATS = _FINITE | st.integers(-(2**53), 2**53).map(float)


def _report(**overrides):
    kw = dict(
        inputs={"sigma_u": 10.0, "seed": 3},
        witness_gebits=1.0 / 3.0,
        entropy_x_bits=-1.2,
        entropy_k_bits=0.4,
        exact_e3f_gebits=2.686845696919245,
    )
    kw.update(overrides)
    return EntanglementReport(**kw)


def test_round_trip_is_lossless_and_stable():
    rep = _report()
    back = EntanglementReport.from_json(rep.to_json())
    assert back == rep
    assert back.to_json() == rep.to_json()


@given(
    inputs=st.dictionaries(st.text(), _FLOATS | st.integers() | st.text() | st.none(), max_size=5),
    witness=_FLOATS,
    entropy_x=_FLOATS,
    entropy_k=_FLOATS,
    exact=st.none() | _FLOATS,
)
def test_round_trip_property(inputs, witness, entropy_x, entropy_k, exact):
    rep = EntanglementReport(
        inputs=inputs,
        witness_gebits=witness,
        entropy_x_bits=entropy_x,
        entropy_k_bits=entropy_k,
        exact_e3f_gebits=exact,
    )
    back = EntanglementReport.from_json(rep.to_json())
    assert back == rep
    assert back.to_json() == rep.to_json()
    # == holds between 10 and 10.0, so compare every value's type as well
    for name, value in vars(rep).items():
        assert type(getattr(back, name)) is type(value), name
    assert [type(v) for v in back.inputs.values()] == [type(v) for v in inputs.values()]


def test_signed_zeros_survive_a_parse_byte_for_byte():
    rep = _report(
        inputs={"sigma_u": -0.0, "eta": [0.0, -0.0]},
        witness_gebits=-0.0,
        entropy_x_bits=-0.0,
        entropy_k_bits=0.0,
        exact_e3f_gebits=-0.0,
    )
    text = rep.to_json()
    assert '"witness_gebits": -0.0,' in text
    again = EntanglementReport.from_json(text).to_json()
    assert again == text
    assert EntanglementReport.from_json(again).to_json() == text


def test_from_dict_takes_exactly_the_report_fields():
    d = dict(vars(_report()))
    with pytest.raises(TypeError):
        EntanglementReport(**{**d, "extra": 1})
    del d["witness_gebits"]
    with pytest.raises(TypeError):
        EntanglementReport(**d)


def test_floats_serialized_at_full_precision():
    # repr: the shortest spelling that parses back to the same float
    text = _report().to_json()
    assert '"witness_gebits": 0.3333333333333333,' in text
    assert json.loads(text)["witness_gebits"] == 1.0 / 3.0


def test_integral_floats_parse_back_as_floats():
    rep = _report(
        inputs={"sigma_u": 10.0, "box_halfwidth_x": 600.0, "seed": 3},
        witness_gebits=2.0,
        exact_e3f_gebits=3.0,
    )
    text = rep.to_json()
    assert '"sigma_u": 10.0,' in text and '"witness_gebits": 2.0,' in text
    back = EntanglementReport.from_json(text)
    assert [type(v) for v in back.inputs.values()] == [float, float, int]
    assert type(back.witness_gebits) is type(back.exact_e3f_gebits) is type(back.certified_gebits) is float


def test_certified_value_is_derived():
    assert _report().certified_gebits == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert _report(witness_gebits=-0.5).certified_gebits == 0.0
    with pytest.raises(ValueError):
        _report(certified_gebits=0.9)


def test_analytic_witness_above_exact_raises(monkeypatch):
    # at ratio 10 the analytic witness is 0.79 gebits, so exact 0 is too low
    s = TripleGaussianState(10.0, 1.0, 1.0)
    assert analytic_report(s).witness_gebits > 0.7
    monkeypatch.setattr("triphoton.witness.exact_e3f", lambda state: 0.0)
    with pytest.raises(ValueError, match="exceeds exact"):
        analytic_report(s)


def test_sampled_witness_above_exact_round_trips():
    # only the analytic witness is a theorem; a sampled one is a report
    rep = _report(witness_gebits=3.0)
    assert rep.witness_gebits > rep.exact_e3f_gebits
    assert EntanglementReport.from_json(rep.to_json()) == rep


def test_json_dumps_rejects_nonfinite_and_unknown_types():
    with pytest.raises(ValueError):
        json_dumps({"a": float("inf")})
    with pytest.raises(ValueError):
        json_dumps({"a": float("nan")})
    with pytest.raises(TypeError):
        json_dumps({"a": object()})


def test_json_dumps_writes_empty_containers_inline():
    assert json_dumps([]) == "[]"
    assert json_dumps({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}'


def test_json_layout_parses_back():
    text = _report().to_json()
    assert text.endswith("\n")
    d = json.loads(text)
    assert d["inputs"]["sigma_u"] == 10.0
    assert d["tool_version"]
