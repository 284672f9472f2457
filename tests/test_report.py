"""Report dataclass serialization and invariants."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triphoton.report import EntanglementReport, json_dumps
from triphoton.states import TripleGaussianState
from triphoton.witness import analytic_report

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


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
    inputs=st.dictionaries(st.text(), _FINITE | st.integers() | st.text() | st.none(), max_size=5),
    witness=_FINITE,
    entropy_x=_FINITE,
    entropy_k=_FINITE,
    exact=st.none() | _FINITE,
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
    d = _report().to_dict()
    with pytest.raises(TypeError):
        EntanglementReport.from_dict({**d, "extra": 1})
    del d["witness_gebits"]
    with pytest.raises(TypeError):
        EntanglementReport.from_dict(d)


def test_floats_serialized_at_full_precision():
    assert "0.33333333333333331" in _report().to_json()


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


def test_json_layout_parses_back():
    text = _report().to_json()
    assert text.endswith("\n")
    d = json.loads(text)
    assert d["inputs"]["sigma_u"] == 10.0
    assert d["tool_version"]
