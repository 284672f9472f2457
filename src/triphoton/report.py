"""Entanglement report record and its JSON form.

JSON output spells every float by repr, the shortest string that parses back
to the same float, so an integral float keeps its ".0" and -0.0 stays -0.0:
a parse -> serialize round trip is lossless and byte-identical run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from . import __version__


def json_dumps(obj: Any) -> str:
    """Two spaces per level, floats by repr; ValueError on NaN or inf, TypeError on other types."""
    return json.dumps(obj, indent=2, allow_nan=False)


@dataclass(frozen=True, kw_only=True)
class EntanglementReport:
    """Witness evaluation summary, its fields declared in JSON key order.

    inputs           : echo of state/config parameters, coefficients, seeds,
                       bin widths and anything else needed to reproduce the run
    exact_e3f_gebits : closed-form value when the state is known, else None
    witness_gebits   : entropic lower bound produced by the run
    certified_gebits : max(0, witness_gebits)
    entropy_x_bits   : position-combination entropy that entered the witness
    entropy_k_bits   : momentum-combination entropy that entered the witness
    """

    inputs: dict
    exact_e3f_gebits: float | None = None
    witness_gebits: float
    certified_gebits: float | None = None  # derived from witness when omitted
    entropy_x_bits: float
    entropy_k_bits: float
    tool_version: str = __version__

    def __post_init__(self):
        certified = max(0.0, float(self.witness_gebits))
        if self.certified_gebits is None:
            object.__setattr__(self, "certified_gebits", certified)
        elif abs(self.certified_gebits - certified) > 1e-12:
            raise ValueError(
                f"certified_gebits {self.certified_gebits!r} != max(0, witness)"
            )

    def to_json(self) -> str:
        return json_dumps(vars(self)) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EntanglementReport":
        return cls(**json.loads(text))
