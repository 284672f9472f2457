"""Entanglement report record and its JSON form.

JSON output writes every float with 17 significant digits, and a negative
zero as -0.0, so a parse -> serialize round trip is lossless and
byte-identical run to run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from . import __version__


def _format_scalar(obj: Any) -> str:
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite value {obj!r} cannot go in a report")
        if obj == 0.0 and math.copysign(1.0, obj) < 0.0:
            return "-0.0"  # "-0" would parse back as the integer 0
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unsupported report value type {type(obj).__name__}")


def json_dumps(obj: Any, indent: int = 2, _level: int = 0) -> str:
    """Serialize nested dict/list/scalar data with fixed float formatting."""
    pad = " " * (indent * (_level + 1))
    end_pad = " " * (indent * _level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {json_dumps(v, indent, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{json_dumps(v, indent, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + end_pad + "]"
    return _format_scalar(obj)


@dataclass(frozen=True)
class EntanglementReport:
    """Witness evaluation summary.

    inputs           : echo of state/config parameters, coefficients, seeds,
                       bin widths and anything else needed to reproduce the run
    exact_e3f_gebits : closed-form value when the state is known, else None
    witness_gebits   : entropic lower bound produced by the run
    certified_gebits : max(0, witness_gebits)
    entropy_x_bits   : position-combination entropy that entered the witness
    entropy_k_bits   : momentum-combination entropy that entered the witness
    bootstrap_se     : bootstrap standard error of the witness, when sampled
    """

    inputs: dict
    witness_gebits: float
    entropy_x_bits: float
    entropy_k_bits: float
    certified_gebits: float | None = None  # derived from witness when omitted
    exact_e3f_gebits: float | None = None
    bootstrap_se: float | None = None
    tool_version: str = __version__

    def __post_init__(self):
        certified = max(0.0, float(self.witness_gebits))
        if self.certified_gebits is None:
            object.__setattr__(self, "certified_gebits", certified)
        elif abs(self.certified_gebits - certified) > 1e-12:
            raise ValueError(
                f"certified_gebits {self.certified_gebits!r} != max(0, witness)"
            )
        if self.exact_e3f_gebits is not None and self.bootstrap_se is None:
            # exact value known analytically: witness may not exceed it
            if self.witness_gebits > self.exact_e3f_gebits + 1e-9:
                raise ValueError(
                    f"witness {self.witness_gebits!r} exceeds exact "
                    f"E3F {self.exact_e3f_gebits!r}"
                )

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "exact_e3f_gebits": self.exact_e3f_gebits,
            "witness_gebits": self.witness_gebits,
            "certified_gebits": self.certified_gebits,
            "entropy_x_bits": self.entropy_x_bits,
            "entropy_k_bits": self.entropy_k_bits,
            "bootstrap_se": self.bootstrap_se,
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return json_dumps(self.to_dict()) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "EntanglementReport":
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "EntanglementReport":
        return cls.from_dict(json.loads(text))
