"""Uniform result records for the verification suite.

A check that would pass but certifies no positive weight is reported as
"vacuous", never "pass": truncation must not be allowed to overstate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactalg import TruncatedSeries, mono_str

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"


@dataclass
class CheckReport:
    name: str
    status: str
    reliable_weight: int
    first_failure: str | None = None
    detail: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        out = {
            "check": self.name,
            "status": self.status,
            "pass": self.status == PASS,
            "reliable_weight": self.reliable_weight,
            "first_failure": self.first_failure,
        }
        for k, v in self.detail.items():
            out.setdefault(k, v)
        return out


def residual_report(
    name: str,
    residual: TruncatedSeries,
    *,
    reliable: int | None = None,
    detail: dict | None = None,
) -> CheckReport:
    """Report on a residual series that should vanish up to its reliable weight."""
    rel = residual.reliable if reliable is None else min(reliable, residual.reliable)
    detail = dict(detail or ())
    first = None
    status = VACUOUS if rel < 1 else PASS
    if rel >= 0:
        bad = residual.up_to_weight(rel)
        if bad:
            m, c = bad.canonical_items()[0]
            first = mono_str(m, residual.family)
            detail["first_coefficient"] = str(c)
            status = FAIL
    return CheckReport(name, status, rel, first, detail)


def boolean_report(name: str, passed: bool, reliable: int, **detail) -> CheckReport:
    if reliable < 1:
        status = VACUOUS if passed else FAIL
    else:
        status = PASS if passed else FAIL
    return CheckReport(name, status, reliable, detail=dict(detail))
