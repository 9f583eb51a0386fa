"""Inequality verdicts and deterministic report formatting primitives.

Structured reports are flat "key = value" lines with full-precision floats
(shortest round-trip repr, >= 15 significant digits), so identical physics
always serializes to identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

DEFAULT_SIGMA = 5.0


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of evaluating one inequality instance.

    margin = rhs - lhs; a violation is a margin below zero by more than
    sigma_threshold standard errors (or simply below zero for exact,
    zero-error evaluations).
    """

    inequality_id: str
    lhs: float
    rhs: float
    stderr_margin: float = 0.0
    sigma_threshold: float = DEFAULT_SIGMA
    defined: bool = True

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def n_sigma(self) -> float:
        """Signed margin in units of its standard error (negative = violation side)."""
        if self.stderr_margin > 0.0:
            return self.margin / self.stderr_margin
        if self.margin > 0.0:
            return math.inf
        if self.margin < 0.0:
            return -math.inf
        return 0.0

    @property
    def violated(self) -> bool:
        if not self.defined:
            return False
        if self.stderr_margin > 0.0:
            return self.margin < -self.sigma_threshold * self.stderr_margin
        return self.margin < 0.0


def undefined_report(inequality_id: str, sigma_threshold: float = DEFAULT_SIGMA) -> InequalityReport:
    return InequalityReport(
        inequality_id=inequality_id,
        lhs=math.nan,
        rhs=math.nan,
        stderr_margin=0.0,
        sigma_threshold=sigma_threshold,
        defined=False,
    )


# the text of the common value types, found by exact type
_TEXT = {float: repr, int: str, bool: {True: "true", False: "false"}.__getitem__}


def fmt_value(value) -> str:
    """Canonical text for one report value."""
    text = _TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def kv_line(key: str, value) -> str:
    return f"{key} = {fmt_value(value)}"


def kv_lines(keys, values) -> list[str]:
    """One line per value, under keys that already end in " = "; as many
    lines as the shorter of the two."""
    return [key + fmt_value(value) for key, value in zip(keys, values)]


_REPORT_FIELDS = (
    "defined", "lhs", "rhs", "margin", "stderr_margin", "n_sigma", "sigma_threshold", "violated"
)


def report_lines(report: InequalityReport, prefix: str) -> list[str]:
    """Structured lines for one inequality report."""
    keys = [f"{prefix}.{field} = " for field in _REPORT_FIELDS]
    if not report.defined:
        return kv_lines(keys, (False,))
    r = report
    return kv_lines(
        keys,
        (True, r.lhs, r.rhs, r.margin, r.stderr_margin, r.n_sigma, r.sigma_threshold, r.violated),
    )


def report_table_row(report: InequalityReport) -> str:
    """One human-readable summary line for an inequality report."""
    if not report.defined:
        return f"{report.inequality_id:<5} undefined (insufficient statistics)"
    verdict = "VIOLATED" if report.violated else "satisfied"
    sigma = report.n_sigma
    sigma_txt = f"{sigma:+.2f}" if math.isfinite(sigma) else ("+inf" if sigma > 0 else "-inf")
    return (
        f"{report.inequality_id:<5} lhs={report.lhs: .6f}  rhs={report.rhs: .6f}  "
        f"margin={report.margin: .6f} +/- {report.stderr_margin:.6f}  "
        f"[{sigma_txt} sigma]  {verdict}"
    )
