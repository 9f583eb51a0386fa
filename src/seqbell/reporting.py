"""Inequality verdicts, and the one renderer of every report.

A report is a list of rows that `render` writes in either format: tabular
lines for reading, or structured flat "key = value" lines with
full-precision floats (shortest round-trip repr, >= 15 significant digits),
so identical physics always serializes to identical bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
    if isinstance(value, np.generic):  # a numpy scalar reads as its Python value
        return fmt_value(value.item())
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


_REPORT_FIELDS = (
    "defined", "lhs", "rhs", "margin", "stderr_margin", "n_sigma", "sigma_threshold", "violated"
)


@functools.cache
def _inequality_parts(inequality_id: str):
    """The structured keys of one inequality id, and its tabular templates:
    satisfied, violated and undefined."""
    keys = tuple(f"inequality.{inequality_id}.{field} = " for field in _REPORT_FIELDS)
    label = f"  {inequality_id:<5} ".replace("{", "{{").replace("}", "}}")
    defined = label + "lhs={1: .6f}  rhs={2: .6f}  margin={3: .6f} +/- {4:.6f}  [{5:+.2f} sigma]  "
    undefined = label + "undefined (insufficient statistics)"
    return keys, (defined + "satisfied", defined + "VIOLATED", undefined)


def inequality_row(report: InequalityReport) -> tuple:
    """The report row of one inequality; an undefined one has a single key."""
    keys, templates = _inequality_parts(report.inequality_id)
    if not report.defined:
        return templates[2], keys, (False,)
    r, violated = report, report.violated
    values = (True, r.lhs, r.rhs, r.margin, r.stderr_margin, r.n_sigma, r.sigma_threshold, violated)
    return templates[violated], keys, values


def render(report_format: str, command: str, title: str | None, config, rows) -> str:
    """One report in either format.  A row (template, keys, values) gives the
    tabular line template.format(*values), none for a None template, and the
    structured lines key + fmt_value(value) over zip(keys, values); values
    past the last key are tabular-only.  A config adds its protocol lines and
    digest to the structured header, and its digest under the tabular title."""
    if config is not None:
        protocol = config.protocol_lines()
        digest = config.digest(protocol)
    if report_format == "structured":
        lines = ["format = structured", f"command = {command}"]
        if config is not None:
            lines.append(f"config.digest = {digest}")
            lines += ["config." + line for line in protocol]
        text = _TEXT.get  # fmt_value's first step, taken here for its common types
        lines += [
            key + (f(v) if (f := text(type(v))) else fmt_value(v))
            for _, keys, values in rows for key, v in zip(keys, values)
        ]
    else:
        lines = [] if title is None else [title]
        if config is not None:
            lines.append(f"config digest: {digest}")
        lines += [t.format(*values) for t, _, values in rows if t is not None]
    return "\n".join(lines) + "\n"
