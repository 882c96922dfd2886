"""Pass/fail bookkeeping shared by the gauge checker, the samplers and the CLI.

One pass rule serves every check: it passes exactly when its worst violation
is <= its tolerance (a NaN violation fails).  PropertyCheck.passed is that
rule, computed from the check's own numbers; no caller hands a verdict in.
worst_check builds the check of an array of violations, whose first worst
entry is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Tolerance policy: identities that are exact algebra get the tight bound,
# identities that flow through a numeric gauge inversion get the loose one.
# Violations are always scaled by max(1, magnitudes) before comparison.
TOL_ALGEBRA = 1e-12
TOL_GAUGE = 1e-9


@dataclass
class PropertyCheck:
    """One verified property: its worst observed violation and a witness."""

    name: str
    worst_violation: float
    tolerance: float
    witness: object = None  # JSON-friendly: numbers, strings, lists, dicts, None
    details: str = ""

    @property
    def passed(self) -> bool:
        """The pass rule: worst_violation <= tolerance, so a NaN fails."""
        return bool(self.worst_violation <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "details": self.details,
        }

    def line(self) -> str:
        """The check's line in a table."""
        status = "PASS" if self.passed else "FAIL"
        return f"  {status}  {self.name}: worst={self.worst_violation!r} tol={self.tolerance!r}"


def worst_check(name: str, violations, tolerance: float, witness,
                details: str = "") -> PropertyCheck:
    """The check of a nonempty 1-d array of violations: its worst entry, read
    at argmax (the first worst entry, or the first NaN); witness(i) gives the
    witness of entry i."""
    i = int(violations.argmax())
    return PropertyCheck(name, float(violations[i]), tolerance, witness(i), details)


@dataclass
class VerificationReport:
    title: str
    checks: list[PropertyCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: PropertyCheck) -> None:
        self.checks.append(check)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def first_failure(self) -> PropertyCheck | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [self.title]
        lines.extend(c.line() for c in self.checks)
        lines.append(("all checks passed" if self.passed else "CHECKS FAILED"))
        return "\n".join(lines) + "\n"
