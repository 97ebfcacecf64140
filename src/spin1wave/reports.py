"""Machine-readable pass/fail containers used by the verification operations,
and the one rule by which a check aggregates its trials: an upper bound
takes the worst value, a negative control the least.  Both keep a NaN, and
a NaN fails every bound, so no numerical fault passes silently."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def worst(values) -> float:
    """The largest of values (reals), 0 for none; NaN if any is NaN."""
    return float(np.max(np.asarray(values, dtype=float), initial=0.0))


def least(values) -> float:
    """The smallest of values, inf for none; NaN if any is NaN."""
    return float(np.min(np.asarray(values, dtype=float), initial=np.inf))


@dataclass
class IdentityCheck:
    identity_name: str
    passed: bool
    max_abs_deviation: float


@dataclass
class IdentityReport:
    """Outcome of a batch of matrix identity checks.

    Exact-arithmetic checks report an integer-valued deviation (0 on pass);
    floating-point checks report the max-abs deviation against a tolerance.
    """

    identities: list[IdentityCheck] = field(default_factory=list)

    def add(self, name: str, deviation: float, tol: float = 0.0) -> bool:
        passed = bool(deviation <= tol)
        self.identities.append(IdentityCheck(name, passed, float(deviation)))
        return passed

    def add_outcome(self, name: str, passed: bool, deviation: float) -> bool:
        """Record a check whose pass condition is not a plain upper bound
        (e.g. an identity that is required to fail)."""
        passed = bool(passed)
        self.identities.append(IdentityCheck(name, passed, float(deviation)))
        return passed

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.identities)

    def to_dict(self) -> dict:
        return {
            "identities": [
                {
                    "identity_name": c.identity_name,
                    "passed": c.passed,
                    "max_abs_deviation": c.max_abs_deviation,
                }
                for c in self.identities
            ],
            "all_passed": self.all_passed,
        }


@dataclass
class ResidualCheck:
    name: str
    value: float
    threshold: float | None
    passed: bool


@dataclass
class ResidualReport:
    """Named residual magnitudes plus free-form notes.

    A check can pass by being small (add_upper) or, for negative controls,
    by being large (add_lower).
    """

    checks: list[ResidualCheck] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)

    def add_upper(self, name: str, value: float, bound: float | None = None) -> bool:
        passed = True if bound is None else bool(value <= bound)
        self.checks.append(ResidualCheck(name, float(value), None if bound is None else float(bound), passed))
        return passed

    def add_lower(self, name: str, value: float, bound: float) -> bool:
        passed = bool(value >= bound)
        self.checks.append(ResidualCheck(name, float(value), float(bound), passed))
        return passed

    def value(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.value
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "notes": dict(self.notes),
            "all_passed": self.all_passed,
        }
