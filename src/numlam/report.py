"""Three-valued verdicts of beta-eta-equality, and machine-readable reports
of batches of them.

Equal and Distinct are definitive (both sides reached beta-eta-normal form);
Unknown means fuel ran out and is never collapsed to a definite answer.  A
CheckReport never claims an overall pass while any case is unknown, nor on
zero cases: fuel exhaustion and an empty report are inconclusive, not
failure or success.
"""

from __future__ import annotations

from .parser import pretty
from .reduction import DEFAULT_FUEL, Fuel, OutOfFuel, beta_eta_normalize
from .terms import Term, _Record, _set, alpha_eq

REPORT_FORMAT = 1


class EqVerdict(_Record):
    __slots__ = ("kind", "reason")

    def __init__(self, kind: str, reason: str | None = None):
        _set(self, "kind", kind)  # "equal" | "distinct" | "unknown"
        _set(self, "reason", reason)

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.kind == "distinct"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __str__(self) -> str:
        if self.kind == "unknown" and self.reason:
            return f"Unknown ({self.reason})"
        return self.kind.capitalize()


class CheckCase(_Record):
    __slots__ = ("label", "verdict", "steps", "witness")

    def __init__(self, label: str, verdict: EqVerdict | bool, steps: int | None = None,
                 witness: str | None = None):
        _set(self, "label", label)
        _set(self, "verdict", verdict)
        _set(self, "steps", steps)
        _set(self, "witness", witness)

    @property
    def ok(self) -> bool:
        if isinstance(self.verdict, bool):
            return self.verdict
        return self.verdict.is_equal

    @property
    def unknown(self) -> bool:
        return isinstance(self.verdict, EqVerdict) and self.verdict.is_unknown

    def verdict_text(self) -> str:
        if isinstance(self.verdict, bool):
            return "pass" if self.verdict else "fail"
        return self.verdict.kind


class CheckReport(_Record):
    __slots__ = ("subject", "cases")

    def __init__(self, subject: str, cases: tuple[CheckCase, ...] = ()):
        _set(self, "subject", subject)
        _set(self, "cases", cases)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def unknown(self) -> int:
        return sum(1 for c in self.cases if c.unknown)

    @property
    def failed(self) -> int:
        return len(self.cases) - self.passed - self.unknown

    @property
    def overall(self) -> str:
        """fail if any case failed; otherwise inconclusive if any case is
        unknown or there are no cases at all; otherwise pass."""
        if self.failed:
            return "fail"
        if self.unknown or not self.cases:
            return "inconclusive"
        return "pass"

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "subject": self.subject,
            "overall": self.overall,
            "counts": {
                "passed": self.passed,
                "failed": self.failed,
                "unknown": self.unknown,
            },
            "cases": [
                {
                    "label": c.label,
                    "verdict": c.verdict_text(),
                    "steps": c.steps,
                    "witness": c.witness,
                }
                for c in self.cases
            ],
        }


def _normalize_and_compare(lhs: Term, rhs: Term, fuel: Fuel) -> tuple[EqVerdict, int, Term]:
    """Beta-eta-normalize both sides and compare them up to alpha: the
    verdict, the beta steps of both sides, and the left side's term."""
    left = beta_eta_normalize(lhs, fuel)
    right = beta_eta_normalize(rhs, fuel)
    steps = left.steps + right.steps
    stuck = []
    if isinstance(left, OutOfFuel):
        stuck.append(f"left side out of fuel after {left.steps} steps")
    if isinstance(right, OutOfFuel):
        stuck.append(f"right side out of fuel after {right.steps} steps")
    if stuck:
        return EqVerdict("unknown", "; ".join(stuck)), steps, left.term
    kind = "equal" if alpha_eq(left.term, right.term) else "distinct"
    return EqVerdict(kind), steps, left.term


def beta_eta_eq(t1: Term, t2: Term, fuel: Fuel = DEFAULT_FUEL) -> EqVerdict:
    """Equal iff both sides reach beta-eta-normal forms that are alpha-equal;
    Distinct iff both normalize and the forms differ; Unknown otherwise."""
    return _normalize_and_compare(t1, t2, fuel)[0]


def eq_case(label: str, lhs: Term, rhs: Term, fuel: Fuel = DEFAULT_FUEL) -> CheckCase:
    """`beta_eta_eq` as one labelled case with the steps of both sides.  On
    a definitive mismatch the witness records the left normal form."""
    verdict, steps, left = _normalize_and_compare(lhs, rhs, fuel)
    witness = pretty(left) if verdict.is_distinct else None
    return CheckCase(label, verdict, steps=steps, witness=witness)
