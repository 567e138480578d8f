"""Structured pass/fail reports with violation witnesses.

Every validator in the package returns a :class:`CheckReport`.  Violations
are data, not exceptions; a report passes iff it has none.  Witness
rendering is deterministic (no set iteration, keys sorted) so identical
inputs produce byte-identical serialized reports.

:meth:`CheckReport.evaluate` and :meth:`CheckReport.attempt` are the one
place that decides what an exception raised by an axiom leg means: a leg
outside the bound or the supported fragment makes the instance unknown
(not counted), an ill-typed leg is a counted violation.  A validator that
shares a composite between instances keeps only its value, so a leg that
raises raises again for each instance that needs it and each such instance
is unknown or ill-typed on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BoundExceededError,
    ComposabilityError,
    MalformedStructureError,
    UnsupportedFragmentError,
)

UNKNOWN = (BoundExceededError, UnsupportedFragmentError)
ILL_TYPED = (ComposabilityError, MalformedStructureError)


def render(value) -> str:
    """Deterministic, order-stable string form for witness data."""
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(render(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0])
        return "{" + ", ".join(f"{k}: {render(v)}" for k, v in items) + "}"
    return repr(value)


@dataclass
class Violation:
    axiom: str
    witness: str

    def as_json(self) -> dict:
        return {"axiom": self.axiom, "witness": self.witness}


@dataclass
class AxiomCheck:
    axiom: str
    instances: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "instances": self.instances,
            "violations": [v.as_json() for v in self.violations],
        }


@dataclass
class CheckReport:
    structure: str
    checks: list[AxiomCheck] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    _by_axiom: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for c in self.checks:
            self._by_axiom.setdefault(c.axiom, c)

    def check(self, axiom: str) -> AxiomCheck:
        c = self._by_axiom.get(axiom)
        if c is None:
            c = self._by_axiom[axiom] = AxiomCheck(axiom)
            self.checks.append(c)
        return c

    def count(self, axiom: str, n: int = 1) -> None:
        self.check(axiom).instances += n

    def violation(self, axiom: str, witness) -> None:
        self.check(axiom).violations.append(Violation(axiom, render(witness)))

    def expect(self, axiom: str, lhs, rhs, witness) -> bool:
        """Count an instance; record a violation when the two legs differ."""
        self.count(axiom)
        if lhs != rhs:
            self.violation(axiom, witness)
            return False
        return True

    def evaluate(self, axiom: str, lhs, rhs, witness: tuple) -> None:
        """:meth:`expect` on two zero-argument thunks for the legs.

        A leg outside the bound or the supported fragment leaves the
        instance unknown: nothing is counted.  An ill-typed leg is one
        counted instance and a violation witnessed ``("ill-typed", *witness)``;
        so is an error raised while comparing the legs, since values such
        as tensor-fragment operations canonicalise on first comparison.
        """
        try:
            left, right = lhs(), rhs()
            agree = left == right
        except UNKNOWN:
            return
        except ILL_TYPED:
            self.count(axiom)
            self.violation(axiom, ("ill-typed", *witness))
            return
        self.expect(axiom, agree, True, witness)

    def attempt(self, axiom: str, thunk, witness: tuple):
        """The value of the zero-argument ``thunk``, or ``None`` when it
        raises, for a computation whose result a validator inspects rather
        than compares.  Errors mean what they mean in :meth:`evaluate`."""
        try:
            return thunk()
        except UNKNOWN:
            return None
        except ILL_TYPED:
            self.count(axiom)
            self.violation(axiom, ("ill-typed", *witness))
            return None

    def absorb(self, sub: "CheckReport", prefix: str = "") -> None:
        """Fold ``sub`` in: checks summed by ``prefix`` + name in first-seen
        order, metadata merged."""
        for c in sub.checks:
            target = self.check(prefix + c.axiom)
            target.instances += c.instances
            target.violations.extend(Violation(target.axiom, v.witness) for v in c.violations)
        self.metadata.update(sub.metadata)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def violations(self) -> list[Violation]:
        return [v for c in self.checks for v in c.violations]

    def violated_axioms(self) -> list[str]:
        return [c.axiom for c in self.checks if not c.passed]

    def total_instances(self) -> int:
        return sum(c.instances for c in self.checks)

    def as_json(self) -> dict:
        payload = {
            "structure": self.structure,
            "verdict": self.verdict,
            "checks": [c.as_json() for c in self.checks],
        }
        if self.metadata:
            payload["metadata"] = {k: self.metadata[k] for k in sorted(self.metadata)}
        return payload

    def summary(self) -> str:
        lines = [f"{self.structure}: {self.verdict}"]
        for c in self.checks:
            status = "ok" if c.passed else f"FAIL ({len(c.violations)} violations)"
            lines.append(f"  {c.axiom}: {c.instances} instances, {status}")
            for v in c.violations[:3]:
                lines.append(f"    witness: {v.witness}")
        return "\n".join(lines)
