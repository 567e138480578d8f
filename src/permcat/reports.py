"""Structured pass/fail reports with violation witnesses.

Every validator in the package returns a :class:`CheckReport`.  Violations
are data, not exceptions; a report passes iff it has none.  Witness
rendering is deterministic (no set iteration, keys sorted) so identical
inputs produce byte-identical serialized reports.

:meth:`CheckReport.evaluate_row` is the one place that decides what an
exception raised by an axiom leg means: a leg outside the bound or the
supported fragment makes the instance unknown (not counted), an ill-typed
leg is a counted violation, and so is an ill-typed error raised while
comparing the legs, since values such as tensor-fragment operations
canonicalise on first comparison.  :meth:`CheckReport.attempt` reads the
errors of a single computation the same way.  A validator that shares a
composite between instances keeps only its value, so a leg that raises
raises again for each instance that needs it and each such instance is
unknown or ill-typed on its own.

The row rule: a row is the instances of one axiom that a validator
enumerates together, such as every ``h`` after one composable ``(g, f)``.
It is decided position by position, in enumeration order, each position
exactly as a single instance: the left leg first, the right leg only
where the left one is a value, then the comparison.  The counted
positions of a row are added in one step, and a witness is built only
for a violating position.  :meth:`CheckReport.evaluate` is the row of
one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import (
    BoundExceededError,
    ComposabilityError,
    DegreeMismatchError,
    MalformedStructureError,
    UnsupportedFragmentError,
)

UNKNOWN = (BoundExceededError, UnsupportedFragmentError)
ILL_TYPED = (ComposabilityError, DegreeMismatchError, MalformedStructureError)


# The row of one that :meth:`CheckReport.evaluate` decides: its one
# position is ``(lhs, rhs, witness)``.
def _left(position):
    return position[0]()


def _right(position):
    return position[1]()


_witness = itemgetter(2)


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


def numbering(window) -> tuple:
    """``(values, index, number)``: the values of ``window`` numbered in
    order without repeats, a map that finds each of them, and a cache that
    numbers any value, a value outside the window after it.  ``values``
    grows as ``number`` numbers new ones; ``index`` stays the window's."""
    values = list(dict.fromkeys(window))
    index = {v: i for i, v in enumerate(values)}

    @functools.cache
    def number(value) -> int:
        i = index.get(value)
        if i is None:
            values.append(value)
            i = len(values) - 1
        return i

    return values, index, number


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
        """The instance ``lhs() == rhs()`` on two zero-argument thunks, as
        the row of one of :meth:`evaluate_row`."""
        self.evaluate_row(axiom, _left, _right, ((lhs, rhs, witness),), _witness)

    def evaluate_row(self, axiom: str, lhs, rhs, row, witness) -> None:
        """Decide the instance ``lhs(x) == rhs(x)`` of ``axiom`` for each
        ``x`` of ``row`` by the row rule, witnessed by ``witness(x)``.

        A position whose ``lhs`` or ``rhs`` raises an ``UNKNOWN`` error, or
        whose comparison does, is not counted.  One whose first error is
        ``ILL_TYPED`` is counted and witnessed ``("ill-typed", *witness(x))``.
        Any other error propagates.
        """
        counted = 0
        for x in row:
            try:
                if lhs(x) == rhs(x):
                    counted += 1
                    continue
            except UNKNOWN:
                continue
            except ILL_TYPED:
                violated = ("ill-typed", *witness(x))
            else:
                violated = witness(x)
            counted += 1
            self.violation(axiom, violated)
        if counted:
            self.check(axiom).instances += counted

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
