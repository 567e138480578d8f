"""The report kernel: lazy evaluation of axiom instances and report merging."""
import ast
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutation import gamma_mutant
from permcat.errors import (
    BoundExceededError,
    ComposabilityError,
    MalformedStructureError,
    UnsupportedFragmentError,
)
from permcat.fixtures import sign_permcat, swap_operad, two_object_multicat
from permcat.multicat import terminal_multicat, validate_multicat
from permcat.permcats import validate_permcat
from permcat.reports import ILL_TYPED, UNKNOWN, CheckReport, numbering
from permcat.tensor import tensor_op

SRC = Path(__file__).resolve().parents[1] / "src" / "permcat"


def raises(exc):
    def leg(*position):
        raise exc("leg")
    return leg


def summary_of(report):
    return [(c.axiom, c.instances, [v.witness for v in c.violations])
            for c in report.checks]


class TestEvaluate:
    def test_pass(self):
        report = CheckReport("r")
        report.evaluate("ax", lambda: 1, lambda: 1, ("w",))
        assert summary_of(report) == [("ax", 1, [])]
        assert report.passed

    def test_fail(self):
        report = CheckReport("r")
        report.evaluate("ax", lambda: 1, lambda: 2, ("w", 3))
        assert summary_of(report) == [("ax", 1, ["(w, 3)"])]
        assert not report.passed

    @pytest.mark.parametrize("exc", [BoundExceededError, UnsupportedFragmentError])
    def test_unknown_leg_counts_nothing(self, exc):
        report = CheckReport("r")
        report.evaluate("ax", raises(exc), lambda: 1, ("w",))
        report.evaluate("ax", lambda: 1, raises(exc), ("w",))
        assert report.checks == []
        assert report.total_instances() == 0
        assert report.passed

    @pytest.mark.parametrize("exc", [ComposabilityError, MalformedStructureError])
    def test_ill_typed_leg_is_a_counted_violation(self, exc):
        report = CheckReport("r")
        report.evaluate("ax", raises(exc), lambda: 1, ("w", 1))
        report.evaluate("ax", lambda: 1, raises(exc), ("v",))
        assert summary_of(report) == [("ax", 2, ["(ill-typed, w, 1)", "(ill-typed, v)"])]

    def test_other_errors_propagate(self):
        with pytest.raises(KeyError):
            CheckReport("r").evaluate("ax", raises(KeyError), lambda: 1, ("w",))

    def test_leg_that_fails_when_compared_is_a_counted_violation(self):
        swap = swap_operad()
        sigma = dict(swap.sigma)
        del sigma["p", (2, 1)]
        broken = replace(swap, sigma=sigma)
        T = two_object_multicat()
        report = CheckReport("r")
        report.evaluate("eq", lambda: tensor_op((broken, T), ("p", "ua")),
                        lambda: tensor_op((swap, T), ("p", "ua")), ("w",))
        assert summary_of(report) == [("eq", 1, ["(ill-typed, w)"])]


class Incomparable:
    """A leg value whose ``==`` raises ``error``, as a tensor-fragment
    operation with an ill-typed factor table does."""

    def __init__(self, error):
        self.error = error

    def __eq__(self, other):
        raise self.error("compared")

    __hash__ = None


# A leg entry: a value, a leg that raises, or a value whose == raises.
LEGS = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 2)),
    st.tuples(st.sampled_from(["raise", "compare"]), st.sampled_from(UNKNOWN + ILL_TYPED)))


def decided(row) -> tuple:
    """The count and witnesses of a row of ``(left, right)`` leg entries by
    :meth:`CheckReport.evaluate`'s rules, one instance at a time: the left
    leg first and the right leg only after it, then the comparison, in
    which the left value's ``==`` goes first; an unknown error leaves the
    instance uncounted, an ill-typed one makes it a counted violation."""
    counted, witnesses = 0, []
    for n, legs in enumerate(row):
        raised = [error for kind, error in legs if kind == "raise"]
        compared = [error for kind, error in legs if kind == "compare"]
        error = raised[0] if raised else compared[0] if compared else None
        if error is None:
            counted += 1
            if legs[0][1] != legs[1][1]:
                witnesses.append(f"(w, {n})")
        elif error in ILL_TYPED:
            counted += 1
            witnesses.append(f"(ill-typed, w, {n})")
    return counted, witnesses


class TestEvaluateRow:
    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.tuples(LEGS, LEGS), max_size=8))
    def test_decides_each_position_as_evaluate_does(self, row):
        called = []

        def leg(side):
            def compute(n):
                called.append((side, n))
                kind, value = row[n][side]
                if kind == "raise":
                    raise value("leg")
                return Incomparable(value) if kind == "compare" else value
            return compute

        report = CheckReport("r")
        report.evaluate_row("ax", leg(0), leg(1), range(len(row)), lambda n: ("w", n))
        counted, witnesses = decided(row)
        assert summary_of(report) == ([("ax", counted, witnesses)] if counted else [])
        # each left leg runs once, each right leg once where its left is a value
        assert Counter(called) == Counter(
            [(0, n) for n in range(len(row))]
            + [(1, n) for n, (left, _) in enumerate(row) if left[0] != "raise"])

    def test_right_leg_never_runs_after_the_left_raised(self):
        ran = []
        report = CheckReport("r")
        report.evaluate_row("ax", raises(ComposabilityError), ran.append, ["x", "y"],
                            lambda x: (x,))
        assert ran == []
        assert summary_of(report) == [("ax", 2, ["(ill-typed, x)", "(ill-typed, y)"])]

    def test_the_same_value_on_both_legs_is_still_compared(self):
        shared = Incomparable(MalformedStructureError)
        report = CheckReport("r")
        report.evaluate_row("ax", lambda x: shared, lambda x: shared, [1], lambda x: (x,))
        assert summary_of(report) == [("ax", 1, ["(ill-typed, 1)"])]

    def test_an_agreeing_row_builds_no_witness(self):
        report = CheckReport("r")
        report.evaluate_row("ax", lambda x: x, lambda x: x, range(50), pytest.fail)
        assert summary_of(report) == [("ax", 50, [])]


class TestAbsorb:
    def sub(self):
        sub = CheckReport("sub", metadata={"tight": False, "kind": "sub"})
        sub.expect("b", 1, 1, ("x",))
        sub.expect("a", 1, 2, ("y",))
        sub.count("a", 2)
        return sub

    def test_sums_by_name_in_first_seen_order(self):
        report = CheckReport("top", metadata={"tight": True, "own": 1})
        report.expect("a", 1, 1, ("z",))
        report.absorb(self.sub())
        assert summary_of(report) == [("a", 4, ["(y)"]), ("b", 1, [])]
        assert report.structure == "top"
        assert report.metadata == {"tight": False, "own": 1, "kind": "sub"}
        report.expect("c", 1, 1, ("z",))
        assert [c.axiom for c in report.checks] == ["a", "b", "c"]

    def test_prefix(self):
        report = CheckReport("top")
        report.absorb(self.sub(), "ring1-")
        report.absorb(self.sub(), "ring1-")
        assert summary_of(report) == [("ring1-b", 2, []), ("ring1-a", 6, ["(y)", "(y)"])]
        assert [v.axiom for v in report.violations()] == ["ring1-a", "ring1-a"]


def test_missing_composite_is_a_failing_report():
    C = sign_permcat()
    composition = dict(C.composition)
    del composition["0:-", "0:-"]
    report = validate_permcat(replace(C, composition=composition))
    assert not report.passed
    assert "category-associativity" in report.violated_axioms()
    assert all(v.witness.startswith("(ill-typed, ")
               for c in report.checks if c.axiom == "category-associativity"
               for v in c.violations)


def test_missing_gamma_entry_is_a_counted_typing_violation():
    M = terminal_multicat(2)
    gamma = dict(M.gamma)
    del gamma["i2", ("i0", "i1")]
    complete = validate_multicat(M).check("composition-typing")
    typing = validate_multicat(replace(M, gamma=gamma)).check("composition-typing")
    assert typing.instances == complete.instances
    assert [v.witness for v in typing.violations] == ["(ill-typed, i2, (i0, i1))"]


def test_terminal_gamma_mutant_counts():
    mutant = gamma_mutant(terminal_multicat(4), "i1", ("i2",), "i3")
    report = validate_multicat(mutant)
    checks = {c.axiom: c for c in report.checks}
    assert (checks["associativity"].instances,
            len(checks["associativity"].violations)) == (5096, 392)

    def ill_typed(axiom):
        return sum(v.witness.startswith("(ill-typed, ") for v in checks[axiom].violations)

    assert (ill_typed("associativity"), ill_typed("top-equivariance"),
            ill_typed("bottom-equivariance")) == (15, 1, 2)


GUARDED = {"ComposabilityError", "MalformedStructureError", "ILL_TYPED"}


def _caught(handler: ast.ExceptHandler) -> set:
    if handler.type is None:
        return set()
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else t.attr
            for t in types if isinstance(t, (ast.Name, ast.Attribute))}


def _nodes(node, function=None):
    """(innermost enclosing function, node) of every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _nodes(child, inner)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_only_reports_decides_what_ill_typed_means():
    """No module but ``reports`` catches the ill-typed errors, apart from
    the CLI's top-level handler that maps them to exit code 2."""
    offenders = [(path.name, function, node.lineno)
                 for path in sorted(SRC.glob("*.py")) if path.name != "reports.py"
                 for function, node in _nodes(_tree(path))
                 if isinstance(node, ast.ExceptHandler) and _caught(node) & GUARDED]
    assert [(name, function) for name, function, _ in offenders] == [("cli.py", "run_command")], \
        offenders


def test_only_multicat_decides_the_composite_boundary():
    """The wrong-inner-count and wrong-slot errors of composition are built
    in ``Multicat.check_composite`` alone, so no backing forks the rule."""
    phrases = ("inner operations for arity", "inner output")
    builders = sorted({(path.name, function)
                       for path in sorted(SRC.glob("*.py"))
                       for function, node in _nodes(_tree(path))
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and any(phrase in node.value for phrase in phrases)})
    assert builders == [("multicat.py", "check_composite")], builders


SOURCES, TARGETS = {"src", "source", "mor_src"}, {"tgt", "target", "mor_tgt"}


def _mentions(node, names: set) -> bool:
    """Whether a name or attribute in ``names`` occurs below ``node``."""
    return any(getattr(n, "id", None) in names or getattr(n, "attr", None) in names
               for n in ast.walk(node))


def _skips_uncomposable(node) -> bool:
    """An ``if`` that ``continue``s past a source/target mismatch."""
    return (isinstance(node, ast.If) and any(isinstance(s, ast.Continue) for s in node.body)
            and any(isinstance(c, ast.Compare) and any(isinstance(op, ast.NotEq) for op in c.ops)
                    and _mentions(c, SOURCES) and _mentions(c, TARGETS)
                    for c in ast.walk(node.test)))


def test_only_by_source_answers_what_can_follow():
    """``permcats.by_source`` alone groups morphisms by source; no function
    scans pairs and skips those that do not compose."""
    offenders = sorted({(path.name, function)
                        for path in sorted(SRC.glob("*.py"))
                        for function, node in _nodes(_tree(path))
                        if _callee(node) == "setdefault" and _mentions(node.args[0], SOURCES)
                        or _skips_uncomposable(node)})
    assert offenders == [("permcats.py", "by_source")], offenders


def test_memos_are_per_owner_caches():
    """A computation is memoised by a per-owner ``functools.cache`` on a
    function of its raw key, never by a chained ``x = d[k] = ...`` store
    after a missed lookup.  The one chained store left registers an axiom
    in ``CheckReport.check``; it caches no computation."""
    stores = [(path.name, function, node.lineno)
              for path in sorted(SRC.glob("*.py"))
              for function, node in _nodes(_tree(path))
              if isinstance(node, ast.Assign) and len(node.targets) > 1
              and any(isinstance(target, ast.Subscript) for target in node.targets)]
    assert [(name, function) for name, function, _ in stores] == [("reports.py", "check")], \
        stores


def _inverts_enumerate(node) -> bool:
    """A dict comprehension ``{v: i for i, v in enumerate(...)}``."""
    if not (isinstance(node, ast.DictComp) and len(node.generators) == 1):
        return False
    loop = node.generators[0]
    return (_callee(loop.iter) == "enumerate" and isinstance(loop.target, ast.Tuple)
            and [getattr(n, "id", None) for n in loop.target.elts]
            == [getattr(node.value, "id", 0), getattr(node.key, "id", 0)])


def _last_position_of(node):
    """``xs`` of an expression ``len(xs) - 1``; None for any other node."""
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and _callee(node.left) == "len" and isinstance(node.left.args[0], ast.Name)
            and isinstance(node.right, ast.Constant) and node.right.value == 1):
        return node.left.args[0].id
    return None


def test_only_numbering_builds_a_value_index():
    """``reports.numbering`` alone maps values to their positions: no other
    function inverts an ``enumerate`` or appends a value and takes its
    position as its number."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        nodes = list(_nodes(_tree(path)))
        appended = {(function, node.func.value.id) for function, node in nodes
                    if _callee(node) == "append" and isinstance(node.func.value, ast.Name)}
        offenders += sorted({(path.name, function) for function, node in nodes
                             if _inverts_enumerate(node)
                             or (function, _last_position_of(node)) in appended})
    assert offenders == [("reports.py", "number"), ("reports.py", "numbering")], offenders


class TestNumbering:
    def test_equal_window_values_share_a_number(self):
        values, index, number = numbering([("x",), ("y",), ("x",)])
        assert values == [("x",), ("y",)]
        assert index == {("x",): 0, ("y",): 1}
        assert [number(("x",)), number(("y",)), number(("x",))] == [0, 1, 0]

    def test_new_values_are_numbered_after_the_window(self):
        values, index, number = numbering("ab")
        assert [number("c"), number("a"), number("d"), number("c")] == [2, 0, 3, 2]
        assert values == ["a", "b", "c", "d"]
        assert index == {"a": 0, "b": 1}


def _callee(node):
    """``f`` of a call ``f(...)`` or ``x.f(...)``; None for any other node."""
    func = getattr(node, "func", None)
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_cli_builds_and_checks_no_report_itself():
    """Each command reads, runs one suite or validator and emits its report:
    the CLI makes no report and checks no instance, apart from adding the
    basepoint check to ``endo``'s report."""
    calls = [(function, _callee(node), _callee(node.args[0]) if node.args else None)
             for function, node in _nodes(_tree(SRC / "cli.py"))
             if _callee(node) in {"CheckReport", "expect", "evaluate", "absorb"}]
    assert calls == [("cmd_endo", "absorb", "basepoint_check")], calls
