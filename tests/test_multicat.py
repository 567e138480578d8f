"""Multicategory tables, views, functors, and their validators."""
import itertools
from collections import Counter
from dataclasses import replace

import pytest

from mutation import gamma_mutant, sigma_mutant, unit_mutant
from permcat import multicat
from permcat.endo import EndoOp, endo_multicat
from permcat.errors import BoundExceededError, ComposabilityError, MalformedStructureError
from permcat.fixtures import sign_operad, sign_permcat, swap_operad, two_object_multicat
from permcat.free import FreePermCat
from permcat.multicat import (
    MultiNat,
    MulticatView,
    Multifunctor,
    compose_multifunctors,
    identity_multifunctor,
    identity_multinat,
    initial_operad,
    multinat_hcomp,
    multinat_vcomp,
    terminal_multicat,
    validate_multicat,
    validate_multifunctor,
    validate_multinat,
)
from permcat.perms import (
    all_perms,
    block_perm,
    block_sum,
    identity_perm,
    perm_act,
    perm_compose,
    profiles,
)
from permcat.tensor import TensorGridView, tensor_op

MTERM = terminal_multicat(4)
INITIAL = initial_operad()
SIGNS = sign_operad(3)
SWAP = swap_operad()
TWO = two_object_multicat()


class TestEvaluation:
    def test_left_unity_lookup(self):
        assert MTERM.compose("i1", ("i2",)) == "i2"

    def test_right_unity_lookup(self):
        assert MTERM.compose("i2", ("i1", "i1")) == "i2"

    def test_terminal_composite(self):
        assert MTERM.compose("i2", ("i1", "i3")) == "i4"

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceededError):
            MTERM.compose("i2", ("i3", "i3"))

    def test_arity_mismatch(self):
        with pytest.raises(ComposabilityError):
            MTERM.compose("i2", ("i1",))

    def test_missing_entry_is_malformed(self):
        broken = gamma_mutant(MTERM, "i1", ("i1",), "i1")
        broken = type(broken)(broken.name, broken.objects, broken.max_arity,
                              broken.operations, broken.units, broken.sigma, {})
        with pytest.raises(MalformedStructureError):
            broken.compose("i1", ("i1",))

    def test_nullary_outer_composes_to_itself(self):
        assert MTERM.compose("i0", ()) == "i0"


class TestValidateMulticat:
    @pytest.mark.parametrize("M", [MTERM, INITIAL, SIGNS, SWAP, TWO],
                             ids=lambda m: m.name)
    def test_fixtures_pass(self, M):
        report = validate_multicat(M)
        assert report.passed, report.summary()

    def test_terminal_op_count(self):
        assert len(terminal_multicat(4).operations) == 5

    def test_initial_has_no_binary_ops(self):
        assert INITIAL.ops("*", ("*", "*")) == ()

    def test_left_unity_mutant(self):
        mutant = gamma_mutant(SIGNS, "+1", ("+2",), "-2")
        report = validate_multicat(mutant)
        assert "left-unity" in report.violated_axioms()

    def test_right_unity_mutant(self):
        mutant = gamma_mutant(SIGNS, "+2", ("+1", "+1"), "-2")
        report = validate_multicat(mutant)
        assert "right-unity" in report.violated_axioms()

    def test_associativity_mutant(self):
        mutant = gamma_mutant(SIGNS, "+2", ("-1", "+1"), "+2")
        report = validate_multicat(mutant)
        assert "associativity" in report.violated_axioms()

    def test_symmetry_action_mutant(self):
        mutant = sigma_mutant(SWAP, "p", (2, 1), "p")
        report = validate_multicat(mutant)
        assert "symmetry-action" in report.violated_axioms() or \
            "top-equivariance" in report.violated_axioms()

    def test_symmetry_identity_mutant(self):
        mutant = sigma_mutant(SWAP, "p", (1, 2), "q")
        report = validate_multicat(mutant)
        assert "symmetry-identity" in report.violated_axioms()

    def test_top_equivariance_mutant(self):
        mutant = sigma_mutant(TWO, "m", (2, 1), "m")
        report = validate_multicat(mutant)
        assert "top-equivariance" in report.violated_axioms() or \
            "symmetry-typing" in report.violated_axioms()

    def test_bottom_equivariance_mutant(self):
        # redirect a composite against non-identity inner actions only
        mutant = gamma_mutant(SIGNS, "+2", ("+2", "+0"), "-2")
        report = validate_multicat(mutant)
        assert "bottom-equivariance" in report.violated_axioms() or \
            "top-equivariance" in report.violated_axioms() or \
            "associativity" in report.violated_axioms()

    def test_unit_mutant(self):
        mutant = unit_mutant(SIGNS, "*", "-1")
        report = validate_multicat(mutant)
        assert not report.passed

    def test_terminal_gamma_mutant(self):
        # the only possible redirect changes arity, which unity catches
        mutant = gamma_mutant(MTERM, "i1", ("i2",), "i3")
        report = validate_multicat(mutant)
        assert "left-unity" in report.violated_axioms()


def counting_view(M, fails=None, withheld=None):
    """``M`` with a ``compose_fn`` and an ``act_fn`` that count their calls
    per ``(outer, inners)`` and per ``(op, sigma.images)``.  The composite
    ``fails`` raises ``MalformedStructureError``, the action ``withheld``
    raises ``ComposabilityError``."""
    composes, acts = Counter(), Counter()

    def compose_fn(outer, inners):
        composes[outer, inners] += 1
        if (outer, inners) == fails:
            raise MalformedStructureError("composite withheld")
        return M.compose_fn(outer, inners)

    def act_fn(op, sigma):
        acts[op, sigma.images] += 1
        if (op, sigma.images) == withheld:
            raise ComposabilityError("action withheld")
        return M.act_fn(op, sigma)

    return replace(M, compose_fn=compose_fn, act_fn=act_fn), composes, acts


def touching_instances(M, A, request) -> Counter:
    """Per axiom, how many symmetry, composition-typing, equivariance and
    associativity instances of ``validate_multicat(M, A)`` have a leg that
    makes ``request``, either ``("compose", outer, inners)`` or ``("act",
    op, images)``, found by brute force over every tuple of operations and
    a composite and an action that record what they are asked for."""
    objs = M.object_list()
    ops = [(op, profile) for target in objs for profile in profiles(objs, A)
           for op in M.ops(target, profile)]

    def inner_tuples(slots, budget):
        candidates = [[(op, p) for op, p in ops if M.output_of(op) == slot] for slot in slots]
        for choice in itertools.product(*candidates):
            if sum(len(p) for _, p in choice) <= budget:
                yield tuple(op for op, _ in choice)

    asked = []

    def compose(outer, inners):
        asked.append(("compose", outer, inners))
        return M.compose(outer, inners)

    def act(op, sigma):
        asked.append(("act", op, sigma.images))
        return M.act(op, sigma)

    def touches(*legs):
        asked.clear()
        for leg in legs:
            leg()
        return request in asked

    found = Counter()
    for op, profile in ops:
        n = len(profile)
        found["symmetry-identity"] += touches(lambda: act(op, identity_perm(n)))
        for s in all_perms(n):
            found["symmetry-typing"] += touches(lambda: act(op, s))
            for t in all_perms(n):
                found["symmetry-action"] += touches(
                    lambda: act(act(op, s), t), lambda: act(op, perm_compose(s, t)))
    composables = []
    for outer, profile in ops:
        for inners in inner_tuples(profile, A) if profile else ():
            found["composition-typing"] += touches(lambda: compose(outer, inners))
            if request != ("compose", outer, inners):
                composables.append((outer, inners, M.compose(outer, inners)))
    for outer, inners, result in composables:
        arities = tuple(M.arity_of(i) for i in inners)
        for s in all_perms(len(inners)):
            found["top-equivariance"] += touches(
                lambda: compose(act(outer, s), perm_act(s, inners)),
                lambda: act(result, block_perm(s, arities)))
        for taus in itertools.product(*(all_perms(k) for k in arities)):
            found["bottom-equivariance"] += touches(
                lambda: compose(outer, tuple(act(i, t) for i, t in zip(inners, taus))),
                lambda: act(result, block_sum(taus)))
        flat = tuple(x for m in inners for x in M.profile_of(m))
        for leaves in inner_tuples(flat, A):
            rest = iter(leaves)
            chunks = [tuple(itertools.islice(rest, M.arity_of(m))) for m in inners]
            found["associativity"] += touches(
                lambda: compose(result, leaves),
                lambda: compose(outer, tuple(compose(m, c) for m, c in zip(inners, chunks))))
    return found


def ill_typed_counts(report) -> Counter:
    return Counter(v.axiom for v in report.violations()
                   if v.witness.startswith("(ill-typed, "))


class TestCompositeMemo:
    SIGN_ENDO = endo_multicat(sign_permcat())
    INSTANCES = {
        "unit-typing": 2, "symmetry-identity": 14, "symmetry-typing": 22,
        "symmetry-action": 38, "left-unity": 14, "right-unity": 12,
        "composition-typing": 164, "top-equivariance": 300,
        "bottom-equivariance": 244, "associativity": 2196}

    def test_each_composite_evaluated_once(self):
        view, composes, _ = counting_view(self.SIGN_ENDO)
        report = validate_multicat(view, max_arity=2)
        assert report.passed, report.summary()
        assert composes and set(composes.values()) == {1}
        assert {c.axiom: c.instances for c in report.checks} == self.INSTANCES

    def test_each_action_evaluated_once(self):
        E = self.SIGN_ENDO
        view, _, acts = counting_view(E)
        report = validate_multicat(view, max_arity=2)
        assert report.passed, report.summary()
        assert set(acts.values()) == {1}
        # symmetry-typing acts on every window operation by every permutation
        objs = E.object_list()
        assert {(op, s.images) for target in objs for profile in profiles(objs, 2)
                for op in E.ops(target, profile)
                for s in all_perms(len(profile))} <= set(acts)
        assert {c.axiom: c.instances for c in report.checks} == self.INSTANCES

    def test_failing_composite_is_raised_for_every_instance(self):
        # a pair that instances of all four evaluated axioms compose
        E = self.SIGN_ENDO
        outer = EndoOp("1", ("0", "1"), "1:-")
        pair = (outer, (EndoOp("0", (), "0:+"), outer))
        assert outer in E.ops("1", ("0", "1")) and pair[1][0] in E.ops("0", ())
        view, composes, _ = counting_view(E, fails=pair)
        report = validate_multicat(view, max_arity=2)
        ill_typed = ill_typed_counts(report)
        expected = touching_instances(E, 2, ("compose", *pair))
        assert ill_typed == +expected
        assert set(ill_typed) == {"composition-typing", "top-equivariance",
                                  "bottom-equivariance", "associativity"}
        assert composes[pair] == sum(ill_typed.values())
        assert len(report.violations()) == sum(ill_typed.values())

    def test_failing_action_is_raised_for_every_instance(self):
        # a binary operation acted on by the transposition: the symmetry
        # axioms and both equivariances act with it
        E = self.SIGN_ENDO
        op = EndoOp("1", ("0", "1"), "1:-")
        withheld = (op, (2, 1))
        assert op in E.ops("1", ("0", "1"))
        view, _, acts = counting_view(E, withheld=withheld)
        report = validate_multicat(view, max_arity=2)
        ill_typed = ill_typed_counts(report)
        expected = touching_instances(E, 2, ("act", *withheld))
        assert ill_typed == +expected
        assert set(ill_typed) == {"symmetry-typing", "symmetry-action",
                                  "top-equivariance", "bottom-equivariance"}
        assert acts[withheld] == sum(ill_typed.values())
        assert len(report.violations()) == sum(ill_typed.values())
        assert {c.axiom: c.instances for c in report.checks} == self.INSTANCES


class TestSlotTuples:
    @pytest.mark.parametrize("validate", [
        lambda: validate_multicat(endo_multicat(sign_permcat()), max_arity=3),
        lambda: validate_multifunctor(identity_multifunctor(MTERM)),
    ], ids=["multicat-endo-sign", "multifunctor-terminal"])
    def test_each_slot_profile_enumerated_once(self, monkeypatch, validate):
        calls = Counter()
        enumerate_tuples = multicat._inner_tuples

        def counting(by_output, profile, budget):
            calls[profile] += 1
            return enumerate_tuples(by_output, profile, budget)

        monkeypatch.setattr(multicat, "_inner_tuples", counting)
        validate()
        assert calls and set(calls.values()) == {1}


class TestTerminalAndInitial:
    def test_terminal_validates_at_four(self):
        assert validate_multicat(terminal_multicat(4)).passed

    def test_terminal_nullary_exists(self):
        assert terminal_multicat(0).ops("*", ()) == ("i0",)

    def test_initial_only_unit(self):
        assert list(INITIAL.operations) == ["1"]


def _unchecked_view(M):
    """``M`` as a view whose ``compose_fn`` makes no boundary check."""
    return MulticatView(M.name, M.objects, M.max_arity, M.ops, M.unit, M.output_of,
                        M.profile_of, M.act, lambda outer, inners: outer)


def _boundary_cases():
    """``(M, outer, one inner too few, a wrong slot, over the bound or
    None, wrong-slot message)`` for each backing."""
    E = endo_multicat(sign_permcat())
    G = TensorGridView((TWO, SWAP))
    a, b = G.unit(("a", "*")), G.unit(("b", "*"))
    return {
        "table": (TWO, "m", ("ua",), ("ua", "ua"), ("m", "ub"), "'a' != 'b'"),
        "unchecked-view": (_unchecked_view(TWO), "m", ("ua",), ("ua", "ua"),
                           ("m", "ub"), "'a' != 'b'"),
        "endo": (E, E.ops("0", ("1", "1"))[0], (E.unit("1"),),
                 (E.unit("1"), E.unit("0")), None, "'0' != '1'"),
        "tensor-grid": (G, tensor_op(G.factors, ("m", "u")), (a,), (a, a), None,
                        f"{G.output_of(a)!r} != {G.output_of(b)!r}"),
    }


class TestSharedBoundaryRules:
    @pytest.mark.parametrize("case", sorted(_boundary_cases()))
    def test_every_backing_refuses_the_same_composites(self, case):
        M, outer, too_few, wrong_slot, over_bound, slot_message = _boundary_cases()[case]
        with pytest.raises(ComposabilityError, match=r"^1 inner operations for arity 2$"):
            M.compose(outer, too_few)
        with pytest.raises(ComposabilityError) as raised:
            M.compose(outer, wrong_slot)
        assert str(raised.value) == f"inner output {slot_message}"
        if over_bound is not None:
            with pytest.raises(BoundExceededError, match=r"^arity 3 exceeds bound 2$"):
                M.compose(outer, over_bound)

    def test_tensor_window_over_an_infinite_factor_is_malformed(self):
        G = TensorGridView((endo_multicat(FreePermCat(TWO)), TWO))
        with pytest.raises(MalformedStructureError, match="not enumerable"):
            G.object_list()


def unique_to_terminal(M, target=MTERM):
    return Multifunctor(M, target, lambda c: "*",
                        lambda op: f"i{len(M.profile_of(op))}")


class TestMultifunctor:
    def test_identity_passes(self):
        for M in (MTERM, SIGNS, SWAP, TWO):
            assert validate_multifunctor(identity_multifunctor(M)).passed

    def test_unique_to_terminal_passes(self):
        for M in (SIGNS, SWAP, TWO):
            report = validate_multifunctor(unique_to_terminal(M))
            assert report.passed, report.summary()

    def test_composition_of_multifunctors(self):
        H = unique_to_terminal(SIGNS)
        K = compose_multifunctors(H, identity_multifunctor(SIGNS))
        assert validate_multifunctor(K).passed
        assert K.on_op("-2") == "i2"

    def test_unit_mutant(self):
        H = Multifunctor(SIGNS, SIGNS, lambda c: c,
                         lambda op: "-1" if op == "+1" else op)
        report = validate_multifunctor(H)
        assert "unit-preservation" in report.violated_axioms()

    def test_composition_mutant(self):
        H = Multifunctor(SIGNS, SIGNS, lambda c: c,
                         lambda op: "-2" if op == "+2" else op)
        report = validate_multifunctor(H)
        assert "composition-preservation" in report.violated_axioms()

    def test_equivariance_mutant(self):
        H = Multifunctor(SWAP, SWAP, lambda c: c,
                         lambda op: "q" if op == "p" else op)
        report = validate_multifunctor(H)
        assert "symmetry-preservation" in report.violated_axioms()

    def test_raising_action_is_a_counted_violation(self):
        # the binary operation and transposition of the validate_multicat
        # test: only the symmetry-preservation instance acts with them
        E = endo_multicat(sign_permcat())
        withheld = (EndoOp("1", ("0", "1"), "1:-"), (2, 1))
        view, _, acts = counting_view(E, withheld=withheld)
        well_typed = validate_multifunctor(identity_multifunctor(E), max_arity=2)
        report = validate_multifunctor(identity_multifunctor(view), max_arity=2)
        assert well_typed.passed, well_typed.summary()
        assert ill_typed_counts(report) == {"symmetry-preservation": 1}
        assert len(report.violations()) == 1 and acts[withheld] == 1
        assert ({c.axiom: c.instances for c in report.checks}
                == {c.axiom: c.instances for c in well_typed.checks})


class TestMultinat:
    def test_identity_passes(self):
        for M in (SIGNS, SWAP, TWO):
            theta = identity_multinat(identity_multifunctor(M))
            assert validate_multinat(theta).passed

    def test_any_multinat_into_terminal_passes(self):
        H = unique_to_terminal(SIGNS)
        theta = MultiNat(H, H, lambda c: "i1")
        assert validate_multinat(theta).passed

    def test_corrupted_component_fails(self):
        P = identity_multifunctor(SIGNS)
        theta = MultiNat(P, P, lambda c: "-1")
        report = validate_multinat(theta)
        assert "naturality" in report.violated_axioms()

    def test_vcomp_formula_and_validity(self):
        P = identity_multifunctor(SIGNS)
        theta = identity_multinat(P)
        beta = identity_multinat(P)
        composite = multinat_vcomp(beta, theta)
        assert composite.at("*") == "+1"
        assert validate_multinat(composite).passed

    def test_vcomp_with_identity_is_identity_componentwise(self):
        H = unique_to_terminal(SIGNS)
        theta = MultiNat(H, H, lambda c: "i1")
        assert multinat_vcomp(identity_multinat(H), theta).at("*") == theta.at("*")

    def test_hcomp_of_identities(self):
        P = identity_multifunctor(SIGNS)
        theta = identity_multinat(P)
        composite = multinat_hcomp(theta, theta)
        assert composite.at("*") == "+1"
        assert validate_multinat(composite).passed

    def test_interchange_on_fixture(self):
        # (b' * b) . (t' * t) == (b' . t') * (b . t) pointwise
        P = identity_multifunctor(SIGNS)
        minus = MultiNat(P, P, lambda c: "-1")

        def against(x, y):
            return multinat_vcomp(multinat_hcomp(x, x), multinat_hcomp(y, y)).at("*")

        lhs = against(minus, minus)
        rhs = multinat_hcomp(multinat_vcomp(minus, minus),
                             multinat_vcomp(minus, minus)).at("*")
        assert lhs == rhs
