"""Unit/counit comparisons, triangle identities, marking, and the
counit's non-naturality witness."""
import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from permcat import endo, transforms

from permcat.endo import EndoOp, endo_multicat
from permcat.fixtures import (
    NEG,
    POS,
    bool_or_permcat,
    s3_codiscrete_permcat,
    sign_multiplication,
    sign_permcat,
    super_sign_permcat,
    zmod_permcat,
    zmod_sign_multiplication,
)
from permcat.documents import dumps, parse_document, serialize
from permcat.free import FreeMorphism, FreePermCat
from permcat.multicat import (
    Multifunctor,
    identity_multifunctor,
    terminal_multicat,
    validate_multifunctor,
)
from permcat.permcats import (
    SymMonFunctor,
    identity_smf,
    smf_compose,
    validate_permcat,
    validate_smf,
)
from permcat.perms import FinMap, Permutation, identity_map, terminal_map
from permcat.fixtures import sign_operad, swap_operad, two_object_multicat
from permcat.tensor import tensor_grid, tensor_op
from permcat.transforms import (
    check_eta_square,
    check_rho_mark_square,
    check_triangles,
    epsilon,
    epsilon_square,
    eta,
    mark_category,
    mark_functor,
    rho,
    xi_f,
)

SIGN = sign_permcat()
SUPER = super_sign_permcat()
BOOL = bool_or_permcat()
Z3 = zmod_permcat(3)
SIGNS2 = sign_operad(2)
TWO = two_object_multicat()
MTERM3 = terminal_multicat(3)
# the five shipped permcats; super-sign and s3-codiscrete pin the direction
# conventions (a nontrivial symmetry and a noncommutative composition)
PERMCATS = [SIGN, SUPER, BOOL, Z3, s3_codiscrete_permcat()]


class TestEta:
    def test_unit_goes_to_identity(self):
        e = eta(SIGNS2)
        image = e.on_op("+1")
        assert image.mor == FreeMorphism(("*",), ("*",), identity_map(1), ("+1",))

    def test_ternary_shape(self):
        signs3 = sign_operad(3)
        image = eta(signs3).on_op("-3")
        assert image.mor.index_map == terminal_map(3)
        assert image.mor.ops == ("-3",)
        assert image.profile == (("*",), ("*",), ("*",))

    @pytest.mark.parametrize("M", [SIGNS2, TWO, swap_operad()], ids=lambda m: m.name)
    def test_validates_as_multifunctor(self, M):
        report = validate_multifunctor(eta(M), max_arity=2)
        assert report.passed, report.summary()

    def test_preserves_composition_instance(self):
        e = eta(SIGNS2)
        E = e.target
        lhs = e.on_op(SIGNS2.compose("-2", ("+1", "-1")))
        rhs = E.compose(e.on_op("-2"), (e.on_op("+1"), e.on_op("-1")))
        assert lhs == rhs


class TestEtaSquare:
    def test_identity_n1(self):
        H = identity_multifunctor(SIGNS2)
        report = check_eta_square(H, (SIGNS2,), max_arity=2)
        assert report.passed, report.summary()

    def test_binary_fixture_exhaustive(self):
        grid = tensor_grid((SIGNS2, TWO))
        mterm4 = terminal_multicat(4)
        H = Multifunctor(grid, mterm4, lambda c: "*",
                         lambda op: f"i{grid.arity_of(op)}")
        report = check_eta_square(H, (SIGNS2, TWO), max_arity=2)
        assert report.passed, report.summary()
        assert report.total_instances() >= 24

    def test_perturbed_insertion_breaks_square(self):
        # sanity anti-test: inserting with permuted bookkeeping on a
        # factor side fails the square on some instance
        from permcat.endo import EndoOp, endo_action
        from permcat.tensor import f_multi
        from permcat.perms import Permutation, perm_act

        grid = tensor_grid((TWO, SIGNS2))
        H = identity_multifunctor(grid)
        honest1, honest2 = eta(TWO), eta(SIGNS2)
        eta_N = eta(grid)
        P = f_multi(H, (TWO, SIGNS2))
        assert check_eta_square(H, (TWO, SIGNS2), max_arity=2).passed

        def crooked_insert(op):
            image = honest1.on_op(op)
            n = len(image.profile)
            if n < 2:
                return image
            swap = Permutation((2, 1) + tuple(range(3, n + 1)))
            mor = image.mor
            twisted = FreeMorphism(perm_act(swap, mor.source), mor.target,
                                   mor.index_map, (TWO.act(mor.ops[0], swap),))
            return EndoOp(image.target, perm_act(swap, image.profile), twisted)

        mismatches = 0
        for op1 in TWO.operations:
            for op2 in ("+1", "-2"):
                cell = tensor_op((TWO, SIGNS2), (op1, op2))
                lhs = eta_N.on_op(H.on_op(cell))
                rhs = endo_action(P, (crooked_insert(op1), honest2.on_op(op2)))
                if lhs != rhs:
                    mismatches += 1
        assert mismatches > 0

    def test_sign_collapse_multifunctor_is_impossible(self):
        # an executable obstruction: the tensor identifies nullary
        # operations across signs, so no sign-separating collapse exists
        signs4 = sign_operad(4)
        grid = tensor_grid((SIGNS2, SIGNS2))
        H = Multifunctor(grid, signs4, lambda c: "*", _sign_collapse)
        assert not validate_multifunctor(H, max_arity=2).passed


def _flip_sign(op):
    return f"{'-' if op[0] == '+' else '+'}{op[1:]}"


def _sign_collapse(op):
    # each component sign appears once per grid cell of the other factors
    from permcat.fixtures import _sign_mul
    arities = [int(c[1:]) for c in op.components]
    total = 1
    for a in arities:
        total *= a
    parts = []
    for i, c in enumerate(op.components):
        others = 1
        for i2, a in enumerate(arities):
            if i2 != i:
                others *= a
        parts.extend([c[0]] * others)
    return f"{_sign_mul(*parts)}{total}"


class TestRhoEpsilon:
    def test_rho_on_identity(self):
        r = rho(SIGN)
        assert r.on_mor(SIGN.identity("1")) == FreeMorphism(
            ("1",), ("1",), identity_map(1), (EndoOp("1", ("1",), "1:+"),))

    def test_rho_unit_constraint_shape(self):
        r = rho(SIGN)
        m0 = r.unit_constraint()
        assert m0.source == () and m0.target == ("0",)
        assert not r.strictly_unital

    @pytest.mark.parametrize("C", [SIGN, BOOL, Z3], ids=lambda c: c.name)
    def test_rho_validates(self, C):
        report = validate_smf(rho(C))
        assert report.passed, report.summary()

    @pytest.mark.parametrize("C", [SIGN, SUPER, BOOL], ids=lambda c: c.name)
    def test_epsilon_validates_strict(self, C):
        FE = FreePermCat(endo_multicat(C))
        window = FE.enumerate_objects(2)
        report = validate_smf(epsilon(C), objects=window)
        assert report.passed, report.summary()

    def test_epsilon_on_objects(self):
        assert epsilon(SIGN).on_obj(("1", "1")) == "0"

    def test_epsilon_of_free_symmetry_is_xi(self):
        FE = FreePermCat(endo_multicat(SUPER))
        sym = FE.xi(("1",), ("1",))
        assert epsilon(SUPER).on_mor(sym) == SUPER.xi("1", "1")

    def test_epsilon_of_inserted_operation(self):
        mu = EndoOp("0", ("1", "1"), "0:-")
        E = endo_multicat(SIGN)
        inserted = eta(E).on_op(mu)
        assert epsilon(SIGN).on_mor(inserted.mor) == "0:-"

    def test_xi_f_sorts_into_fiber_order(self):
        f = FinMap(3, 2, (2, 1, 2))
        sort = xi_f(f)
        from permcat.perms import perm_act
        assert perm_act(sort, ("a", "b", "c")) == ("b", "a", "c")


class TestTriangles:
    @pytest.mark.parametrize("M,C", [
        (MTERM3, BOOL), (SIGNS2, Z3), (TWO, SIGN), (MTERM3, Z3),
    ], ids=["mterm-bool", "sign-z3", "two-sign", "mterm-z3"])
    def test_pass_on_fixtures(self, M, C):
        report = check_triangles(M, C, max_len=3, max_arity=3)
        assert report.passed, report.summary()

    def test_perturbed_sort_fails(self, monkeypatch):
        from permcat.perms import Permutation, identity_perm, perm_compose
        from permcat.permcats import perm_to_morphism, sum_mors

        def crooked_epsilon(C):
            honest = epsilon(C)

            def on_mor(mor):
                # precompose the sort with a transposition of two equal
                # source entries: boundary-compatible but wrong
                perm = xi_f(mor.index_map)
                src = mor.source
                for i in range(len(src)):
                    for j in range(i + 1, len(src)):
                        if src[i] == src[j]:
                            images = list(identity_perm(len(src)).images)
                            images[i], images[j] = images[j], images[i]
                            perm = perm_compose(Permutation(tuple(images)), perm)
                            break
                    else:
                        continue
                    break
                sort = perm_to_morphism(C, perm, src)
                return C.compose(sum_mors(C, [op.mor for op in mor.ops]), sort)

            return SymMonFunctor(honest.source, honest.target, honest.obj_map,
                                 on_mor, None, None, strict=True,
                                 strictly_unital=True, strong=True)

        monkeypatch.setattr(transforms, "epsilon", crooked_epsilon)
        report = check_triangles(TWO, BOOL, max_len=3, max_arity=2)
        assert "counit-after-free-unit" in report.violated_axioms()


def sign_fixtures() -> tuple:
    """The two sign multiplications of the counit square, with equal
    sources: nonidentity first linearity constraint, then strict."""
    return sign_multiplication(NEG, POS), sign_multiplication(POS, POS)


class TestCounterexample:
    # SHA-256 of each square report's JSON: every instance, in order, with
    # every rendered witness
    SQUARE_DIGESTS = [
        "80f8338cde2ea80aaca52edc6e7c7b09a8b3b1505a9224fd0860947658066615",
        "c9f9ce1ead638a07ec64f2f758244410a6abd2f939cd243e4b29a5bf0314b419"]

    def test_square_reports_are_pinned(self):
        # one pass over both fixtures gives each the report it had alone
        reports = epsilon_square(sign_fixtures())
        assert [hashlib.sha256(dumps(report.as_json()).encode()).hexdigest()
                for report in reports] == self.SQUARE_DIGESTS

    def test_witness_exists_and_fails(self):
        P = sign_multiplication(NEG, POS)
        # the functor genuinely has a nonidentity constraint
        assert P.constraint(1, ("1", "1"), "1") == "0:-"
        counts = [[(c.axiom, c.instances, len(c.violations)) for c in report.checks]
                  for report in epsilon_square((P, sign_multiplication(POS, POS)))]
        assert counts == [[("square", 9801, 460)], [("square", 9801, 0)]]

    def test_unequal_sources_are_refused(self):
        with pytest.raises(ValueError, match="equal sources"):
            epsilon_square((sign_multiplication(NEG, POS), zmod_sign_multiplication(4)))

    def test_strict_square_acts_once_per_operation(self, monkeypatch):
        fixtures = sign_fixtures()
        asked, acted = [], [0] * len(fixtures)
        action, induced = endo.endo_action, transforms.decomposable_endo_multifunctor

        def counting_action(P, mus):
            acted[next(k for k, Q in enumerate(fixtures) if Q is P)] += 1
            return action(P, mus)

        def recording_induced(P):
            F = induced(P)
            ops = Counter()
            asked.append(ops)

            def on_op(op):
                ops[op.components, op.twist] += 1
                return F.on_op(op)

            return replace(F, op_map=on_op)

        monkeypatch.setattr(endo, "endo_action", counting_action)
        monkeypatch.setattr(transforms, "decomposable_endo_multifunctor", recording_induced)
        # two runs in one process: each builds its own memo, so the second
        # makes exactly the calls of the first
        for _ in range(2):
            asked.clear()
            acted[:] = [0] * len(fixtures)
            _, strict = epsilon_square(fixtures)
            counts = [(c.axiom, c.instances, len(c.violations)) for c in strict.checks]
            assert counts == [("square", 9801, 0)]
            # each fixture's induced functor acts once per operation it is asked
            assert acted == [len(ops) for ops in asked] == [196, 196]

    @pytest.mark.parametrize("alpha, violations", [(POS, 0), (NEG, 460)])
    def test_counit_images_computed_once_per_window_morphism(
            self, monkeypatch, alpha, violations):
        calls = []
        honest = transforms.epsilon

        def counting_epsilon(C):
            E = honest(C)
            calls.append(0)
            slot = len(calls) - 1

            def on_mor(mor):
                calls[slot] += 1
                return E.on_mor(mor)

            return replace(E, mor_map=on_mor)

        monkeypatch.setattr(transforms, "epsilon", counting_epsilon)
        [report] = epsilon_square((sign_multiplication(alpha, POS),))
        counts = [(c.axiom, c.instances, len(c.violations)) for c in report.checks]
        assert counts == [("square", 9801, violations)]
        # one counit per factor, then the counit of the target, once per square
        assert calls == [99, 99, 9801]

    def test_counit_sorts_once_per_index_map_and_source(self, monkeypatch):
        asked, sorts = [], []
        honest_epsilon, honest_sort = transforms.epsilon, transforms.perm_to_morphism

        def recording_epsilon(C):
            E = honest_epsilon(C)
            pairs = set()
            asked.append(pairs)

            def on_mor(mor):
                pairs.add((mor.index_map, mor.source))
                return E.on_mor(mor)

            return replace(E, mor_map=on_mor)

        def counting_sort(*args):
            sorts.append(args)
            return honest_sort(*args)

        monkeypatch.setattr(transforms, "epsilon", recording_epsilon)
        monkeypatch.setattr(transforms, "perm_to_morphism", counting_sort)
        _, strict = epsilon_square(sign_fixtures())
        counts = [(c.axiom, c.instances, len(c.violations)) for c in strict.checks]
        assert counts == [("square", 9801, 0)]
        # each counit sorts once per distinct (index map, source) it is given:
        # the factors' counits are shared, each fixture has its target's
        assert [len(pairs) for pairs in asked] == [29, 29, 316, 316]
        assert len(sorts) == sum(len(pairs) for pairs in asked)


class TestMarking:
    @pytest.mark.parametrize("C", PERMCATS, ids=lambda c: c.name)
    def test_marked_category_validates(self, C):
        marked = mark_category(C)
        report = validate_permcat(marked.category)
        assert report.passed, report.summary()

    def test_hom_cardinality_table(self):
        C = SIGN
        m = mark_category(C)
        Cm = m.category
        assert Cm.hom(m.zero, m.zero) == (Cm.identity(m.zero),)
        for x in C.objects:
            assert len(Cm.hom(m.zero, x)) == len(C.hom(C.unit, x))
            assert Cm.hom(x, m.zero) == ()
            for y in C.objects:
                assert Cm.hom(x, y) == C.hom(x, y)

    def test_t_idempotent_under_sum(self):
        m = mark_category(SIGN)
        assert m.category.sum_mor(m.t, m.t) == m.t

    def test_zero_is_strict_unit(self):
        m = mark_category(SIGN)
        for x in m.category.objects:
            assert m.category.sum_obj(m.zero, x) == x
            assert m.category.sum_obj(x, m.zero) == x

    def test_collapse_after_inclusion_is_identity(self):
        m = mark_category(SUPER)
        for x in SUPER.objects:
            assert m.collapse.on_obj(m.inclusion.on_obj(x)) == x
        for f in SUPER.morphisms():
            assert m.collapse.on_mor(m.inclusion.on_mor(f)) == f

    def test_collapse_validates_strict(self):
        m = mark_category(SIGN)
        report = validate_smf(m.collapse)
        assert report.passed, report.summary()

    def test_inclusion_validates(self):
        m = mark_category(SIGN)
        report = validate_smf(m.inclusion)
        assert report.passed, report.summary()

    def test_collapse_sends_t_to_unit_identity(self):
        m = mark_category(SIGN)
        assert m.collapse.on_mor(m.t) == SIGN.identity(SIGN.unit)

    def test_connecting_morphism_names_are_fresh(self):
        # a morphism already named like the connecting morphism of id:0
        text = serialize("permcat", BOOL).replace('"id:1"', '"mark:t;id:0"')
        _, C = parse_document(text)
        assert validate_permcat(C).passed
        m = mark_category(C)
        Cm = m.category
        assert set(C.morphisms()) < set(Cm.morphisms())
        assert len(Cm.morphisms()) == len(C.morphisms()) + 2    # mark:id0 and t
        for f in C.morphisms():
            assert (Cm.src(f), Cm.tgt(f)) == (C.src(f), C.tgt(f))
        report = validate_permcat(Cm)
        assert report.passed, report.summary()


class TestMarkedFunctors:
    def test_mark_functor_strictly_unital_and_valid(self):
        m = mark_category(SIGN)
        P = rho(SIGN)    # not strictly unital: the marking repairs that
        lifted = mark_functor(P, m)
        assert lifted.strictly_unital
        FE = P.target
        window = tuple(m.category.objects)
        report = validate_smf(lifted, objects=window)
        assert report.passed, report.summary()
        assert lifted.on_mor(m.t) == P.unit_constraint()

    @pytest.mark.parametrize("C", PERMCATS, ids=lambda c: c.name)
    def test_one_lift_builds_the_square(self, C):
        """The marked inclusion and the pointed lift are both
        ``mark_functor`` of a composite, and the square holds."""
        report = check_rho_mark_square(identity_smf(C))
        assert report.passed, report.summary()
        m = mark_category(C)
        window = m.category.objects
        report = validate_smf(mark_functor(rho(C), m), objects=window)
        assert report.passed, report.summary()
        pointed = mark_functor(smf_compose(m.inclusion, identity_smf(C)), m)
        assert pointed.on_mor(m.t) == m.t
        report = validate_smf(pointed, objects=window)
        assert report.passed, report.summary()

    def test_rho_mark_square_identity(self):
        report = check_rho_mark_square(identity_smf(SIGN))
        assert report.passed, report.summary()

    def test_rho_mark_square_nontrivial_one_linear(self):
        def m2(x, y):
            obj = SIGN.sum_obj(x, y)
            return f"{obj}:{NEG if (x, y) == ('1', '1') else POS}"

        P = SymMonFunctor(SIGN, SIGN, lambda x: x, lambda f: f, m2, None,
                          strictly_unital=True)
        assert validate_smf(P).passed
        report = check_rho_mark_square(P)
        assert report.passed, report.summary()
