"""Permutative categories, monoidal functors, and the n-linear calculus."""
import itertools
from collections import Counter
from dataclasses import replace

import pytest

from mutation import mutate_field
from permcat.errors import (
    BoundExceededError,
    ComposabilityError,
    MalformedStructureError,
    UnsupportedFragmentError,
)
from permcat.fixtures import (
    NEG,
    POS,
    bool_or_permcat,
    sign_multiplication,
    sign_of,
    sign_permcat,
    super_sign_permcat,
    zmod_permcat,
)
from permcat.free import FreePermCat
from permcat.multicat import terminal_multicat
from permcat.permcats import (
    MonoidalNat,
    NLinearFunctor,
    NLinearNat,
    SymMonFunctor,
    identity_monoidal_nat,
    identity_nlinear,
    identity_nlinear_nat,
    identity_smf,
    nlinear_from_smf,
    nlinear_gamma,
    nlinear_gamma_nat,
    nlinear_sigma_act,
    perm_to_morphism,
    smf_compose,
    smf_from_nlinear,
    sum_mors,
    sum_objs,
    validate_monoidal_nat,
    validate_nlinear,
    validate_nlinear_nat,
    validate_permcat,
    validate_smf,
)
from permcat.perms import Permutation, all_perms, identity_perm, perm_act, perm_compose
from permcat.reports import CheckReport, render

BOOL = bool_or_permcat()
Z3 = zmod_permcat(3)
SIGN = sign_permcat()
SUPER = super_sign_permcat()


class TestValidatePermcat:
    @pytest.mark.parametrize("C", [BOOL, Z3, SIGN, SUPER], ids=lambda c: c.name)
    def test_fixtures_pass(self, C):
        report = validate_permcat(C)
        assert report.passed, report.summary()

    def test_mutated_symmetry_fails_hexagon(self):
        mutant = mutate_field(SIGN, "symmetries", ("1", "0"), "1:-")
        report = validate_permcat(mutant)
        assert "hexagon" in report.violated_axioms()
        assert "symmetry-involution" in report.violated_axioms()

    def test_mutated_composition_fails(self):
        mutant = mutate_field(SIGN, "composition", (("1:-"), ("1:-")), "1:-")
        report = validate_permcat(mutant)
        assert not report.passed

    def test_mutated_sum_fails_functoriality(self):
        mutant = mutate_field(SIGN, "mor_sums", ("1:-", "1:+"), "0:+")
        report = validate_permcat(mutant)
        assert "sum-functoriality" in report.violated_axioms() or \
            "sum-associativity" in report.violated_axioms()


class TestPermToMorphism:
    def test_identity(self):
        prof = ("1", "1")
        assert perm_to_morphism(SUPER, identity_perm(2), prof) == SUPER.identity("0")

    def test_single_transposition_is_xi(self):
        prof = ("1", "1")
        assert perm_to_morphism(SUPER, Permutation((2, 1)), prof) == SUPER.xi("1", "1")

    def test_realization_is_parity_on_super_sign(self):
        prof = ("1", "1", "1")
        for p in all_perms(3):
            inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                             if p.images[i] > p.images[j])
            expected = POS if inversions % 2 == 0 else NEG
            assert sign_of(perm_to_morphism(SUPER, p, prof)) == expected

    def test_factorization_independence(self):
        # oracle: compose an explicit alternative factorization
        prof = ("1", "1", "1", "1")
        for p in [Permutation((2, 4, 1, 3)), Permutation((4, 3, 2, 1)),
                  Permutation((3, 1, 4, 2))]:
            via_reverse = _realize_sorting_right_to_left(SUPER, p, prof)
            assert perm_to_morphism(SUPER, p, prof) == via_reverse

    def test_composition_law(self):
        # realize(pi) then realize(pi') at the permuted profile equals
        # realize(pi pi'), exhaustively over Sigma_3
        prof = ("1", "0", "1")
        for p in all_perms(3):
            for q in all_perms(3):
                step1 = perm_to_morphism(SUPER, p, prof)
                step2 = perm_to_morphism(SUPER, q, perm_act(p, prof))
                assert SUPER.compose(step2, step1) == perm_to_morphism(
                    SUPER, perm_compose(p, q), prof)


def _realize_sorting_right_to_left(C, perm, profile):
    current = list(range(1, perm.degree + 1))
    target = list(perm.images)
    morphism = C.identity(sum_objs(C, profile))
    for slot in range(perm.degree - 1, -1, -1):
        b = current.index(target[slot])
        for pos in range(b, slot):
            left = sum_mors(C, [C.identity(profile[i - 1]) for i in current[:pos]])
            swap = C.xi(profile[current[pos] - 1], profile[current[pos + 1] - 1])
            right = sum_mors(C, [C.identity(profile[i - 1]) for i in current[pos + 2:]])
            morphism = C.compose(C.sum_mor(C.sum_mor(left, swap), right), morphism)
            current[pos], current[pos + 1] = current[pos + 1], current[pos]
    assert current == target
    return morphism


def twisted_identity_smf(C, bad_pair):
    """Identity functor with a single constraint component negated."""
    def m2(x, y):
        base = C.identity(C.sum_obj(x, y))
        if (x, y) == bad_pair:
            obj = C.sum_obj(x, y)
            return f"{obj}:{NEG}"
        return base
    return SymMonFunctor(C, C, lambda x: x, lambda f: f, m2, None)


class TestSymMonFunctor:
    def test_identity_passes_strict(self):
        report = validate_smf(identity_smf(SIGN))
        assert report.passed, report.summary()

    def test_composite_of_strictly_unital(self):
        P = identity_smf(SIGN)
        Q = smf_compose(P, P)
        assert Q.strictly_unital and Q.strict
        assert validate_smf(Q).passed
        assert Q.unit_constraint() == SIGN.identity("0")

    def test_mutated_constraint_fails_associativity(self):
        report = validate_smf(twisted_identity_smf(SIGN, ("1", "0")))
        assert "monoidal-associativity" in report.violated_axioms()

    def test_symmetric_twist_is_actually_coherent(self):
        # negating the (1,1) component alone satisfies every axiom: the
        # teeth test above must break symmetry between the two slots
        report = validate_smf(twisted_identity_smf(SIGN, ("1", "1")))
        assert report.passed

    def test_strict_flag_consistency(self):
        P = twisted_identity_smf(SIGN, ("1", "1"))
        P = SymMonFunctor(P.source, P.target, P.obj_map, P.mor_map, P.m2, None,
                          strict=True)
        report = validate_smf(P)
        assert "flag-consistency" in report.violated_axioms()


class TestMonoidalNat:
    def test_identity_passes(self):
        assert validate_monoidal_nat(identity_monoidal_nat(identity_smf(SIGN))).passed

    def test_corrupted_unit_component_fails_unity(self):
        P = identity_smf(SIGN)
        theta = MonoidalNat(P, P, lambda x: f"{x}:{NEG}")
        report = validate_monoidal_nat(theta)
        assert "unity" in report.violated_axioms()


MULT = sign_multiplication()
STRICT_MULT = sign_multiplication(POS, POS)


class TestNLinear:
    def test_multiplication_is_strong_bilinear(self):
        report = validate_nlinear(MULT)
        assert report.passed, report.summary()
        assert report.metadata["classification"] == "strong"

    def test_strict_variant(self):
        report = validate_nlinear(STRICT_MULT)
        assert report.passed
        assert report.metadata["classification"] == "strict"

    def test_one_linear_coincides_with_strictly_unital_smf(self):
        P = identity_smf(SIGN)
        report = validate_nlinear(nlinear_from_smf(P))
        assert report.passed
        back = smf_from_nlinear(nlinear_from_smf(P))
        assert validate_smf(back).passed
        for x in SIGN.objects:
            assert back.on_obj(x) == P.on_obj(x)

    def test_unit_constraint_must_be_identity(self):
        def bad_constraint(j, X, X2):
            if X2 == "0" and j == 1 and X == ("1", "1"):
                return "1:-"
            return MULT.constraint(j, X, X2)
        P = NLinearFunctor(MULT.sources, MULT.target, MULT.obj_map, MULT.mor_map,
                           bad_constraint)
        report = validate_nlinear(P)
        assert "constraint-unity" in report.violated_axioms()

    def test_zero_linear_is_object_choice(self):
        P = NLinearFunctor((), SIGN, lambda X: "1", lambda fs: SIGN.identity("1"))
        report = validate_nlinear(P)
        assert report.passed

    def test_nlinear_nat_identity(self):
        assert validate_nlinear_nat(identity_nlinear_nat(MULT)).passed

    def test_nontrivial_nat_on_multiplication(self):
        theta = NLinearNat(MULT, MULT,
                           lambda X: f"{MULT.on_obj(X)}:{NEG if X == ('1', '1') else POS}")
        report = validate_nlinear_nat(theta)
        assert report.passed, report.summary()

    def test_nat_unit_component_must_be_unit(self):
        theta = NLinearNat(MULT, MULT,
                           lambda X: f"{MULT.on_obj(X)}:{NEG if X == ('0', '1') else POS}")
        report = validate_nlinear_nat(theta)
        assert "unity" in report.violated_axioms()


class WithheldComposite:
    """``C`` with ``compose`` counting its calls per pair and raising
    ``error`` on the one pair ``pair``."""

    def __init__(self, C, pair=None, error=None):
        self.C, self.pair, self.error = C, pair, error
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.C, name)

    def compose(self, g, f):
        self.calls[g, f] += 1
        if (g, f) == self.pair:
            raise self.error("composite withheld")
        return self.C.compose(g, f)


WITHHELD = ("1:-", "1:+")


def sign_at_one_one(X):
    return f"{MULT.on_obj(X)}:{NEG if X == ('1', '1') else POS}"


def withheld_reports(error) -> list:
    P = replace(MULT, target=WithheldComposite(MULT.target, WITHHELD, error))
    return [validate_nlinear(P), validate_nlinear_nat(NLinearNat(P, P, sign_at_one_one))]


class TestWithheldComposite:
    """A leg whose composite raises leaves its instance unknown or counts
    it ill-typed, in every axiom; the validator itself never raises."""

    def test_unknown_and_ill_typed_instances(self):
        clean = [validate_nlinear(MULT),
                 validate_nlinear_nat(NLinearNat(MULT, MULT, sign_at_one_one))]
        ill_typed = withheld_reports(ComposabilityError)
        unknown = withheld_reports(UnsupportedFragmentError)
        for ok, bad, skipped in zip(clean, ill_typed, unknown):
            assert ok.passed and skipped.passed
            counts = Counter({c.axiom: c.instances for c in ok.checks})
            assert Counter({c.axiom: c.instances for c in bad.checks}) == counts
            assert all(v.witness.startswith("(ill-typed, ") for v in bad.violations())
            withheld = Counter(v.axiom for v in bad.violations())
            assert Counter({c.axiom: c.instances for c in skipped.checks}) == +(counts - withheld)
        assert Counter(v.axiom for v in ill_typed[1].violations())["constraint-compatibility"] > 0

    def test_ill_typed_witnesses_are_the_instance_witnesses(self):
        def composable(fs, gs):
            return all(S.src(g) == S.tgt(f) for S, f, g in zip(MULT.sources, fs, gs))

        homs = [[f for x in S.object_list() for y in S.object_list() for f in S.hom(x, y)]
                for S in MULT.sources]
        pairs = list(itertools.product(*homs))
        expected = [render(("ill-typed", gs, fs)) for fs in pairs for gs in pairs
                    if composable(fs, gs) and (MULT.on_mor(gs), MULT.on_mor(fs)) == WITHHELD]
        assert expected
        functor, nat = withheld_reports(ComposabilityError)
        assert [v.witness for v in functor.check("functor-composition").violations] == expected

        def legs(fs):
            X = tuple(S.src(f) for S, f in zip(MULT.sources, fs))
            Y = tuple(S.tgt(f) for S, f in zip(MULT.sources, fs))
            return [(sign_at_one_one(Y), MULT.on_mor(fs)), (MULT.on_mor(fs), sign_at_one_one(X))]

        expected = [render(("ill-typed", fs)) for fs in pairs if WITHHELD in legs(fs)]
        assert expected
        assert [v.witness for v in nat.check("naturality").violations] == expected

    @pytest.mark.parametrize("error", [ComposabilityError, MalformedStructureError,
                                       BoundExceededError, UnsupportedFragmentError])
    def test_inverse_search_never_escapes(self, error):
        # the strong/strict classification searches for inverses of the
        # constraint components; that search composes the withheld pair
        P = replace(MULT, target=WithheldComposite(MULT.target, ("0:+", "0:-"), error))
        smf = replace(twisted_identity_smf(SIGN, ("1", "1")), strong=True)
        Q = replace(smf, target=WithheldComposite(SIGN, ("0:-", "0:-"), error))
        functor, monoidal = validate_nlinear(P), validate_smf(Q)
        clean = validate_smf(smf).check("flag-consistency")
        flags = monoidal.check("flag-consistency")
        assert functor.metadata["classification"] == "strong"
        if error in (ComposabilityError, MalformedStructureError):
            invertibility = functor.check("constraint-invertibility")
            assert invertibility.instances == 1
            assert [v.witness for v in invertibility.violations] == ["(ill-typed, 1, (1, 1), 1)"]
            assert flags.instances == clean.instances
            assert [v.witness for v in flags.violations] == ["(ill-typed, m2-invertible, 1, 1)"]
        else:
            assert "constraint-invertibility" not in [c.axiom for c in functor.checks]
            assert functor.passed and monoidal.passed
            assert flags.instances == clean.instances - 1


MTERM3_FREE = FreePermCat(terminal_multicat(3), partial_homs=True)
WINDOW = MTERM3_FREE.enumerate_objects(2)
WINDOW_COUNTS = {
    "identity-typing": 3, "category-unity": 22, "category-associativity": 211,
    "sum-unity": 6, "sum-associativity": 1358, "sum-functoriality": 2218,
    "sum-unity-morphisms": 22, "sum-typing": 121, "symmetry-typing": 9,
    "symmetry-involution": 9, "unit-symmetry": 6, "symmetry-naturality": 121,
    "hexagon": 27}


class TestWindowMemo:
    """``validate_permcat`` composes each pair of window morphisms at most
    once per call, and a pair that raises raises for every instance."""

    MORS = [f for x in WINDOW for y in WINDOW for f in MTERM3_FREE.hom(x, y)]

    def test_each_window_pair_composed_once(self):
        C = WithheldComposite(MTERM3_FREE)
        report = validate_permcat(C, objects=WINDOW)
        assert report.passed, report.summary()
        assert {c.axiom: c.instances for c in report.checks} == WINDOW_COUNTS
        window_calls = {pair: n for pair, n in C.calls.items()
                        if pair[0] in self.MORS and pair[1] in self.MORS}
        assert set(window_calls.values()) == {1}
        assert set(window_calls) == {(g, f) for f in self.MORS for g in self.MORS
                                     if C.src(g) == C.tgt(f)}

    def test_withheld_window_pair_is_ill_typed_in_every_instance(self):
        F = MTERM3_FREE
        pair = (F.hom(("*", "*"), ("*",))[0], F.hom(("*",), ("*", "*"))[0])
        C = WithheldComposite(F, pair, MalformedStructureError)
        report = validate_permcat(C, objects=WINDOW)
        assert {c.axiom: c.instances for c in report.checks} == WINDOW_COUNTS

        # the category-associativity instances (h, g, f) in report order
        # whose legs ask for the withheld pair
        mors = self.MORS
        expected = [render(("ill-typed", h, g, f))
                    for f in mors for g in mors if F.src(g) == F.tgt(f)
                    for h in mors if F.src(h) == F.tgt(g)
                    if pair in [(g, f), (h, F.compose(g, f)), (h, g), (F.compose(h, g), f)]]
        assert expected
        associativity = report.check("category-associativity").violations
        assert [v.witness for v in associativity] == expected
        assert all(v.witness.startswith("(ill-typed, ") for v in report.violations())
        assert C.calls[pair] == len(report.violations())


class RedirectedComposite(WithheldComposite):
    """``C`` whose composite of the one pair ``pair`` is ``result``."""

    def __init__(self, C, pair, result):
        super().__init__(C, pair)
        self.result = result

    def compose(self, g, f):
        return self.result if (g, f) == self.pair else self.C.compose(g, f)


def category_axioms_by_value(C, mors) -> CheckReport:
    """Category unity and associativity over ``mors``, every leg composed
    by value, in the order ``validate_permcat`` enumerates them."""
    report = CheckReport("by-value")
    for f in mors:
        report.evaluate("category-unity", lambda: C.compose(C.identity(C.tgt(f)), f),
                        lambda: f, ("left", f))
        report.evaluate("category-unity", lambda: C.compose(f, C.identity(C.src(f))),
                        lambda: f, ("right", f))
    for f in mors:
        for g in (g for g in mors if C.src(g) == C.tgt(f)):
            for h in (h for h in mors if C.src(h) == C.tgt(g)):
                report.evaluate("category-associativity",
                                lambda: C.compose(h, C.compose(g, f)),
                                lambda: C.compose(C.compose(h, g), f), (h, g, f))
    return report


class TestOutOfWindowComposite:
    """A window pair whose composite is a morphism outside the window:
    unity and associativity report what composing every leg by value
    reports, whether the outside morphism is numbered or not."""

    def test_matches_composing_by_value(self):
        F = MTERM3_FREE
        g = F.hom(("*",), ("*", "*"))[0]
        outside = F.hom(("*",), ("*", "*", "*"))[0]
        C = RedirectedComposite(F, (g, F.identity(("*",))), outside)
        report = validate_permcat(C, objects=WINDOW)
        expected = category_axioms_by_value(C, TestWindowMemo.MORS)
        for axiom in ("category-unity", "category-associativity"):
            got, want = report.check(axiom), expected.check(axiom)
            assert got.instances == want.instances == WINDOW_COUNTS[axiom]
            assert [v.witness for v in got.violations] == [v.witness for v in want.violations]
        assert [v.witness for v in report.check("category-unity").violations] == \
            [render(("right", g))]
        # the outside morphism is composed on: some legs are ill-typed, and
        # some compose to a morphism other than the window's composite
        ill_typed = Counter(v.witness.startswith("(ill-typed, ")
                            for v in report.check("category-associativity").violations)
        assert ill_typed[True] and ill_typed[False]


class TestSigmaAction:
    def test_identity_action(self):
        P = nlinear_sigma_act(MULT, identity_perm(2))
        for X in itertools.product(SIGN.objects, repeat=2):
            assert P.on_obj(X) == MULT.on_obj(X)
            for X2 in SIGN.objects:
                for j in (1, 2):
                    assert P.constraint(j, X, X2) == MULT.constraint(j, X, X2)

    def test_action_functorial(self):
        for s in all_perms(2):
            for t in all_perms(2):
                lhs = nlinear_sigma_act(nlinear_sigma_act(MULT, s), t)
                rhs = nlinear_sigma_act(MULT, perm_compose(s, t))
                for X in itertools.product(SIGN.objects, repeat=2):
                    assert lhs.on_obj(X) == rhs.on_obj(X)
                    for X2 in SIGN.objects:
                        for j in (1, 2):
                            assert lhs.constraint(j, X, X2) == rhs.constraint(j, X, X2)

    def test_acted_functor_validates(self):
        P = nlinear_sigma_act(MULT, Permutation((2, 1)))
        report = validate_nlinear(P)
        assert report.passed, report.summary()

    def test_flags_preserved(self):
        acted = nlinear_sigma_act(MULT, Permutation((2, 1)))
        assert validate_nlinear(acted).metadata["classification"] == "strong"


class TestGamma:
    def test_unary_identities_give_back_p(self):
        composite = nlinear_gamma(MULT, (identity_nlinear(SIGN), identity_nlinear(SIGN)))
        for X in itertools.product(SIGN.objects, repeat=2):
            assert composite.on_obj(X) == MULT.on_obj(X)
            for j in (1, 2):
                for X2 in SIGN.objects:
                    assert composite.constraint(j, X, X2) == MULT.constraint(j, X, X2)

    def test_composite_of_strong_is_strong_and_valid(self):
        composite = nlinear_gamma(MULT, (MULT, identity_nlinear(SIGN)))
        assert composite.arity == 3
        report = validate_nlinear(composite)
        assert report.passed, report.summary()
        assert report.metadata["classification"] == "strong"

    def test_gamma_nat_of_identities(self):
        theta = identity_nlinear_nat(MULT)
        inner = identity_nlinear_nat(identity_nlinear(SIGN))
        composite = nlinear_gamma_nat(theta, (inner, inner))
        assert validate_nlinear_nat(composite).passed

    def test_gamma_with_zero_linear_inner(self):
        point = NLinearFunctor((), SIGN, lambda X: "1", lambda fs: SIGN.identity("1"))
        composite = nlinear_gamma(MULT, (point, identity_nlinear(SIGN)))
        assert composite.arity == 1
        assert composite.on_obj(("1",)) == "1"
        assert composite.on_obj(("0",)) == "0"
        assert validate_nlinear(composite).passed


class TestGammaMulticatLaws:
    """Sampled multicategory laws for the (functor, constraint) calculus."""

    def test_unity_outer_identity(self):
        composite = nlinear_gamma(identity_nlinear(SIGN), (MULT,))
        for X in itertools.product(SIGN.objects, repeat=2):
            assert composite.on_obj(X) == MULT.on_obj(X)
            for j in (1, 2):
                for X2 in SIGN.objects:
                    assert composite.constraint(j, X, X2) == MULT.constraint(j, X, X2)

    def test_associativity_sampled(self):
        I = identity_nlinear(SIGN)
        lhs = nlinear_gamma(nlinear_gamma(MULT, (I, I)), (MULT, I))
        rhs = nlinear_gamma(MULT, (nlinear_gamma(I, (MULT,)), nlinear_gamma(I, (I,))))
        for X in itertools.product(SIGN.objects, repeat=3):
            assert lhs.on_obj(X) == rhs.on_obj(X)
            for ell in (1, 2, 3):
                for X2 in SIGN.objects:
                    assert lhs.constraint(ell, X, X2) == rhs.constraint(ell, X, X2)

    def test_top_equivariance_sampled(self):
        # gamma(P^s; inners permuted) = gamma(P; inners)^(block perm)
        I = identity_nlinear(SIGN)
        swap = Permutation((2, 1))
        inners = (MULT, I)
        lhs = nlinear_gamma(nlinear_sigma_act(MULT, swap),
                            tuple(perm_act(swap, inners)))
        from permcat.perms import block_perm
        rhs = nlinear_sigma_act(nlinear_gamma(MULT, inners), block_perm(swap, (2, 1)))
        for X in itertools.product(SIGN.objects, repeat=3):
            assert lhs.on_obj(X) == rhs.on_obj(X)
            for ell in (1, 2, 3):
                for X2 in SIGN.objects:
                    assert lhs.constraint(ell, X, X2) == rhs.constraint(ell, X, X2)

    def test_bottom_equivariance_sampled(self):
        # gamma(P; inners acted) = gamma(P; inners)^(block sum)
        from permcat.perms import block_sum, identity_perm
        swap = Permutation((2, 1))
        inners = (MULT, MULT)
        outer = MULT
        lhs = nlinear_gamma(outer, (nlinear_sigma_act(MULT, swap), MULT))
        rhs = nlinear_sigma_act(nlinear_gamma(outer, inners),
                                block_sum((swap, identity_perm(2))))
        for X in itertools.product(SIGN.objects, repeat=4):
            assert lhs.on_obj(X) == rhs.on_obj(X)
            for ell in (1, 2, 3, 4):
                for X2 in SIGN.objects:
                    assert lhs.constraint(ell, X, X2) == rhs.constraint(ell, X, X2)
