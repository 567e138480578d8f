"""The endomorphism multicategory and its functor/action calculus."""
import json
import pathlib
from collections import Counter

import pytest

from permcat.cli import run_command
from permcat.endo import (
    EndoOp,
    basepoint_check,
    collapse_run,
    endo_action,
    endo_multicat,
    endo_on_functor,
    endo_on_nat,
)
from permcat.errors import ComposabilityError
from permcat.fixtures import (
    NEG,
    POS,
    bool_or_permcat,
    s3_codiscrete_permcat,
    sign_multiplication,
    sign_permcat,
    super_sign_permcat,
    zmod_permcat,
)
from permcat.multicat import (
    MulticatView,
    validate_multicat,
    validate_multifunctor,
    validate_multinat,
)
from permcat.permcats import (
    MonoidalNat,
    identity_smf,
    nlinear_from_smf,
    perm_to_morphism,
    smf_compose,
    sum_mors,
    sum_objs,
)
from permcat.perms import Permutation, all_perms, grid_transpose

SIGN = sign_permcat()
SUPER = super_sign_permcat()
BOOL = bool_or_permcat()
Z3 = zmod_permcat(3)
S3 = s3_codiscrete_permcat()
DOCS = pathlib.Path(__file__).resolve().parent.parent / "documents"


class TestEndoMulticat:
    def test_nullary_ops_are_unit_homs(self):
        E = endo_multicat(SIGN)
        ops = E.ops("1", ())
        assert [op.mor for op in ops] == list(SIGN.hom("0", "1"))

    def test_basepoint(self):
        for C in (SIGN, BOOL, Z3, SUPER, S3):
            report = basepoint_check(C)
            assert report.passed, report.summary()

    @pytest.mark.parametrize("C,bound,window", [
        (SIGN, 3, None), (BOOL, 3, None), (Z3, 3, None), (SUPER, 2, None),
        (S3, 2, ("abc", "bac", "acb")),
    ], ids=["sign3", "bool3", "zmod3", "super2", "s3w2"])
    def test_validates(self, C, bound, window):
        report = validate_multicat(endo_multicat(C), max_arity=bound, objects=window)
        assert report.passed, report.summary()

    def test_sigma_action_direction(self):
        # on a noncommutative object monoid only one direction typechecks
        E = endo_multicat(S3)
        mu = EndoOp("cab", ("bac", "acb"), S3.hom(S3.sum_obj("bac", "acb"), "cab")[0])
        swap = Permutation((2, 1))
        acted = E.act(mu, swap)
        assert acted.profile == ("acb", "bac")
        assert S3.src(acted.mor) == S3.sum_obj("acb", "bac")

    def test_sigma_action_opposite_direction_fails(self):
        # the anti-test: precomposing with the realization of sigma at the
        # unpermuted profile is not even composable here
        mu = EndoOp("cab", ("bac", "acb"), S3.hom(S3.sum_obj("bac", "acb"), "cab")[0])
        swap = Permutation((2, 1))
        wrong = perm_to_morphism(S3, swap, mu.profile)
        with pytest.raises(ComposabilityError):
            S3.compose(mu.mor, wrong)

    def test_sigma_action_satisfies_right_action_square(self):
        E = endo_multicat(SUPER)
        mu = EndoOp("1", ("1", "1", "1"), "1:-")
        for s in all_perms(3):
            for t in all_perms(3):
                from permcat.perms import perm_compose
                assert E.act(E.act(mu, s), t) == E.act(mu, perm_compose(s, t))

    def test_composition_is_pasting(self):
        E = endo_multicat(SIGN)
        outer = EndoOp("0", ("1", "1"), "0:-")
        inner1 = EndoOp("1", ("1",), "1:+")
        inner2 = EndoOp("1", ("1", "0"), "1:-")
        result = E.compose(outer, (inner1, inner2))
        assert result.profile == ("1", "1", "0")
        assert result.mor == "0:+"


class TestEndoOnFunctor:
    def test_strict_functor_applies_entrywise(self):
        P = identity_smf(SIGN)
        EP = endo_on_functor(P)
        op = EndoOp("0", ("1", "1"), "0:-")
        assert EP.on_op(op) == op

    def test_rejects_non_strictly_unital(self):
        from permcat.permcats import SymMonFunctor
        P = SymMonFunctor(SIGN, SIGN, lambda x: x, lambda f: f, None, "0:-")
        with pytest.raises(ValueError):
            endo_on_functor(P)

    def test_functor_laws_via_validator(self):
        EP = endo_on_functor(identity_smf(SIGN))
        report = validate_multifunctor(EP, max_arity=2)
        assert report.passed, report.summary()

    def test_composite_law(self):
        P = identity_smf(SIGN)
        EQP = endo_on_functor(smf_compose(P, P))
        EP = endo_on_functor(P)
        op = EndoOp("0", ("1", "1"), "0:-")
        assert EQP.on_op(op) == EP.on_op(EP.on_op(op))

    def test_nontrivial_constraint_collapse(self):
        # a strictly unital functor with a nonidentity constraint inserts
        # its iterated collapse before the image morphism
        from permcat.permcats import SymMonFunctor

        def m2(x, y):
            obj = SIGN.sum_obj(x, y)
            return f"{obj}:{NEG if (x, y) == ('1', '1') else POS}"

        P = SymMonFunctor(SIGN, SIGN, lambda x: x, lambda f: f, m2, None,
                          strictly_unital=True)
        EP = endo_on_functor(P)
        op = EndoOp("0", ("1", "1"), "0:+")
        assert EP.on_op(op).mor == "0:-"

    def test_endo_on_nat(self):
        P = identity_smf(SIGN)
        theta = MonoidalNat(P, P, lambda x: f"{x}:{POS}")
        Etheta = endo_on_nat(theta)
        report = validate_multinat(Etheta, max_arity=2)
        assert report.passed, report.summary()


MULT = sign_multiplication()


class TestEndoAction:
    def test_unary_tuple_matches_endo_on_functor(self):
        one_linear = nlinear_from_smf(identity_smf(SIGN))
        E = endo_on_functor(identity_smf(SIGN))
        for profile in [("1",), ("1", "0"), ()]:
            for mor in SIGN.hom(sum_objs(SIGN, profile), "1"):
                mu = EndoOp("1", profile, mor)
                assert endo_action(one_linear, (mu,)) == E.on_op(mu)

    def test_all_unary_inputs(self):
        mus = (EndoOp("1", ("1",), "1:-"), EndoOp("1", ("1",), "1:+"))
        result = endo_action(MULT, mus)
        assert result.profile == (MULT.on_obj(("1", "1")),)
        assert result.mor == MULT.on_mor(("1:-", "1:+"))

    def test_grid_profile_order(self):
        mus = (EndoOp("1", ("1", "0"), "1:+"), EndoOp("1", ("1", "1"), "0:+"))
        result = endo_action(MULT, mus)
        expected = tuple(MULT.on_obj((("1", "0")[j1 - 1], ("1", "1")[j2 - 1]))
                         for j2 in (1, 2) for j1 in (1, 2))
        assert result.profile == expected

    def test_constraint_signs_enter(self):
        # two odd summands in factor 1 against an odd factor 2 pick up the
        # nonidentity first constraint exactly once
        mu1 = EndoOp("0", ("1", "1"), "0:+")
        mu2 = EndoOp("1", ("1",), "1:+")
        result = endo_action(MULT, (mu1, mu2))
        assert result.mor == "0:-"
        strict_result = endo_action(sign_multiplication(POS, POS), (mu1, mu2))
        assert strict_result.mor == "0:+"

    def test_empty_factor_profile(self):
        mu1 = EndoOp("0", (), "0:-")    # nullary: an endomorphism of e
        mu2 = EndoOp("1", ("1",), "1:+")
        result = endo_action(MULT, (mu1, mu2))
        assert result.profile == ()
        assert result.mor == MULT.on_mor(("0:-", "1:+"))

    def test_order_independence_n2(self):
        # collapse factor 2 first via the canonical grid shuffle: the
        # composite operation agrees with the ascending-order one
        pairs = [
            (EndoOp("0", ("1", "1"), "0:+"), EndoOp("1", ("1", "1"), "0:+")),
            (EndoOp("1", ("1", "0"), "1:-"), EndoOp("0", ("1", "1"), "0:-")),
            (EndoOp("1", ("1",), "1:+"), EndoOp("1", ("1", "1"), "0:+")),
        ]
        for mu1, mu2 in pairs:
            assert endo_action(MULT, (mu1, mu2)) == _endo_action_factor2_first(
                MULT, mu1, mu2)

    def test_multifunctoriality_sampled(self):
        # composition preservation of the induced assignment on a sampled
        # composable grid: the two sides differ exactly by the canonical
        # fiber-alignment permutation of the composite
        from permcat.perms import identity_map, product_map, sigma_kgf, terminal_map
        E = endo_multicat(SIGN)
        mu1 = EndoOp("0", ("1", "1"), "0:+")
        mu2 = EndoOp("1", ("1",), "1:-")
        nu1a = EndoOp("1", ("1",), "1:+")
        nu1b = EndoOp("1", ("1",), "1:-")
        nu2 = EndoOp("1", ("1", "0"), "1:-")
        lhs = endo_action(MULT, (E.compose(mu1, (nu1a, nu1b)), E.compose(mu2, (nu2,))))
        ED = endo_multicat(MULT.target)
        outer = endo_action(MULT, (mu1, mu2))
        inners = (endo_action(MULT, (nu1a, nu2)), endo_action(MULT, (nu1b, nu2)))
        pasted = ED.compose(outer, inners)
        f12 = product_map((identity_map(2), terminal_map(2)))
        g12 = terminal_map(2)
        rhs = ED.act(pasted, sigma_kgf(f12, g12, 1))
        assert lhs == rhs


def _endo_action_factor2_first(P, mu1, mu2):
    """Reference computation collapsing the second factor first."""
    D = P.target
    p1, p2 = mu1.profile, mu2.profile
    r1, r2 = len(p1), len(p2)
    grid12 = tuple(P.on_obj((p1[j1 - 1], p2[j2 - 1]))
                   for j2 in range(1, r2 + 1) for j1 in range(1, r1 + 1))
    if r1 == 0 or r2 == 0:
        return endo_action(P, (mu1, mu2))
    transpose = grid_transpose(r1, r2).inverse()
    shuffle = perm_to_morphism(D, transpose, grid12)
    total1 = sum_objs(P.sources[0], p1)
    total2 = sum_objs(P.sources[1], p2)
    # axis-2 runs are consecutive in the transposed order
    stage2 = []
    collapsed = []
    for j1 in range(1, r1 + 1):
        run = [(p1[j1 - 1], p2[j2 - 1]) for j2 in range(1, r2 + 1)]
        chain, entry = collapse_run(P, 2, run, total2)
        stage2.append(chain)
        collapsed.append(entry)
    stage1, final_entry = collapse_run(P, 1, collapsed, total1)
    assert final_entry == (total1, total2)
    mor = D.compose(
        P.on_mor((mu1.mor, mu2.mor)),
        D.compose(stage1, D.compose(sum_mors(D, stage2), shuffle)))
    return EndoOp(P.on_obj((mu1.target, mu2.target)), grid12, mor)


class TestKernelWork:
    """The work of ``permcat endo documents/sign.json --max-arity 3``, pinned:
    a change that checks other instances, or asks the view for more
    composites or actions, shows up here."""

    INSTANCES = {
        "unit-typing": 2, "symmetry-identity": 30, "symmetry-typing": 118,
        "symmetry-action": 614, "left-unity": 30, "right-unity": 28,
        "composition-typing": 2228, "top-equivariance": 11500,
        "bottom-equivariance": 6116, "associativity": 200420,
        "unit-preservation": 1, "operation-typing": 4,
        "symmetry-preservation": 10, "composition-preservation": 34}

    def test_endo_sign_arity_3(self, monkeypatch, tmp_path, capsys):
        calls = Counter()
        for name in ("compose", "act"):
            def counting(self, *args, name=name, kernel=getattr(MulticatView, name)):
                calls[name] += 1
                return kernel(self, *args)

            monkeypatch.setattr(MulticatView, name, counting)
        out = tmp_path / "report.json"
        argv = ["endo", str(DOCS / "sign.json"), "--max-arity", "3", "--report", str(out)]
        assert run_command(argv) == 0
        checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
        assert {c["axiom"]: c["instances"] for c in checks} == self.INSTANCES
        assert calls == {"compose": 2264, "act": 128}
