"""The free permutative category: composition bookkeeping and hom counts."""
import itertools
import json
import pathlib
from collections import Counter

import pytest

from permcat import free
from permcat.cli import run_command
from permcat.errors import BoundExceededError, ComposabilityError
from permcat.fixtures import sign_operad, two_object_multicat
from permcat.free import (
    FreeMorphism,
    FreePermCat,
    check_boundary,
    free_compose,
    free_hom,
    free_identity,
    free_on_multifunctor,
    free_on_multinat,
    free_sum,
)
from permcat.multicat import (
    FinMulticat,
    MultiNat,
    Multicat,
    Multifunctor,
    identity_multifunctor,
    identity_multinat,
    initial_operad,
    terminal_multicat,
    validate_multinat,
)
from permcat.permcats import validate_monoidal_nat, validate_permcat, validate_smf
from permcat.perms import (
    FinMap,
    Permutation,
    block_perm,
    finmap_compose,
    finmap_direct_sum,
    identity_map,
    profiles,
    terminal_map,
)

MTERM3 = terminal_multicat(3)
MTERM2 = terminal_multicat(2)
MTERM4 = terminal_multicat(4)
INITIAL = initial_operad()
SIGNS2 = sign_operad(2)
TWO = two_object_multicat()
DOCS = pathlib.Path(__file__).resolve().parent.parent / "documents"


def star(n):
    return ("*",) * n


class TestComposition:
    def test_identities_neutral(self):
        F = FreePermCat(MTERM3)
        for mor in F.hom(star(2), star(3)):
            assert F.compose(F.identity(star(3)), mor) == mor
            assert F.compose(mor, F.identity(star(2))) == mor

    def test_eta_style_composition_has_identity_correction(self):
        # (i_s,(psi)) after (sum_j i_{r_j}, <phi>) = (i_r, gamma(psi; <phi>))
        M = SIGNS2
        phi = FreeMorphism(star(2), star(2),
                           finmap_direct_sum(terminal_map(1), terminal_map(1)),
                           ("+1", "-1"))
        psi = FreeMorphism(star(2), star(1), terminal_map(2), ("-2",))
        check_boundary(M, phi)
        check_boundary(M, psi)
        composite = free_compose(M, psi, phi)
        assert composite.index_map == terminal_map(2)
        assert composite.ops == (M.compose("-2", ("+1", "-1")),) == ("+2",)

    def test_nontrivial_sigma_correction(self):
        # a swap index map forces a genuine input reordering: the
        # composite operation is the transposed binary operation
        M = TWO
        swap = FinMap(2, 2, (2, 1))
        phi = FreeMorphism(("b", "a"), ("a", "b"), swap, ("ua", "ub"))
        check_boundary(M, phi)
        psi = FreeMorphism(("a", "b"), ("a",), terminal_map(2), ("m",))
        check_boundary(M, psi)
        composite = free_compose(M, psi, phi)
        check_boundary(M, composite)
        assert composite.index_map == terminal_map(2)
        assert composite.ops == ("mT",)

    def test_associativity_exhaustive_terminal(self):
        # every composable triple of sequence length <= 2 over the
        # arity-2 terminal fixture associates on the nose
        F = FreePermCat(MTERM2, partial_homs=True)
        objs = list(profiles(("*",), 2))
        homs = {(a, b): F.hom(a, b) for a in objs for b in objs}
        checked = 0
        for a, b in itertools.product(objs, repeat=2):
            for f in homs[a, b]:
                for c in objs:
                    for g in homs[b, c]:
                        gf = F.compose(g, f)
                        for d in objs:
                            for h in homs[c, d]:
                                assert F.compose(h, gf) == F.compose(F.compose(h, g), f)
                                checked += 1
        assert checked > 200

    def test_associativity_sampled_sign_ops(self):
        # operation-level signs ride along correctly
        F = FreePermCat(SIGNS2, partial_homs=True)
        objs = [star(1), star(2)]
        mors = [m for a in objs for b in objs for m in F.hom(a, b)]
        for f in mors:
            for g in mors:
                if g.source != f.target:
                    continue
                gf = F.compose(g, f)
                for h in mors:
                    if h.source != g.target:
                        continue
                    assert F.compose(h, gf) == F.compose(F.compose(h, g), f)

    def test_index_map_of_composite(self):
        F = FreePermCat(MTERM3)
        for f in F.hom(star(2), star(2)):
            for g in F.hom(star(2), star(1)):
                assert F.compose(g, f).index_map == finmap_compose(
                    g.index_map, f.index_map)

    def test_bound_exceeded_is_an_error(self):
        M = MTERM2
        f = free_identity(M, star(2))
        g = FreeMorphism(star(2), star(1), terminal_map(2), ("i2",))
        h = FreeMorphism(star(1), star(1), identity_map(1), ("i1",))
        fg = free_compose(M, g, f)
        wide = free_sum(M, fg, fg)    # (4) -> (2)
        collapse = FreeMorphism(star(2), star(1), terminal_map(2), ("i2",))
        with pytest.raises(BoundExceededError):
            free_compose(M, collapse, wide)

    def test_boundary_mismatch(self):
        M = MTERM3
        with pytest.raises(ComposabilityError):
            free_compose(M, free_identity(M, star(2)), free_identity(M, star(3)))


class TestMonoidalStructure:
    def test_unit_is_empty_profile(self):
        F = FreePermCat(MTERM3)
        assert F.sum_obj((), star(2)) == star(2)
        assert F.sum_obj(star(2), ()) == star(2)

    def test_symmetry_with_empty_block_is_identity(self):
        F = FreePermCat(MTERM3)
        assert F.xi(star(2), ()) == F.identity(star(2))
        assert F.xi((), star(2)) == F.identity(star(2))

    def test_symmetry_index_map_is_inverse_block_transposition(self):
        F = FreePermCat(MTERM3)
        for r, s in [(1, 2), (2, 1), (2, 2) if MTERM3.max_arity >= 2 else (1, 1)]:
            xi = F.xi(star(r), star(s))
            expected = block_perm(Permutation((2, 1)), (r, s)).inverse()
            assert xi.index_map.images == expected.images

    def test_sum_of_morphisms(self):
        F = FreePermCat(TWO)
        f = free_identity(TWO, ("a",))
        g = FreeMorphism(("a", "b"), ("a",), terminal_map(2), ("m",))
        fg = F.sum_mor(f, g)
        assert fg.source == ("a", "a", "b")
        assert fg.target == ("a", "a")
        assert fg.index_map.images == (1, 2, 2)

    @pytest.mark.parametrize("M", [MTERM3, INITIAL, TWO], ids=lambda m: m.name)
    def test_free_category_validates(self, M):
        F = FreePermCat(M, partial_homs=True)
        window = F.enumerate_objects(3)
        small = F.enumerate_objects(2)
        report = validate_permcat(F, objects=window, interchange_objects=small)
        assert report.passed, report.summary()


class TestHomEnumeration:
    def test_terminal_counts(self):
        assert len(free_hom(MTERM4, star(2), star(3))) == 9

    def test_initial_counts(self):
        assert len(free_hom(INITIAL, star(3), star(3))) == 6
        assert len(free_hom(INITIAL, star(2), star(3))) == 0

    def test_empty_hom_is_empty_identity(self):
        F = FreePermCat(MTERM3)
        assert F.hom((), ()) == (free_identity(MTERM3, ()),)

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceededError):
            free_hom(MTERM2, star(3), star(1))

    def test_partial_mode_skips_unknowable_maps(self):
        assert free_hom(MTERM2, star(3), star(1), partial=True) == ()
        # fibers of size <= 2 survive
        assert len(free_hom(MTERM2, star(3), star(2), partial=True)) == 6

    def test_mixed_object_fibers(self):
        homs = free_hom(TWO, ("a", "b"), ("a",))
        assert [m.ops for m in homs] == [("m",)]
        assert free_hom(TWO, ("b", "a"), ("a",))[0].ops == ("mT",)


class TestFreeFunctor:
    def test_identity_multifunctor_gives_identity(self):
        FH = free_on_multifunctor(identity_multifunctor(TWO))
        mor = free_hom(TWO, ("a", "b"), ("a",))[0]
        assert FH.on_mor(mor) == mor
        assert FH.on_obj(("a", "b")) == ("a", "b")

    def test_collapse_to_terminal(self):
        H = Multifunctor(TWO, MTERM2, lambda c: "*",
                         lambda op: f"i{len(TWO.profile_of(op))}")
        FH = free_on_multifunctor(H)
        mor = free_hom(TWO, ("a", "b"), ("a",))[0]
        image = FH.on_mor(mor)
        assert image.index_map == mor.index_map
        assert image.ops == ("i2",)

    def test_functor_law_on_composites(self):
        H = Multifunctor(TWO, MTERM2, lambda c: "*",
                         lambda op: f"i{len(TWO.profile_of(op))}")
        FH = free_on_multifunctor(H)
        F = FreePermCat(TWO)
        f = F.xi(("a",), ("b",))
        g = free_hom(TWO, ("b", "a"), ("a",))[0]
        assert FH.on_mor(F.compose(g, f)) == free_compose(
            MTERM2, FH.on_mor(g), FH.on_mor(f))

    def test_validates_as_strict_smf(self):
        FH = free_on_multifunctor(identity_multifunctor(TWO))
        window = FreePermCat(TWO).enumerate_objects(2)
        report = validate_smf(FH, objects=window)
        assert report.passed, report.summary()

    def test_two_functor_law(self):
        H = Multifunctor(TWO, MTERM2, lambda c: "*",
                         lambda op: f"i{len(TWO.profile_of(op))}")
        Q = identity_multifunctor(MTERM2)
        from permcat.multicat import compose_multifunctors
        composite = free_on_multifunctor(compose_multifunctors(Q, H))
        step = free_on_multifunctor(H)
        for mor in free_hom(TWO, ("a", "b"), ("a", "a")):
            assert composite.on_mor(mor) == free_on_multifunctor(Q).on_mor(step.on_mor(mor))


def twisted_sign_multifunctor():
    """The endomorphism of the sign operad negating arities of even
    parity shift: op sign times (-1)^(arity - 1)."""
    def on_op(op):
        sign, arity = op[0], int(op[1:])
        flip = "-" if (arity - 1) % 2 == 1 and sign == "+" else \
               "+" if (arity - 1) % 2 == 1 and sign == "-" else sign
        return f"{flip}{arity}"
    return Multifunctor(SIGNS2, SIGNS2, lambda c: c, on_op)


class TestFreeMultinat:
    def test_identity_multinat(self):
        kappa = identity_multinat(identity_multifunctor(SIGNS2))
        Fk = free_on_multinat(kappa)
        assert Fk.at(star(2)) == free_identity(SIGNS2, star(2))
        assert Fk.at(()) == free_identity(SIGNS2, ())

    def test_naturality_and_monoidality(self):
        from permcat.multicat import validate_multifunctor
        H = twisted_sign_multifunctor()
        assert validate_multifunctor(H, max_arity=2).passed
        kappa = MultiNat(identity_multifunctor(SIGNS2), H, lambda c: "-1")
        assert validate_multinat(kappa, max_arity=2).passed
        Fk = free_on_multinat(kappa)
        window = FreePermCat(SIGNS2).enumerate_objects(2)
        report = validate_monoidal_nat(Fk, objects=window)
        assert report.passed, report.summary()

    def test_naturality_square_two_step(self):
        # the square against a sample morphism: both legs computed directly
        kappa = MultiNat(identity_multifunctor(SIGNS2), twisted_sign_multifunctor(),
                         lambda c: "-1")
        Fk = free_on_multinat(kappa)
        mor = FreeMorphism(star(2), star(1), terminal_map(2), ("+2",))
        F = FreePermCat(SIGNS2)
        lhs = F.compose(Fk.at(star(1)), mor)
        FH = free_on_multifunctor(twisted_sign_multifunctor())
        rhs = F.compose(FH.on_mor(mor), Fk.at(star(2)))
        assert lhs == rhs == FreeMorphism(star(2), star(1), terminal_map(2), ("-2",))

    def test_vertical_composition_pointwise(self):
        # the free image of a vertical composite is the pointwise
        # composite of the free images
        from permcat.multicat import multinat_vcomp
        H = twisted_sign_multifunctor()
        kappa = MultiNat(identity_multifunctor(SIGNS2), H, lambda c: "-1")
        beta = MultiNat(H, identity_multifunctor(SIGNS2), lambda c: "-1")
        composite = multinat_vcomp(beta, kappa)
        F_comp = free_on_multinat(composite)
        Fb, Fk = free_on_multinat(beta), free_on_multinat(kappa)
        F = FreePermCat(SIGNS2)
        for x in [star(0), star(1), star(2)]:
            assert F_comp.at(x) == F.compose(Fb.at(x), Fk.at(x))


class TestKernelWork:
    """The work of ``permcat free documents/mterm4.json --max-len 2``, pinned:
    a change that checks other instances, or composes more often in the
    free category or its base, shows up here."""

    INSTANCES = {
        "identity-typing": 3, "category-unity": 22, "category-associativity": 211,
        "sum-unity": 6, "sum-associativity": 1358, "sum-functoriality": 2218,
        "sum-unity-morphisms": 22, "sum-typing": 121, "symmetry-typing": 9,
        "symmetry-involution": 9, "unit-symmetry": 6, "symmetry-naturality": 121,
        "hexagon": 27}

    def test_free_mterm4_len_2(self, monkeypatch, tmp_path):
        calls = Counter()

        def count(owner, name, key):
            kernel = getattr(owner, name)

            def counting(*args):
                calls[key] += 1
                return kernel(*args)

            monkeypatch.setattr(owner, name, counting)

        count(free, "free_compose", "free_compose")
        count(FinMulticat, "compose", "compose")
        count(Multicat, "check_composite", "check_composite")
        out = tmp_path / "report.json"
        argv = ["free", str(DOCS / "mterm4.json"), "--max-len", "2", "--report", str(out)]
        assert run_command(argv) == 0
        checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
        assert {c["axiom"]: c["instances"] for c in checks} == self.INSTANCES
        # the base boundary is checked once per distinct gamma key
        assert calls == {"free_compose": 2344, "compose": 8211, "check_composite": 10}
