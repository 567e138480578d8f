"""The grid fragment of the tensor product and the comparison functor S."""
import itertools
from collections import Counter
from dataclasses import replace

import pytest

from permcat import endo, tensor, transforms
from permcat.errors import (
    ComposabilityError,
    MalformedStructureError,
    UnsupportedFragmentError,
)
from permcat.fixtures import bool_or_permcat, sign_operad, swap_operad, two_object_multicat
from permcat.free import FreeMorphism, FreePermCat, free_identity, free_on_multifunctor
from permcat.multicat import (
    FinMulticat,
    MultiNat,
    Multifunctor,
    identity_multifunctor,
    terminal_multicat,
    validate_multicat,
    validate_multifunctor,
)
from permcat.permcats import (
    identity_nlinear,
    validate_nlinear,
    validate_nlinear_nat,
    window_images,
    window_mors,
)
from permcat.perms import (
    FinMap,
    Permutation,
    all_perms,
    grid_transpose,
    identity_perm,
    perm_act,
    perm_compose,
    perm_grid_product,
    profiles,
    terminal_map,
)
from permcat.shipped import SHIPPED
from permcat.reports import CheckReport
from permcat.tensor import (
    SPieces,
    TensorGridView,
    braid_multifunctor,
    check_s_suite,
    f_multi,
    f_multi_nat,
    grid_object,
    make_decomp,
    s_constraint_map,
    s_functor,
    s_object,
    tensor_grid,
    tensor_of_multifunctors,
    tensor_of_multinats,
    tensor_op,
    tensor_op_transposed,
)
from permcat.transforms import check_adjunction_suite

SIGNS2 = sign_operad(2)
SWAP = swap_operad()
TWO = two_object_multicat()
MTERM2 = terminal_multicat(2)


def star(n):
    return ("*",) * n


class TestGridObjects:
    def test_flat_length(self):
        profiles_pair = (("a", "b"), ("x", "y", "z"))
        assert len(grid_object(profiles_pair)) == 6

    def test_entry_rank(self):
        flat = grid_object((("a1", "a2"), ("b1", "b2", "b3")))
        assert flat[1] == ("a2", "b1")     # index (2, 1) sits at rank 2

    def test_single_factor_is_identity_reindexing(self):
        assert s_object((MTERM2,), (star(2),)) == star(2)

    def test_empty_tensor(self):
        assert s_object((), ()) == ()


class TestDecompOps:
    def test_unit_tensor(self):
        view = tensor_grid((SIGNS2, TWO))
        unit = view.unit(("*", "a"))
        assert unit == tensor_op((SIGNS2, TWO), ("+1", "ua"))
        assert unit.components == ("+1", "ua")
        assert unit.twist == identity_perm(1)

    def test_arity_is_product(self):
        op = tensor_op((SIGNS2, TWO), ("+2", "ua"))
        view = tensor_grid((SIGNS2, TWO))
        assert view.arity_of(op) == 2

    def test_interchange_twist(self):
        # phi (x) psi = (phi (x)^T psi) . xi
        view = tensor_grid((SIGNS2, SIGNS2))
        phi, psi = "+2", "-2"
        transposed = tensor_op_transposed((SIGNS2, SIGNS2), phi, psi)
        assert view.act(transposed, grid_transpose(2, 2)) == tensor_op(
            (SIGNS2, SIGNS2), (phi, psi))

    def test_profile_of_twisted_op(self):
        view = tensor_grid((TWO, SIGNS2))
        op = tensor_op((TWO, SIGNS2), ("m", "+1"))
        flat = view.profile_of(op)
        assert flat == (("a", "*"), ("b", "*"))
        swapped = view.act(op, Permutation((2, 1)))
        assert view.profile_of(swapped) == (("b", "*"), ("a", "*"))


class TestGridComposition:
    def test_compose_with_units(self):
        view = tensor_grid((SIGNS2, TWO))
        op = tensor_op((SIGNS2, TWO), ("-2", "ua"))
        units = tuple(view.unit(obj) for obj in view.profile_of(op))
        assert view.compose(op, units) == op
        outer_unit = view.unit(view.output_of(op))
        assert view.compose(outer_unit, (op,)) == op

    def test_one_factor_trivial_reduces_to_single_gamma(self):
        # all second-factor morphisms identities: composition is the
        # first-factor composition with the object carried along
        signs3 = sign_operad(3)
        view = tensor_grid((signs3, TWO))
        outer = tensor_op((signs3, TWO), ("+2", "ua"))
        inner1 = tensor_op((signs3, TWO), ("-1", "ua"))
        inner2 = tensor_op((signs3, TWO), ("-2", "ua"))
        result = view.compose(outer, (inner1, inner2))
        assert result == tensor_op(
            (signs3, TWO), (signs3.compose("+2", ("-1", "-2")), "ua"))

    def test_crossing_reproduces_interchange(self):
        # gamma(phi x d'; <c_i x psi>) lands in the transposed normal form
        view = tensor_grid((SIGNS2, SIGNS2))
        phi, psi = "+2", "-2"
        outer = tensor_op((SIGNS2, SIGNS2), (phi, "+1"))
        inners = tuple(tensor_op((SIGNS2, SIGNS2), ("+1", psi)) for _ in range(2))
        result = view.compose(outer, inners)
        assert result == tensor_op_transposed((SIGNS2, SIGNS2), phi, psi)

    def test_straight_composite_is_normal_form(self):
        # gamma(c' x psi; <phi x d_j>) is the normal form phi (x) psi
        view = tensor_grid((SIGNS2, SIGNS2))
        phi, psi = "+2", "-2"
        outer = tensor_op((SIGNS2, SIGNS2), ("+1", psi))
        inners = tuple(tensor_op((SIGNS2, SIGNS2), (phi, "+1")) for _ in range(2))
        assert view.compose(outer, inners) == tensor_op((SIGNS2, SIGNS2), (phi, psi))

    def test_non_grid_aligned_rejected(self):
        # slots sharing a factor index must carry the same component there
        view = tensor_grid((SIGNS2, SIGNS2))
        outer = tensor_op((SIGNS2, SIGNS2), ("+1", "+2"))
        good = tensor_op((SIGNS2, SIGNS2), ("+1", "+1"))
        bad = tensor_op((SIGNS2, SIGNS2), ("-1", "+1"))
        # a failed composite is not kept: every repeat is built and raises again
        for _ in range(3):
            with pytest.raises(UnsupportedFragmentError):
                view.compose(outer, (good, bad))
            with pytest.raises(ComposabilityError):
                view.compose(outer, (good,))
        info = view._composite.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 6, 0)
        # distinct slots in the same factor may differ: that is aligned
        outer2 = tensor_op((SIGNS2, SIGNS2), ("+2", "+1"))
        assert view.compose(outer2, (good, bad)) == tensor_op(
            (SIGNS2, SIGNS2), ("-2", "+1"))

    def test_memo_keys_by_raw_normal_form(self):
        # the gauge-equivalent pair of the canonical_key doctest: equal as
        # operations, but with different raw composites
        Ms = (SWAP, SWAP)
        slid = make_decomp(Ms, ("q", "p"), identity_perm(4))
        twisted = make_decomp(Ms, ("p", "p"), Permutation((2, 1, 4, 3)))
        assert slid == twisted
        view = tensor_grid(Ms)
        units = (view.unit(("*", "*")),) * 4
        composites = [view.compose(outer, units) for outer in (slid, twisted)]
        for outer, composite in zip((slid, twisted), composites):
            fresh = tensor_grid(Ms).compose(outer, units)
            assert (composite.components, composite.twist) == (fresh.components, fresh.twist)
        assert composites[0].components != composites[1].components
        assert view._composite.cache_info().currsize == 2

    @pytest.mark.parametrize("factors", [
        (SIGNS2, TWO), (SWAP, SIGNS2),
    ], ids=["sign-two", "swap-sign"])
    def test_grid_view_validates(self, factors):
        report = validate_multicat(tensor_grid(factors), max_arity=2)
        assert report.passed, report.summary()

    def test_grid_view_validates_at_bound_three(self):
        report = validate_multicat(tensor_grid((SIGNS2, TWO)), max_arity=3)
        assert report.passed, report.summary()


class TestSFunctor:
    def test_objects(self):
        assert s_object((MTERM2, MTERM2), (star(2), star(3))) == (("*", "*"),) * 6

    def test_preserves_identities(self):
        # every pair of lengths <= 2 over the arity-2 terminal fixture
        Ms = (MTERM2, MTERM2)
        S = s_functor(Ms)
        for xs in itertools.product(profiles(("*",), 2), repeat=2):
            image = S.on_mor(tuple(free_identity(MTERM2, x) for x in xs))
            assert image == free_identity(tensor_grid(Ms), s_object(Ms, xs))

    def test_preserves_composition_exhaustively(self):
        # lengths <= 2 over the arity-2 terminal fixture in both slots
        Ms = (MTERM2, MTERM2)
        S = s_functor(Ms)
        F1 = FreePermCat(MTERM2, partial_homs=True)
        FT = FreePermCat(tensor_grid(Ms))
        objs = list(profiles(("*",), 2))
        homs = {(a, b): F1.hom(a, b) for a in objs for b in objs}
        checked = 0
        for a, b, c in itertools.product(objs, repeat=3):
            for f1 in homs[a, b]:
                for g1 in homs[b, c]:
                    left = F1.compose(g1, f1)
                    for a2, b2, c2 in itertools.product(objs, repeat=3):
                        for f2 in homs[a2, b2]:
                            for g2 in homs[b2, c2]:
                                lhs = S.on_mor((left, F1.compose(g2, f2)))
                                rhs = FT.compose(S.on_mor((g1, g2)), S.on_mor((f1, f2)))
                                assert lhs == rhs
                                checked += 1
        assert checked > 500

    def test_constraint_b_equals_n_is_identity(self):
        rho = s_constraint_map(2, (2, 2), 1)
        assert rho.is_identity()

    def test_constraint_spec_instance(self):
        assert s_constraint_map(1, (1, 2), 1).images == (1, 3, 2, 4)

    def test_constraint_empty_block_is_identity(self):
        assert s_constraint_map(1, (0, 2), 2).is_identity()
        assert s_constraint_map(1, (2, 2), 0).is_identity()

    def test_constraint_morphism_boundary(self):
        Ms = (TWO, SIGNS2)
        c = s_functor(Ms).constraint(1, (("a",), star(2)), ("b",))
        assert c.source == (("a", "*"), ("a", "*"), ("b", "*"), ("b", "*"))
        assert c.target == (("a", "*"), ("b", "*"), ("a", "*"), ("b", "*"))

    def test_single_factor_is_identity(self):
        S = s_functor((SIGNS2,))
        mor = FreeMorphism(star(2), star(1), terminal_map(2), ("-2",))
        assert S.on_mor((mor,)) == mor
        assert S.on_obj((star(2),)) == star(2)
        window = S.sources[0].enumerate_objects(2)
        assert validate_nlinear(S, objects=[window]).metadata["classification"] == "strict"


def collapse_to_terminal(M, target=MTERM2):
    return Multifunctor(M, target, lambda c: "*",
                        lambda op: f"i{len(M.profile_of(op))}")


class TestSNaturality:
    @pytest.mark.parametrize("H1,H2", [
        (identity_multifunctor(TWO), identity_multifunctor(SIGNS2)),
        (collapse_to_terminal(TWO), collapse_to_terminal(SIGNS2)),
    ], ids=["identities", "collapses"])
    def test_square_on_objects_and_morphisms(self, H1, H2):
        Ms = (H1.source, H2.source)
        Ns = (H1.target, H2.target)
        tensor_H = tensor_of_multifunctors((H1, H2))
        FH1, FH2 = free_on_multifunctor(H1), free_on_multifunctor(H2)
        F_tensor = free_on_multifunctor(tensor_H)
        S_M, S_N = s_functor(Ms), s_functor(Ns)
        F1, F2 = FreePermCat(Ms[0], partial_homs=True), FreePermCat(Ms[1], partial_homs=True)
        objs1 = F1.enumerate_objects(2)
        objs2 = F2.enumerate_objects(2)
        for x1, x2 in itertools.product(objs1[:6], objs2[:6]):
            lhs = s_object(Ns, (FH1.on_obj(x1), FH2.on_obj(x2)))
            rhs = tuple(tensor_H.on_obj(c) for c in s_object(Ms, (x1, x2)))
            assert lhs == rhs
        mors1 = [m for a in objs1 for b in objs1 for m in F1.hom(a, b)][:12]
        mors2 = [m for a in objs2 for b in objs2 for m in F2.hom(a, b)][:12]
        for m1, m2 in itertools.product(mors1, mors2):
            lhs = S_N.on_mor((FH1.on_mor(m1), FH2.on_mor(m2)))
            rhs = F_tensor.on_mor(S_M.on_mor((m1, m2)))
            assert lhs == rhs

    def test_multinat_version(self):
        # 1_S * (prod of thetas) = F(tensor of thetas) pointwise
        P = identity_multifunctor(SIGNS2)
        theta = MultiNat(P, P, lambda c: "+1")
        pair = tensor_of_multinats((theta, theta))
        Ms = (SIGNS2, SIGNS2)
        S = s_functor(Ms)
        for x1, x2 in itertools.product([star(0), star(1), star(2)], repeat=2):
            cells = s_object(Ms, (x1, x2))
            whisker = S.on_mor((FreeMorphism(x1, x1,
                                             FinMap(len(x1), len(x1),
                                                    tuple(range(1, len(x1) + 1))),
                                             tuple(theta.at("*") for _ in x1)),
                                FreeMorphism(x2, x2,
                                             FinMap(len(x2), len(x2),
                                                    tuple(range(1, len(x2) + 1))),
                                             tuple(theta.at("*") for _ in x2))))
            direct = FreeMorphism(cells, cells,
                                  FinMap(len(cells), len(cells),
                                         tuple(range(1, len(cells) + 1))),
                                  tuple(pair.at(c) for c in cells))
            assert whisker == direct


class TestTensorMultifunctors:
    def test_tensor_of_identities_validates(self):
        H = tensor_of_multifunctors((identity_multifunctor(TWO),
                                     identity_multifunctor(SIGNS2)))
        report = validate_multifunctor(H, max_arity=2)
        assert report.passed, report.summary()

    def test_braid_validates(self):
        B = braid_multifunctor(TWO, SIGNS2)
        report = validate_multifunctor(B, max_arity=2)
        assert report.passed, report.summary()

    def test_braid_on_operations(self):
        B = braid_multifunctor(TWO, SIGNS2)
        op = tensor_op((SIGNS2, TWO), ("+2", "m"))
        image = B.on_op(op)
        assert image.components == ("m", "+2")
        assert image.twist == grid_transpose(2, 2).inverse()


class TestFMulti:
    def test_unit_law_n1(self):
        P = f_multi(identity_multifunctor(SIGNS2), (SIGNS2,))
        mor = FreeMorphism(star(2), star(1), terminal_map(2), ("-2",))
        assert P.on_mor((mor,)) == mor
        assert P.on_obj((star(2),)) == star(2)

    def test_validates_on_fixture(self):
        mterm4 = terminal_multicat(4)
        H = collapse_to_terminal(tensor_grid((MTERM2, TWO)), mterm4)
        # H must itself be a multifunctor on the grid fragment
        assert validate_multifunctor(H, max_arity=2).passed
        P = f_multi(H, (MTERM2, TWO))
        windows = [P.sources[0].enumerate_objects(2), P.sources[1].enumerate_objects(2)]
        report = validate_nlinear(P, objects=windows)
        assert report.passed, report.summary()
        assert report.metadata["classification"] == "strong"

    def test_f_multi_nat_validates(self):
        H = collapse_to_terminal(tensor_grid((SIGNS2, SIGNS2)), MTERM2)
        theta = MultiNat(H, H, lambda c: "i1")
        nat = f_multi_nat(theta, (SIGNS2, SIGNS2))
        windows = [nat.source.sources[0].enumerate_objects(1),
                   nat.source.sources[1].enumerate_objects(1)]
        report = validate_nlinear_nat(nat, objects=windows)
        assert report.passed, report.summary()


def collapse_grid(M1, M2):
    view = tensor_grid((M1, M2))
    return Multifunctor(view, MTERM2, lambda c: "*",
                        lambda op: f"i{view.arity_of(op)}")


class TestSigmaSquare:
    """The symmetric-action rectangle: S after the product shuffle vs the
    free image of the braiding after S.

    On instances whose grid transpose is trivial (any factor profile of
    length <= 1) the two legs are equal on the nose.  On larger instances
    they differ by the canonical transpose 2-cell, which is verified as an
    exact equation; the on-the-nose claim fails there (checked both ways).
    """

    def legs(self, m1, m2):
        Ms12 = (SIGNS2, TWO)
        Ms21 = (TWO, SIGNS2)
        braid = braid_multifunctor(SIGNS2, TWO)
        path1 = s_functor(Ms12).on_mor((m1, m2))
        path2 = free_on_multifunctor(braid).on_mor(s_functor(Ms21).on_mor((m2, m1)))
        return path1, path2

    def transpose_cell(self, x1, x2):
        # the comparison morphism from the braided 21-grid to the 12-grid
        Ms12 = (SIGNS2, TWO)
        r1, r2 = len(x1), len(x2)
        W = grid_transpose(r1, r2)
        flat12 = s_object(Ms12, (x1, x2))
        source = perm_act(W.inverse(), flat12)
        view = tensor_grid(Ms12)
        return FreeMorphism(source, flat12,
                            FinMap(r1 * r2, r1 * r2, W.inverse().images),
                            tuple(view.unit(c) for c in flat12))

    def test_commutes_on_transpose_trivial_instances(self):
        m1 = FreeMorphism(star(2), star(1), terminal_map(2), ("-2",))
        m2 = free_identity(TWO, ("a",))
        path1, path2 = self.legs(m1, m2)
        assert path1 == path2

    def test_fails_on_the_nose_beyond_singletons(self):
        m1 = free_identity(SIGNS2, star(2))
        m2 = free_identity(TWO, ("a", "b"))
        path1, path2 = self.legs(m1, m2)
        assert path1 != path2    # the strictness gap: profiles reorder

    def test_commutes_up_to_transpose_cell(self):
        F12 = FreePermCat(tensor_grid((SIGNS2, TWO)))
        cases = [
            (free_identity(SIGNS2, star(2)), free_identity(TWO, ("a", "b"))),
            (FreeMorphism(star(2), star(2), FinMap(2, 2, (2, 1)), ("+1", "-1")),
             free_identity(TWO, ("b", "a"))),
            (FreeMorphism(star(2), star(1), terminal_map(2), ("-2",)),
             free_identity(TWO, ("a", "b"))),
        ]
        for m1, m2 in cases:
            path1, path2 = self.legs(m1, m2)
            cell_src = self.transpose_cell(m1.source, m2.source)
            cell_tgt = self.transpose_cell(m1.target, m2.target)
            assert F12.compose(path1, cell_src) == F12.compose(cell_tgt, path2)


def brute_force_key(Ms, components, twist):
    """The canonical key by searching every gauge tuple in Π nᵢ!: the
    reference the factor-by-factor search in ``canonical_key`` must equal
    (non-nullary components only)."""
    best = None
    for sigmas in itertools.product(*(tuple(all_perms(M.arity_of(c)))
                                      for M, c in zip(Ms, components))):
        comps = tuple(M.act(c, s) for M, c, s in zip(Ms, components, sigmas))
        tw = perm_compose(perm_grid_product(sigmas).inverse(), twist)
        candidate = (tuple(repr(c) for c in comps), tw.images, comps)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    return (best[2], best[1])


ORACLE_FACTORS = ("two-object.json", "mterm3.json", "swap-operad.json",
                  "sign-operad2.json")


def oracle_twists(arity):
    """Every twist up to arity 6; at arity 9 the first 200 in
    ``all_perms`` order and their inverses."""
    if arity <= 6:
        return tuple(all_perms(arity))
    first = tuple(itertools.islice(all_perms(arity), 200))
    return first + tuple(p.inverse() for p in first)


class TestCanonicalKey:
    @pytest.mark.parametrize("first", ORACLE_FACTORS)
    @pytest.mark.parametrize("second", ORACLE_FACTORS)
    def test_equals_brute_force_search(self, first, second):
        Ms = (SHIPPED[first][1](), SHIPPED[second][1]())
        checked = 0
        for components in itertools.product(*(M.operations for M in Ms)):
            arity = Ms[0].arity_of(components[0]) * Ms[1].arity_of(components[1])
            if arity == 0:
                continue
            for twist in oracle_twists(arity):
                op = make_decomp(Ms, components, twist)
                assert op.key == brute_force_key(Ms, components, twist), (
                    components, twist)
                checked += 1
        assert checked > 0

    def test_key_is_computed_on_first_comparison(self, monkeypatch):
        def refuse(self, op, sigma):
            raise MalformedStructureError("act called")

        monkeypatch.setattr(FinMulticat, "act", refuse)
        op = tensor_op((SWAP, TWO), ("p", "m"))
        assert op.components == ("p", "m")
        with pytest.raises(MalformedStructureError):
            op == tensor_op((SWAP, TWO), ("q", "m"))


def raw_key(outer, inners) -> tuple:
    return (outer.components, outer.twist,
            tuple((inner.components, inner.twist) for inner in inners))


class TestCompositeCounts:
    def test_check_s_builds_each_composite_once_per_view(self, monkeypatch):
        asked, built = Counter(), Counter()
        compose, construct = TensorGridView.compose, TensorGridView._compose

        def counting_compose(self, outer, inners):
            asked[self, raw_key(outer, tuple(inners))] += 1
            return compose(self, outer, inners)

        def counting_construct(self, outer, inners):
            built[self, raw_key(outer, inners)] += 1
            return construct(self, outer, inners)

        monkeypatch.setattr(TensorGridView, "compose", counting_compose)
        monkeypatch.setattr(TensorGridView, "_compose", counting_construct)
        report = check_s_suite((SWAP, TWO), 1)
        assert report.passed, report.summary()
        assert {c.axiom: c.instances for c in report.checks} == {
            "preserves-identities": 6, "preserves-composition": 6,
            "functor-typing": 6, "functor-identities": 6, "functor-composition": 6,
            "unity": 24, "constraint-typing": 30, "constraint-unity": 24,
            "constraint-naturality": 30, "constraint-associativity": 78,
            "constraint-symmetry": 30, "constraint-2x2": 72, "two-naturality": 24}
        assert sum(asked.values()) == 528
        assert built == Counter(dict.fromkeys(asked, 1))
        assert len(built) == 2


def swap_without_transposition():
    """The swap operad with the action ``(p, (2, 1))`` deleted: an
    operation built on it fails when its canonical key is computed."""
    sigma = dict(SWAP.sigma)
    del sigma["p", (2, 1)]
    return replace(SWAP, sigma=sigma)


class TestSImageCounts:
    """``S`` builds each object image, tuple of units on it, tensor
    operation, index product, grid cell list, constraint shuffle and grid
    unit once per functor and raw argument."""

    INSTANCES = {
        "preserves-identities": 6, "preserves-composition": 12,
        "functor-typing": 9, "functor-identities": 6, "functor-composition": 12,
        "unity": 30, "constraint-typing": 30, "constraint-unity": 24,
        "constraint-naturality": 54, "constraint-associativity": 78,
        "constraint-symmetry": 30, "constraint-2x2": 72, "two-naturality": 30}

    def test_check_s_builds_each_piece_once_per_functor(self, monkeypatch):
        pieces, views, kernel_calls = [], [], Counter()

        def recording(cls, instances):
            init = cls.__init__

            def wrapper(self, *args):
                init(self, *args)
                instances.append(self)
            return wrapper

        def counting(name, kernel):
            def wrapper(*args):
                kernel_calls[name] += 1
                return kernel(*args)
            return wrapper

        monkeypatch.setattr(SPieces, "__init__", recording(SPieces, pieces))
        monkeypatch.setattr(TensorGridView, "__init__", recording(TensorGridView, views))
        for name in ("s_object", "s_constraint_map"):
            monkeypatch.setattr(tensor, name, counting(name, getattr(tensor, name)))
        report = check_s_suite((terminal_multicat(3), TWO), 1)
        assert report.passed, report.summary()
        assert {c.axiom: c.instances for c in report.checks} == self.INSTANCES
        infos = {kind: [cached(owner).cache_info() for owner in owners]
                 for kind, owners, cached in [
                     ("object", pieces, lambda p: p._objects),
                     ("units", pieces, lambda p: p._units),
                     ("tensor_op", pieces, lambda p: p._ops),
                     ("product", pieces, lambda p: p.product),
                     ("cells", pieces, lambda p: p.cells),
                     ("shuffle", pieces, lambda p: p.shuffle),
                     ("unit", views, lambda v: v.unit)]}
        # one S over the factors and one over the collapse targets, each
        # with its grid view, and each naturality row's tensor of
        # multifunctors with a source and a target view
        assert (len(pieces), len(views)) == (2, 6)
        # a call is a hit or a miss, and every miss builds the piece under
        # the functor (or grid view) that asked for it; the suite applies S
        # to each window tuple and validate_nlinear builds each constraint once
        assert {kind: sum(i.hits + i.misses for i in info) for kind, info in infos.items()} == {
            "object": 1151, "units": 115, "tensor_op": 52, "product": 53, "cells": 53,
            "shuffle": 115, "unit": 280}
        assert {kind: sum(i.misses for i in info) for kind, info in infos.items()} == {
            "object": 44, "units": 40, "tensor_op": 6, "product": 27, "cells": 12, "shuffle": 40,
            "unit": 2}
        assert kernel_calls == {"s_object": 44, "s_constraint_map": 40}

    def test_check_s_kernel_work(self, monkeypatch):
        # the work of check_s_suite on these factors, pinned: a change that
        # applies S or builds its constraints more often shows up here
        calls = Counter()

        def counting(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        for name in ("s_morphism", "s_constraint"):
            monkeypatch.setattr(tensor, name, counting(name, getattr(tensor, name)))
        report = check_s_suite((terminal_multicat(3), TWO), 1)
        assert {c.axiom: c.instances for c in report.checks} == self.INSTANCES
        assert calls == {"s_morphism": 53, "s_constraint": 115}

    def test_check_s_maps_each_window_tuple_once(self, monkeypatch):
        # the functoriality checks and the multilinear check read one kept
        # image of each window tuple; the suite's S is the first functor built
        mapped = []
        honest = tensor.s_morphism

        def recording(pieces, mors):
            mapped.append((pieces, mors))
            return honest(pieces, mors)

        monkeypatch.setattr(tensor, "s_morphism", recording)
        check_s_suite((terminal_multicat(3), TWO), 1)
        suite_pieces = mapped[0][0]
        by_suite = Counter(mors for pieces, mors in mapped if pieces is suite_pieces)
        sources = [FreePermCat(M) for M in (terminal_multicat(3), TWO)]
        window = list(itertools.product(*(window_mors(F, F.enumerate_objects(1))
                                          for F in sources)))
        assert [by_suite[fs] for fs in window] == [1] * 9
        # the rest are tuples outside the window, mapped by value once per use
        assert sum(by_suite.values()) == 44

    def test_validate_nlinear_builds_each_constraint_once(self):
        S = s_functor((terminal_multicat(3), TWO))
        windows = [F.enumerate_objects(1) for F in S.sources]
        constraints = Counter()

        def constraint(*args):
            constraints[args] += 1
            return S.constraints(*args)

        report = validate_nlinear(replace(S, constraints=constraint), objects=windows)
        assert report.passed, report.summary()
        assert set(constraints.values()) == {1}
        assert len(constraints) == 115

    def test_window_images_maps_a_grid_source_by_value(self):
        # equal morphisms of a grid's free category can differ in raw form,
        # so window_images keeps none of their images: every use maps again;
        # a source that compares raw has each window image mapped once
        for F, uses in [(FreePermCat(tensor_grid((MTERM2, TWO))), 2), (FreePermCat(TWO), 1)]:
            window = window_mors(F, F.enumerate_objects(1))
            images = Counter()

            def mor_map(fs):
                images[fs] += 1
                return fs[0]

            image = window_images(replace(identity_nlinear(F), mor_map=mor_map), [window])
            for f in window * 2:
                assert image((f,)) == f
            assert [images[(f,)] for f in window] == [uses] * len(window)

    def test_a_raising_tensor_op_raises_on_every_call(self, monkeypatch):
        broken = swap_without_transposition()
        S = s_functor((broken, TWO))
        mor = FreeMorphism(star(2), star(1), terminal_map(2), ("p",))
        ops = [S.on_mor((mor, free_identity(TWO, ("a",)))).ops[0] for _ in range(2)]
        assert ops[0] is ops[1]
        good = tensor_op((SWAP, TWO), ("p", "ua"))
        report = CheckReport("r")
        for op in ops:
            report.evaluate("eq", lambda: op, lambda: good, ("w",))
        assert [(c.axiom, c.instances, len(c.violations)) for c in report.checks] == [
            ("eq", 2, 2)]

        calls = Counter()
        construct = tensor.tensor_op

        def counting(Ms, components):
            calls[components] += 1
            return construct(Ms, components)

        monkeypatch.setattr(tensor, "tensor_op", counting)
        pieces = SPieces((broken, TWO))
        for _ in range(2):
            with pytest.raises(MalformedStructureError):
                pieces.tensor_op(("unknown", "ua"))
        assert calls == {("unknown", "ua"): 2}

    def test_nested_grid_components_are_keyed_raw(self):
        # the gauge-equivalent pair of the canonical_key doctest, as
        # entries of free morphisms over the grid factor
        G = tensor_grid((SWAP, SWAP))
        slid = make_decomp(G.factors, ("q", "p"), identity_perm(4))
        twisted = make_decomp(G.factors, ("p", "p"), Permutation((2, 1, 4, 3)))
        assert slid == twisted
        S = s_functor((G, TWO))
        unit_a = free_identity(TWO, ("a",))
        images = []
        for component in (slid, twisted):
            mor = FreeMorphism(G.profile_of(component), (G.output_of(component),),
                               terminal_map(4), (component,))
            images.append(S.on_mor((mor, unit_a)).ops[0])
        assert images[0] is not images[1]
        for image, component in zip(images, (slid, twisted)):
            fresh = tensor_op((G, TWO), (component, "ua"))
            nested = image.components[0]
            assert (nested.components, nested.twist) == (component.components, component.twist)
            assert (image.components[1], image.twist) == (fresh.components[1], fresh.twist)


class TestAdjunctionKernelWork:
    """The work of ``check_adjunction_suite``, pinned: nearly all of it is
    the two counit squares, one pass over 9,801 tuples of window morphisms."""

    def test_check_adjunction_kernel_work(self, monkeypatch):
        s_calls, fixture_calls, counit_calls, acting = Counter(), [], [], []
        honest_s, honest_fixture = tensor.s_morphism, transforms.sign_multiplication
        honest_epsilon, honest_action = transforms.epsilon, endo.endo_action

        def counting_s(*args):
            s_calls["s_morphism"] += 1
            return honest_s(*args)

        def counting_fixture(*args):
            P = honest_fixture(*args)
            calls = Counter()
            fixture_calls.append(calls)

            def mor_map(fs):
                calls["action" if acting else "square"] += 1
                return P.mor_map(fs)

            return replace(P, mor_map=mor_map)

        def flagged_action(P, mus):
            acting.append(P)
            try:
                return honest_action(P, mus)
            finally:
                acting.pop()

        def counting_epsilon(C):
            E = honest_epsilon(C)
            counit_calls.append(0)
            slot = len(counit_calls) - 1

            def on_mor(mor):
                counit_calls[slot] += 1
                return E.on_mor(mor)

            return replace(E, mor_map=on_mor)

        monkeypatch.setattr(tensor, "s_morphism", counting_s)
        monkeypatch.setattr(transforms, "sign_multiplication", counting_fixture)
        monkeypatch.setattr(transforms, "epsilon", counting_epsilon)
        monkeypatch.setattr(endo, "endo_action", flagged_action)
        report = check_adjunction_suite(TWO, bool_or_permcat(), 1, 1)
        assert report.passed, report.summary()
        # S maps each of the 9,801 tuples once for both squares, and 4 more
        # in the unit's square
        assert s_calls == {"s_morphism": 9805}
        # each fixture maps each of its 16 tuples of counit images once, and
        # once per operation its induced functor acts on
        assert fixture_calls == [{"square": 16, "action": 196}] * 2
        # the triangles' two counits, then the squares': one per factor,
        # shared, and one per fixture's target
        assert counit_calls == [3, 5, 99, 99, 9801, 9801]
