"""Combinatorial core: permutations, finite maps, grid ranking."""
import doctest
import importlib
import itertools
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import permcat
from permcat.errors import ComposabilityError, DegreeMismatchError
from permcat.perms import (
    FinMap,
    Permutation,
    all_perms,
    block_perm,
    block_sum,
    finmap_compose,
    finmap_direct_sum,
    grid_indices,
    grid_rank,
    grid_transpose,
    grid_unrank,
    identity_map,
    identity_perm,
    perm_act,
    perm_compose,
    perm_grid_product,
    product_map,
    profiles,
    sigma_kgf,
    terminal_map,
)


def perms(n):
    return st.sampled_from([p for p in all_perms(n)])


class TestPermAct:
    def test_identity(self):
        assert perm_act(identity_perm(3), ("a", "b", "c")) == ("a", "b", "c")

    def test_one_line_formula(self):
        assert perm_act(Permutation((3, 1, 2)), ("a", "b", "c")) == ("c", "a", "b")

    def test_right_action_exhaustive(self):
        # ((c)s)t == (c)(st) over all of Sigma_3 x Sigma_3
        profile = ("a", "b", "c")
        for s in all_perms(3):
            for t in all_perms(3):
                assert perm_act(t, perm_act(s, profile)) == perm_act(perm_compose(s, t), profile)

    def test_right_action_small_degrees(self):
        for n in range(5):
            profile = tuple(range(n))
            for s in all_perms(n):
                for t in all_perms(n):
                    assert perm_act(t, perm_act(s, profile)) == perm_act(
                        perm_compose(s, t), profile)

    def test_length_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            perm_act(identity_perm(2), ("a",))


class TestPermCompose:
    def test_involution(self):
        swap = Permutation((2, 1))
        assert perm_compose(swap, swap) == identity_perm(2)

    def test_elementwise(self):
        s, t = Permutation((2, 3, 1)), Permutation((3, 1, 2))
        assert perm_compose(s, t) == identity_perm(3)

    @given(perms(5), perms(5))
    def test_double_application_oracle(self, s, t):
        profile = tuple("vwxyz")
        assert perm_act(perm_compose(s, t), profile) == perm_act(t, perm_act(s, profile))

    def test_inverse(self):
        for p in all_perms(4):
            assert perm_compose(p, p.inverse()).is_identity()
            assert perm_compose(p.inverse(), p).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            perm_compose(identity_perm(2), identity_perm(3))


class TestBlockPerm:
    def test_identity(self):
        assert block_perm(identity_perm(3), (2, 0, 1)) == identity_perm(3)

    def test_swap_blocks(self):
        assert block_perm(Permutation((2, 1)), (1, 2)).images == (2, 3, 1)

    def test_carries_blocks(self):
        # labelled-profile oracle: right action moves whole blocks
        for n in range(1, 4):
            for lengths in itertools.product(range(3), repeat=n):
                blocks = [tuple((j, i) for i in range(k)) for j, k in enumerate(lengths)]
                flat = tuple(x for b in blocks for x in b)
                for s in all_perms(n):
                    expected = tuple(x for t in range(1, n + 1) for x in blocks[s(t) - 1])
                    assert perm_act(block_perm(s, lengths), flat) == expected

    def test_block_transposition_is_inverse_of_free_symmetry_index_map(self):
        # the index map of the free symmetry sends i -> r'+i, r+j -> j;
        # that function is the inverse of block_perm(swap, (r, r'))
        for r, rp in itertools.product(range(4), repeat=2):
            tau = tuple(range(rp + 1, rp + r + 1)) + tuple(range(1, rp + 1))
            got = block_perm(Permutation((2, 1)), (r, rp)).inverse().images
            assert got == tau

    def test_respects_composition(self):
        for n in range(1, 4):
            for lengths in itertools.product(range(3), repeat=n):
                for s in all_perms(n):
                    for t in all_perms(n):
                        lhs = perm_compose(
                            block_perm(s, lengths),
                            block_perm(t, perm_act(s, lengths)))
                        rhs = block_perm(perm_compose(s, t), lengths)
                        assert lhs == rhs


class TestBlockSum:
    def test_units(self):
        assert block_sum((identity_perm(1), identity_perm(1))) == identity_perm(2)

    def test_first_block(self):
        assert block_sum((Permutation((2, 1)), identity_perm(1))).images == (2, 1, 3)

    def test_identities(self):
        assert block_sum((identity_perm(2), identity_perm(3))) == identity_perm(5)

    def test_acts_blockwise(self):
        s, t = Permutation((2, 1)), Permutation((3, 1, 2))
        profile = ("a", "b", "x", "y", "z")
        assert perm_act(block_sum((s, t)), profile) == ("b", "a", "z", "x", "y")


class TestFinMap:
    def test_preimage(self):
        assert FinMap(3, 2, (1, 2, 1)).preimage(1) == (1, 3)

    def test_direct_sum(self):
        assert finmap_direct_sum(terminal_map(2), terminal_map(3)).images == (1, 1, 2, 2, 2)

    def test_terminal_absorbs_sums(self):
        for rs in [(1, 2), (0, 3), (2, 2, 1)]:
            summed = terminal_map(rs[0])
            for r in rs[1:]:
                summed = finmap_direct_sum(summed, terminal_map(r))
            total = finmap_compose(terminal_map(len(rs)), summed)
            assert total == terminal_map(sum(rs))

    def test_compose_associative(self):
        f = FinMap(3, 2, (1, 2, 1))
        g = FinMap(2, 2, (2, 1))
        h = terminal_map(2)
        assert finmap_compose(h, finmap_compose(g, f)) == finmap_compose(finmap_compose(h, g), f)

    def test_preimages_partition(self):
        f = FinMap(5, 3, (2, 1, 2, 2, 1))
        seen = []
        for j in range(1, 4):
            seen.extend(f.preimage(j))
        assert sorted(seen) == [1, 2, 3, 4, 5]

    def test_composability_error(self):
        with pytest.raises(ComposabilityError):
            finmap_compose(terminal_map(2), terminal_map(3))


class TestSigmaKgf:
    def test_both_identities(self):
        assert sigma_kgf(identity_map(3), identity_map(3), 2) == identity_perm(1)

    def test_spec_instance(self):
        f = FinMap(3, 2, (1, 2, 1))
        assert sigma_kgf(f, terminal_map(2), 1).images == (1, 3, 2)

    def test_identity_on_either_side(self):
        f = FinMap(4, 2, (2, 1, 2, 2))
        for k in (1, 2):
            assert sigma_kgf(f, identity_map(2), k).is_identity()
        g = FinMap(2, 2, (2, 1))
        for k in (1, 2):
            assert sigma_kgf(identity_map(2), g, k).is_identity()

    def test_defining_equation_positional(self):
        # right action carries the fiberwise concatenation to (gf)^{-1}(k)
        f = FinMap(5, 3, (2, 1, 3, 2, 1))
        g = FinMap(3, 2, (1, 2, 1))
        gf = finmap_compose(g, f)
        for k in (1, 2):
            concat = tuple(i for j in g.preimage(k) for i in f.preimage(j))
            assert perm_act(sigma_kgf(f, g, k), concat) == gf.preimage(k)

    def test_uniqueness_brute_force(self):
        # exactly one permutation satisfies the positional equation
        f = FinMap(5, 3, (2, 1, 3, 2, 1))
        g = FinMap(3, 2, (1, 2, 1))
        gf = finmap_compose(g, f)
        for k in (1, 2):
            concat = tuple(i for j in g.preimage(k) for i in f.preimage(j))
            target = gf.preimage(k)
            solutions = [p for p in all_perms(len(concat)) if perm_act(p, concat) == target]
            assert solutions == [sigma_kgf(f, g, k)]

    @given(st.data())
    def test_defining_equation_random_maps(self, data):
        r = data.draw(st.integers(0, 5))
        s = data.draw(st.integers(1, 4))
        t = data.draw(st.integers(1, 3))
        f = FinMap(r, s, tuple(data.draw(st.integers(1, s)) for _ in range(r)))
        g = FinMap(s, t, tuple(data.draw(st.integers(1, t)) for _ in range(s)))
        gf = finmap_compose(g, f)
        for k in range(1, t + 1):
            concat = tuple(i for j in g.preimage(k) for i in f.preimage(j))
            assert perm_act(sigma_kgf(f, g, k), concat) == gf.preimage(k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_kgf(identity_map(2), identity_map(2), 3)


def all_finmaps(r, s):
    for images in itertools.product(range(1, s + 1), repeat=r):
        yield FinMap(r, s, images)


def composable_pairs():
    """Every f:[r]->[s], g:[s]->[t] with r <= 4 and s, t <= 3."""
    for r, s, t in itertools.product(range(5), range(4), range(4)):
        for f in all_finmaps(r, s):
            for g in all_finmaps(s, t):
                yield f, g


def filter_fiber(f, j):
    return tuple(i for i in range(1, f.domain + 1) if f(i) == j)


class TestFiberKernelsExhaustive:
    def test_fibers_and_preimage_match_filter_definition(self):
        for r, s in itertools.product(range(5), range(4)):
            for f in all_finmaps(r, s):
                assert f.fibers == tuple(filter_fiber(f, j) for j in range(1, s + 1))
                for j in range(0, s + 2):
                    assert f.preimage(j) == filter_fiber(f, j)

    def test_sigma_kgf_is_the_unique_brute_force_permutation(self):
        for f, g in composable_pairs():
            for k in range(1, g.codomain + 1):
                concat = tuple(i for j in filter_fiber(g, k) for i in filter_fiber(f, j))
                target = tuple(i for i in range(1, f.domain + 1) if g(f(i)) == k)
                solutions = [p for p in all_perms(len(concat))
                             if perm_act(p, concat) == target]
                assert solutions == [sigma_kgf(f, g, k)]

    def test_sigma_kgf_never_builds_the_composite(self, monkeypatch):
        import permcat.perms

        def refuse(g, f):
            raise AssertionError("sigma_kgf composed the maps")

        monkeypatch.setattr(permcat.perms, "finmap_compose", refuse)
        for f, g in composable_pairs():
            for k in range(1, g.codomain + 1):
                concat = tuple(i for j in g.preimage(k) for i in f.preimage(j))
                target = tuple(i for i in range(1, f.domain + 1) if g(f(i)) == k)
                assert perm_act(sigma_kgf(f, g, k), concat) == target

    def test_reading_fibers_keeps_value_semantics(self):
        read = FinMap(4, 3, (2, 1, 2, 3))
        assert read.fibers == ((2,), (1, 3), (4,))
        fresh = FinMap(4, 3, (2, 1, 2, 3))
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert read.preimage(2) is read.fibers[1]


class TestGrid:
    def test_corner(self):
        assert grid_rank((1, 1, 1), (2, 3, 4)) == 1

    def test_formula(self):
        assert grid_rank((2, 3), (2, 3)) == 6

    def test_first_index_fastest(self):
        assert [grid_rank((j1, j2), (2, 3)) for j2 in (1, 2, 3) for j1 in (1, 2)] == list(
            range(1, 7))

    def test_unrank_roundtrip(self):
        for sizes in [(2, 3), (4, 4, 4), (1, 5, 2), (64,), (2, 2, 2, 2, 2, 2)]:
            for js in grid_indices(sizes):
                assert grid_unrank(grid_rank(js, sizes), sizes) == js

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            grid_rank((3, 1), (2, 3))

    def test_transpose_degenerate(self):
        for m in range(1, 5):
            assert grid_transpose(m, 1).is_identity()
            assert grid_transpose(1, m).is_identity()

    def test_transpose_exchanges_orders(self):
        # right action carries the transposed-order profile to grid order
        m, n = 3, 2
        grid_order = tuple((i, j) for j in range(1, n + 1) for i in range(1, m + 1))
        transposed = tuple((i, j) for i in range(1, m + 1) for j in range(1, n + 1))
        assert perm_act(grid_transpose(m, n), transposed) == grid_order

    def test_transpose_inverse(self):
        assert grid_transpose(3, 2).inverse() == grid_transpose(2, 3)
        assert perm_compose(grid_transpose(3, 2), grid_transpose(3, 2).inverse()).is_identity()

    def test_product_map(self):
        f = FinMap(2, 1, (1, 1))
        g = identity_map(3)
        prod = product_map((f, g))
        assert prod.domain == 6 and prod.codomain == 3
        for js in grid_indices((2, 3)):
            assert prod(grid_rank(js, (2, 3))) == grid_rank((f(js[0]), g(js[1])), (1, 3))

    def test_perm_grid_product_factorwise(self):
        s, t = Permutation((2, 1)), Permutation((3, 1, 2))
        prod = perm_grid_product((s, t))
        for js in grid_indices((2, 3)):
            assert prod(grid_rank(js, (2, 3))) == grid_rank((s(js[0]), t(js[1])), (2, 3))


def test_profiles_enumeration():
    assert list(profiles(("a", "b"), 2)) == [
        (), ("a",), ("b",),
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
    ]


def test_doctests():
    """Every doctest in every ``permcat`` module."""
    attempted = 0
    for info in pkgutil.iter_modules(permcat.__path__):
        module = importlib.import_module(f"permcat.{info.name}")
        failures, tried = doctest.testmod(module)
        assert failures == 0, info.name
        attempted += tried
    assert attempted >= 15  # perms 10 examples, tensor 5
