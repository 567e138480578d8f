"""The free permutative category on a multicategory.

Objects are finite sequences of base objects; a morphism is an index map
of finite ordinals together with one base operation per target position,
whose inputs are the source entries over the corresponding fiber.
Composition composes fiberwise and corrects the input order with the
positional permutations from :func:`permcat.perms.sigma_kgf`, acting
only where the fiber concatenation is not already ascending.

The category is never materialized: :class:`FreePermCat` is a view with
on-demand composition and hom enumeration under an explicit length bound.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .errors import BoundExceededError, ComposabilityError
from .multicat import Multicat, Multifunctor, MultiNat
from .permcats import MonoidalNat, SymMonFunctor
from .perms import (
    FinMap,
    Profile,
    finmap_compose,
    finmap_direct_sum,
    identity_map,
    profiles,
    sigma_kgf,
)


@dataclass(frozen=True, slots=True)
class FreeMorphism:
    """A pair of an index map and fiberwise operations, with its boundary.

    ``ops[j-1]`` is the base operation at target position ``j``; its input
    profile is the source restricted to the ascending fiber over ``j``.
    """

    source: Profile
    target: Profile
    index_map: FinMap
    ops: tuple

    def __post_init__(self):
        if self.index_map.domain != len(self.source):
            raise ComposabilityError("index map domain != source length")
        if self.index_map.codomain != len(self.target):
            raise ComposabilityError("index map codomain != target length")
        if len(self.ops) != len(self.target):
            raise ComposabilityError("one operation per target position required")


def check_boundary(M: Multicat, mor: FreeMorphism) -> None:
    """Assert the fiberwise operations have the declared boundary."""
    for j, op in enumerate(mor.ops, start=1):
        expected = tuple(mor.source[i - 1] for i in mor.index_map.preimage(j))
        if M.profile_of(op) != expected or M.output_of(op) != mor.target[j - 1]:
            raise ComposabilityError(
                f"operation at position {j} has boundary "
                f"({M.output_of(op)!r}; {M.profile_of(op)!r}), "
                f"expected ({mor.target[j - 1]!r}; {expected!r})")


def free_identity(M: Multicat, profile: Profile) -> FreeMorphism:
    return FreeMorphism(tuple(profile), tuple(profile),
                        identity_map(len(profile)),
                        tuple(M.unit(x) for x in profile))


def free_compose(M: Multicat, g_mor: FreeMorphism, f_mor: FreeMorphism) -> FreeMorphism:
    """Fiberwise composition with positional reordering of inputs.

    One pass over the fibers of ``g`` reads the fibers of ``f`` it
    concatenates; :func:`sigma_kgf` runs only where that concatenation is
    not already ascending."""
    if f_mor.target != g_mor.source:
        raise ComposabilityError(f"{f_mor.target!r} != {g_mor.source!r}")
    f, g = f_mor.index_map, g_mor.index_map
    f_ops, f_fibers = f_mor.ops, f.fibers
    ops = []
    for k, (outer, fiber) in enumerate(zip(g_mor.ops, g.fibers), start=1):
        theta = M.compose(outer, tuple([f_ops[j - 1] for j in fiber]))
        concat = [i for j in fiber for i in f_fibers[j - 1]]
        ops.append(theta if concat == sorted(concat) else M.act(theta, sigma_kgf(f, g, k)))
    return FreeMorphism(f_mor.source, g_mor.target, finmap_compose(g, f), tuple(ops))


def free_sum(M: Multicat, a: FreeMorphism, b: FreeMorphism) -> FreeMorphism:
    return FreeMorphism(a.source + b.source, a.target + b.target,
                        finmap_direct_sum(a.index_map, b.index_map),
                        a.ops + b.ops)


def free_symmetry(M: Multicat, x: Profile, y: Profile) -> FreeMorphism:
    """The block transposition with unit operations."""
    r, s = len(x), len(y)
    images = tuple(range(s + 1, s + r + 1)) + tuple(range(1, s + 1))
    return FreeMorphism(tuple(x) + tuple(y), tuple(y) + tuple(x),
                        FinMap(r + s, s + r, images),
                        tuple(M.unit(z) for z in tuple(y) + tuple(x)))


def _index_maps(r: int, s: int) -> Iterator[FinMap]:
    for images in itertools.product(range(1, s + 1), repeat=r):
        yield FinMap(r, s, images)


def free_hom(M: Multicat, source: Profile, target: Profile,
             partial: bool = False) -> tuple[FreeMorphism, ...]:
    """All morphisms with the given boundary.

    When some index map has a fiber beyond the arity bound the hom set is
    not knowable from a truncated base; that raises
    :class:`BoundExceededError` unless ``partial`` is set, in which case
    the in-bound morphisms are returned.
    """
    source, target = tuple(source), tuple(target)
    r, s = len(source), len(target)
    out = []
    for f in _index_maps(r, s):
        fibers = [f.preimage(j) for j in range(1, s + 1)]
        if M.max_arity is not None and any(len(fib) > M.max_arity for fib in fibers):
            if partial:
                continue
            raise BoundExceededError(
                f"hom({source!r}, {target!r}) needs operations of arity "
                f"above the bound {M.max_arity}")
        slot_ops = [M.ops(target[j - 1], tuple(source[i - 1] for i in fibers[j - 1]))
                    for j in range(1, s + 1)]
        for ops in itertools.product(*slot_ops):
            out.append(FreeMorphism(source, target, f, ops))
    return tuple(out)


class FreePermCat:
    """View of the free permutative category on ``base``.

    Objects are profiles of base objects (infinite: enumeration requires
    a length bound); the sum is concatenation, the unit the empty profile,
    and the symmetry the block transposition with unit operations.
    """

    def __init__(self, base: Multicat, partial_homs: bool = False):
        self.base = base
        self.name = f"free({getattr(base, 'name', 'multicat')})"
        self.unit: Profile = ()
        self.objects = None
        self.partial_homs = partial_homs

    def object_list(self) -> tuple:
        raise BoundExceededError(f"{self.name} has infinitely many objects; "
                                 "enumerate with an explicit length bound")

    def enumerate_objects(self, max_len: int) -> tuple[Profile, ...]:
        return tuple(profiles(self.base.object_list(), max_len))

    def src(self, mor: FreeMorphism) -> Profile:
        return mor.source

    def tgt(self, mor: FreeMorphism) -> Profile:
        return mor.target

    def hom(self, x: Profile, y: Profile) -> tuple[FreeMorphism, ...]:
        return free_hom(self.base, x, y, partial=self.partial_homs)

    def identity(self, x: Profile) -> FreeMorphism:
        return free_identity(self.base, x)

    def compose(self, g: FreeMorphism, f: FreeMorphism) -> FreeMorphism:
        return free_compose(self.base, g, f)

    def sum_obj(self, x: Profile, y: Profile) -> Profile:
        return tuple(x) + tuple(y)

    def sum_mor(self, f: FreeMorphism, g: FreeMorphism) -> FreeMorphism:
        return free_sum(self.base, f, g)

    def xi(self, x: Profile, y: Profile) -> FreeMorphism:
        return free_symmetry(self.base, x, y)

    def is_invertible(self, mor: FreeMorphism) -> bool:
        """A free morphism is invertible iff its index map is a bijection
        and each of its (then unary) operations is invertible in the base."""
        f = mor.index_map
        if f.domain != f.codomain or sorted(f.images) != list(range(1, f.domain + 1)):
            return False
        M = self.base
        for j, op in enumerate(mor.ops, start=1):
            x = mor.source[f.preimage(j)[0] - 1]
            y = mor.target[j - 1]
            if not any(M.compose(g, (op,)) == M.unit(x)
                       and M.compose(op, (g,)) == M.unit(y)
                       for g in M.ops(x, (y,))):
                return False
        return True


def free_on_multifunctor(H: Multifunctor) -> SymMonFunctor:
    """The induced strict symmetric monoidal functor: apply ``H`` to every
    entry and every fiberwise operation, keeping the index map.  The
    functor keeps the image of each profile (see the memo rule in the
    README): the comparison suites ask for the same few profiles many
    times over."""
    FM, FN = FreePermCat(H.source), FreePermCat(H.target)
    on_obj = cache(lambda x: tuple(map(H.on_obj, x)))

    def on_mor(mor: FreeMorphism) -> FreeMorphism:
        return FreeMorphism(on_obj(mor.source), on_obj(mor.target),
                            mor.index_map, tuple(H.on_op(op) for op in mor.ops))

    return SymMonFunctor(FM, FN, on_obj, on_mor, None, None,
                         strict=True, strictly_unital=True, strong=True)


def free_on_multinat(kappa: MultiNat) -> MonoidalNat:
    """The induced monoidal natural transformation: identity index map with
    the components of ``kappa`` fiberwise.  Its component at the empty
    profile is the empty identity."""
    FH = free_on_multifunctor(kappa.source)
    FK = free_on_multifunctor(kappa.target)
    N = kappa.source.target

    def component(x: Profile) -> FreeMorphism:
        return FreeMorphism(FH.on_obj(x), FK.on_obj(x),
                            identity_map(len(x)),
                            tuple(kappa.at(w) for w in x))

    return MonoidalNat(FH, FK, component)
