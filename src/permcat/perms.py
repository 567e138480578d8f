"""Permutations, maps of finite ordinals, and grid combinatorics.

Conventions, fixed here once and used everywhere else:

- Permutations are in one-line notation, 1-indexed: ``images[i-1]`` holds
  ``sigma(i)``.
- A permutation acts on a profile (a plain tuple) on the right:
  ``perm_act(sigma, c)[i-1] = c[sigma(i)-1]``.
- Composition is ``(sigma tau)(i) = sigma(tau(i))``, the unique convention
  for which ``perm_act(perm_compose(s, t), c) ==
  perm_act(t, perm_act(s, c))``, i.e. acting by ``s`` and then by ``t`` is
  acting by ``s t``.
- Maps of finite ordinals ``[r] -> [s]`` are 1-indexed; preimage lists are
  ascending.
- Grid ranks are reverse lexicographic with the *first* index varying
  fastest: ``grid_rank(j, r) = 1 + sum_i (j_i - 1) * prod_{i' < i} r_i'``.

All constructions that are "the unique permutation determined by source
and target" are computed over index positions, never object labels, so
repeated labels cannot create ambiguity.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ComposabilityError, DegreeMismatchError

Profile = tuple


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((3, 1, 2))(1)
    3
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))


def identity_perm(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def all_perms(n: int) -> Iterator[Permutation]:
    """All of Sigma_n in a fixed (lexicographic) order."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def perm_act(sigma: Permutation, profile: Sequence) -> Profile:
    """The right permutation of a profile: entry i of the result is
    ``profile[sigma(i)]``.

    >>> perm_act(Permutation((3, 1, 2)), ("a", "b", "c"))
    ('c', 'a', 'b')
    """
    if len(profile) != sigma.degree:
        raise DegreeMismatchError(
            f"profile of length {len(profile)} under degree-{sigma.degree} permutation")
    return tuple(profile[sigma(i) - 1] for i in range(1, sigma.degree + 1))


def perm_compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """``(sigma tau)(i) = sigma(tau(i))``.

    Acting on the right by ``sigma`` and then by ``tau`` equals acting by
    this composite.

    >>> perm_compose(Permutation((2, 3, 1)), Permutation((3, 1, 2))).images
    (1, 2, 3)
    """
    if sigma.degree != tau.degree:
        raise DegreeMismatchError(f"degrees {sigma.degree} != {tau.degree}")
    return Permutation(tuple(sigma(tau(i)) for i in range(1, sigma.degree + 1)))


def block_perm(sigma: Permutation, lengths: Sequence[int]) -> Permutation:
    """The block permutation induced by ``sigma`` on consecutive blocks.

    ``lengths[j-1]`` is the length of block ``j`` in the source order.  The
    result acts on the right carrying ``c_1 + ... + c_n`` (``+`` is block
    concatenation) to ``c_{sigma(1)} + ... + c_{sigma(n)}``, fixing the
    order inside each block.

    >>> block_perm(Permutation((2, 1)), (1, 2)).images
    (2, 3, 1)
    """
    if len(lengths) != sigma.degree:
        raise DegreeMismatchError(f"{len(lengths)} lengths for degree {sigma.degree}")
    if any(k < 0 for k in lengths):
        raise ValueError("negative block length")
    offsets = [0]
    for k in lengths:
        offsets.append(offsets[-1] + k)
    images = []
    for t in range(1, sigma.degree + 1):
        j = sigma(t)
        images.extend(range(offsets[j - 1] + 1, offsets[j - 1] + lengths[j - 1] + 1))
    return Permutation(tuple(images))


def block_sum(perms: Sequence[Permutation]) -> Permutation:
    """The image of ``(tau_1, ..., tau_n)`` under the canonical inclusion
    of a product of symmetric groups: acts as ``tau_j`` inside block ``j``.

    >>> block_sum((Permutation((2, 1)), Permutation((1,)))).images
    (2, 1, 3)
    """
    images = []
    offset = 0
    for tau in perms:
        images.extend(offset + v for v in tau.images)
        offset += tau.degree
    return Permutation(tuple(images))


@dataclass(frozen=True)
class FinMap:
    """A function of finite ordinals ``[domain] -> [codomain]``, 1-indexed."""

    domain: int
    codomain: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.domain:
            raise ValueError(f"{len(self.images)} images for domain {self.domain}")
        if any(not 1 <= v <= self.codomain for v in self.images):
            raise ValueError(f"images {self.images} out of range 1..{self.codomain}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return self.domain == self.codomain and all(
            v == i + 1 for i, v in enumerate(self.images))

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """Every fiber, ascending, computed once in one pass:
        ``fibers[j-1]`` is the preimage of ``j``.

        >>> FinMap(3, 2, (1, 2, 1)).fibers
        ((1, 3), (2,))
        """
        fibers: list[list[int]] = [[] for _ in range(self.codomain)]
        for i, j in enumerate(self.images, start=1):
            fibers[j - 1].append(i)
        return tuple(map(tuple, fibers))

    def preimage(self, j: int) -> tuple[int, ...]:
        """The fiber over ``j``, ascending; empty outside ``1..codomain``.

        >>> FinMap(3, 2, (1, 2, 1)).preimage(1)
        (1, 3)
        """
        return self.fibers[j - 1] if 1 <= j <= self.codomain else ()


def identity_map(r: int) -> FinMap:
    return FinMap(r, r, tuple(range(1, r + 1)))


def terminal_map(r: int) -> FinMap:
    """The unique map ``[r] -> [1]``."""
    return FinMap(r, 1, (1,) * r)


def finmap_compose(g: FinMap, f: FinMap) -> FinMap:
    """``(g f)(i) = g(f(i))``; ``f`` is applied first."""
    if f.codomain != g.domain:
        raise ComposabilityError(f"[{f.domain}]->[{f.codomain}] then [{g.domain}]->[{g.codomain}]")
    images = g.images
    return FinMap(f.domain, g.codomain, tuple([images[j - 1] for j in f.images]))


def finmap_direct_sum(f: FinMap, g: FinMap) -> FinMap:
    """The disjoint union ``[r+r'] -> [s+s']``, the second map shifted.

    >>> finmap_direct_sum(terminal_map(2), terminal_map(3)).images
    (1, 1, 2, 2, 2)
    """
    images = f.images + tuple(v + f.codomain for v in g.images)
    return FinMap(f.domain + g.domain, f.codomain + g.codomain, images)


def grid_rank(indices: Sequence[int], sizes: Sequence[int]) -> int:
    """Reverse-lexicographic rank of a grid index tuple; the first index
    varies fastest.

    >>> grid_rank((2, 3), (2, 3))
    6
    """
    if len(indices) != len(sizes):
        raise DegreeMismatchError("index/size tuples of different lengths")
    rank = 0
    stride = 1
    for j, r in zip(indices, sizes):
        if not 1 <= j <= r:
            raise ValueError(f"index {j} out of range 1..{r}")
        rank += (j - 1) * stride
        stride *= r
    return rank + 1


def grid_unrank(rank: int, sizes: Sequence[int]) -> tuple[int, ...]:
    total = 1
    for r in sizes:
        total *= r
    if not 1 <= rank <= total:
        raise ValueError(f"rank {rank} out of range 1..{total}")
    rank -= 1
    indices = []
    for r in sizes:
        indices.append(rank % r + 1)
        rank //= r
    return tuple(indices)


def grid_indices(sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All index tuples of the grid, in rank order."""
    total = 1
    for r in sizes:
        total *= r
    for p in range(1, total + 1):
        yield grid_unrank(p, sizes)


def grid_transpose(m: int, n: int) -> Permutation:
    """The degree-``m n`` permutation exchanging the two ranking orders of
    an ``m x n`` grid: position ``i + (j-1) m`` maps to ``j + (i-1) n``.

    Its right action carries a transposed-order profile to grid order.

    >>> grid_transpose(2, 3).images
    (1, 4, 2, 5, 3, 6)
    """
    images = [0] * (m * n)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            images[i + (j - 1) * m - 1] = j + (i - 1) * n
    return Permutation(tuple(images))


def perm_grid_product(perms: Sequence[Permutation]) -> Permutation:
    """The permutation of grid ranks acting factorwise:
    ``rank(p_1, ..., p_n) -> rank(sigma_1(p_1), ..., sigma_n(p_n))``.

    This is the right-action image of a tuple of twists under the
    iterated tensor of operations.
    """
    sizes = tuple(s.degree for s in perms)
    images = []
    for js in grid_indices(sizes):
        images.append(grid_rank(tuple(s(j) for s, j in zip(perms, js)), sizes))
    return Permutation(tuple(images))


def product_map(maps: Sequence[FinMap]) -> FinMap:
    """The product of maps conjugated by grid ranking:
    ``[prod r_i] -> [prod s_i]`` sending ``rank(j)`` to ``rank(f_i(j_i))``.
    """
    r_sizes = tuple(f.domain for f in maps)
    s_sizes = tuple(f.codomain for f in maps)
    dom = 1
    for r in r_sizes:
        dom *= r
    cod = 1
    for s in s_sizes:
        cod *= s
    images = tuple(
        grid_rank(tuple(f(j) for f, j in zip(maps, js)), s_sizes)
        for js in grid_indices(r_sizes))
    return FinMap(dom, cod, images)


def fiber_concat(f: FinMap, g: FinMap, k: int) -> list[int]:
    """The fiberwise-ordered concatenation ``(+)_{j in g^{-1}(k)} f^{-1}(j)``
    of source indices; sorted ascending it is ``(gf)^{-1}(k)``.

    >>> fiber_concat(FinMap(3, 2, (1, 2, 1)), terminal_map(2), 1)
    [1, 3, 2]
    """
    if f.codomain != g.domain:
        raise ComposabilityError("codomain(f) != domain(g)")
    if not 1 <= k <= g.codomain:
        raise ValueError(f"k={k} out of range 1..{g.codomain}")
    return [i for j in g.preimage(k) for i in f.preimage(j)]


def sigma_kgf(f: FinMap, g: FinMap, k: int) -> Permutation:
    """The unique positional permutation carrying the fiberwise-ordered
    concatenation ``(+)_{j in g^{-1}(k)} x_{f^{-1}(j)}`` to
    ``x_{(gf)^{-1}(k)}`` under its right action.

    ``(gf)^{-1}(k)`` is that concatenation sorted ascending, so the result
    is the (1-indexed) argsort of :func:`fiber_concat`; ``gf`` is never
    built.  It is the identity exactly when the concatenation is already
    ascending.  Degree ``|(gf)^{-1}(k)|``; computed over index positions.

    >>> sigma_kgf(FinMap(3, 2, (1, 2, 1)), terminal_map(2), 1).images
    (1, 3, 2)
    """
    concat = fiber_concat(f, g, k)
    order = sorted(range(len(concat)), key=concat.__getitem__)
    return Permutation(tuple(pos + 1 for pos in order))


def profiles(objects: Iterable, max_len: int) -> Iterator[Profile]:
    """All profiles over ``objects`` of length at most ``max_len``, shortest
    first, then lexicographic in the given object order."""
    objects = tuple(objects)
    for n in range(max_len + 1):
        for combo in itertools.product(objects, repeat=n):
            yield combo
