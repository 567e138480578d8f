"""The endomorphism multicategory of a permutative category.

An n-ary operation with inputs ``(x_1, ..., x_n)`` and output ``y`` is a
morphism ``x_1 + ... + x_n -> y``; an empty sum means the unit object.
Composition pastes with the morphism sum, and the symmetric group acts by
precomposition with the canonical permutation morphisms.

The decomposable-fragment action of multilinear functors lives here as
well; the induced assignment on a strictly unital symmetric monoidal
functor is its 1-ary case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import ComposabilityError
from .multicat import MultiNat, MulticatView, Multifunctor, _inner_tuples
from .permcats import (
    MonoidalNat,
    NLinearFunctor,
    SymMonFunctor,
    nlinear_from_smf,
    perm_to_morphism,
    replace_at,
    sum_mors,
    sum_objs,
)
from .perms import Permutation, Profile, all_perms, grid_indices, perm_act
from .reports import CheckReport
from .tensor import tensor_grid


@dataclass(frozen=True)
class EndoOp:
    """A morphism of the base category tagged with its operation boundary.

    The same base morphism underlies many operations (its source object
    can decompose as a sum in several ways), so the profile is part of the
    operation's identity.
    """

    target: object
    profile: Profile
    mor: object


def endo_multicat(C) -> MulticatView:
    """The endomorphism multicategory as a computed view over ``C``."""

    def ops_fn(target, profile):
        return tuple(EndoOp(target, profile, m)
                     for m in C.hom(sum_objs(C, profile), target))

    def act_fn(op: EndoOp, sigma: Permutation) -> EndoOp:
        # precompose with the realization of sigma^{-1} at the permuted
        # profile; the unique direction satisfying the right-action square
        permuted = perm_act(sigma, op.profile)
        realization = perm_to_morphism(C, sigma.inverse(), permuted)
        return EndoOp(op.target, permuted, C.compose(op.mor, realization))

    def compose_fn(outer: EndoOp, inners: tuple) -> EndoOp:
        pasted = sum_mors(C, [i.mor for i in inners])
        profile = tuple(x for i in inners for x in i.profile)
        return EndoOp(outer.target, profile, C.compose(outer.mor, pasted))

    return MulticatView(
        name=f"endo({getattr(C, 'name', 'permcat')})",
        objects=tuple(C.objects) if C.objects is not None else None,
        max_arity=None,
        ops_fn=ops_fn,
        unit_fn=lambda x: EndoOp(x, (x,), C.identity(x)),
        output_fn=lambda op: op.target,
        profile_fn=lambda op: op.profile,
        act_fn=act_fn,
        compose_fn=compose_fn)


def basepoint_check(C, max_arity: int = 3) -> CheckReport:
    """The canonical basepoint: every arity of the terminal multicategory
    must land on the identity of the unit object."""
    E = endo_multicat(C)
    report = CheckReport(f"basepoint({getattr(C, 'name', 'permcat')})")
    e = C.unit
    image = {n: EndoOp(e, (e,) * n, C.identity(e)) for n in range(max_arity + 1)}
    report.expect("unit-preservation", EndoOp(e, (e,), C.identity(e)), E.unit(e), "unit")
    for n in range(max_arity + 1):
        report.expect("operation-typing",
                      image[n].mor in C.hom(sum_objs(C, (e,) * n), e), True, ("arity", n))
        for s in all_perms(n):
            report.evaluate("symmetry-preservation", lambda: E.act(image[n], s),
                            lambda: image[n], ("action", n, s.images))
    arities = {e: [(image[k].profile, k) for k in image]}  # the slot index of each arity
    for n in range(1, max_arity + 1):
        for ks in _inner_tuples(arities, image[n].profile, max_arity):
            report.evaluate("composition-preservation",
                            lambda: E.compose(image[n], tuple(image[k] for k in ks)),
                            lambda: image[sum(ks)], ("composite", n, ks))
    return report


def endo_on_functor(P: SymMonFunctor) -> Multifunctor:
    """The induced multifunctor of a strictly unital symmetric monoidal
    functor: the decomposable action of ``P`` as a 1-linear functor."""
    if not P.strictly_unital:
        raise ValueError("the endomorphism construction needs a strictly "
                         "unital functor (the basepoint is not preserved otherwise)")
    return decomposable_endo_multifunctor(nlinear_from_smf(P))


def endo_on_nat(theta: MonoidalNat) -> MultiNat:
    """Components become unary operations."""
    P, Q = theta.source, theta.target
    return MultiNat(endo_on_functor(P), endo_on_functor(Q),
                    lambda c: EndoOp(Q.on_obj(c), (P.on_obj(c),), theta.at(c)))


def endo_action(P: NLinearFunctor, mus: tuple):
    """The decomposable action of a multilinear functor on a tuple of
    endomorphism operations.

    Produces the operation of arity ``prod(r_i)`` whose inputs are the
    grid of ``P``-images: collapse the linearity constraints factor by
    factor in ascending order over the fastest-first grid, then apply
    ``P`` to the underlying morphisms.  (Collapsing in another order
    differs by a canonical shuffle and yields the same operation; that
    independence is a property test, not an option here.)
    """
    n = P.arity
    if len(mus) != n:
        raise ComposabilityError(f"{len(mus)} operations for arity {n}")
    D = P.target
    if n == 0:
        return EndoOp(P.on_obj(()), (), D.identity(P.on_obj(())))
    in_profiles = [m.profile for m in mus]
    sizes = tuple(len(p) for p in in_profiles)
    grid_profile = tuple(
        P.on_obj(tuple(in_profiles[i][js[i] - 1] for i in range(n)))
        for js in grid_indices(sizes))
    totals = tuple(sum_objs(P.sources[i], in_profiles[i]) for i in range(n))
    image = P.on_mor(tuple(m.mor for m in mus))
    target = P.on_obj(tuple(m.target for m in mus))

    if any(r == 0 for r in sizes):
        # the grid is empty: the collapse is the identity of the unit
        return EndoOp(target, (), D.compose(image, D.identity(D.unit)))

    entry_at = {js: tuple(in_profiles[i][js[i] - 1] for i in range(n))
                for js in grid_indices(sizes)}
    current = list(sizes)
    acc = D.identity(sum_objs(D, grid_profile))
    for b in range(1, n + 1):
        r_b = current[b - 1]
        reduced = list(current)
        reduced[b - 1] = 1
        stage_parts = []
        collapsed_at = {}
        for js in grid_indices(reduced):
            run = [entry_at[js[:b - 1] + (l,) + js[b:]] for l in range(1, r_b + 1)]
            chain, collapsed = collapse_run(P, b, run, totals[b - 1])
            stage_parts.append(chain)
            collapsed_at[js] = collapsed
        acc = D.compose(sum_mors(D, stage_parts), acc)
        entry_at = collapsed_at
        current = reduced
    assert entry_at[tuple([1] * n)] == totals
    return EndoOp(target, grid_profile, D.compose(image, acc))


def decomposable_endo_multifunctor(P: NLinearFunctor) -> Multifunctor:
    """The action of a multilinear functor packaged as a multifunctor on
    the grid fragment of the endomorphism multicategories.

    Only a grid operation's action is cached, per raw components and twist
    (see the memo rule in the README): no caller asks for a unary one twice."""
    Es = tuple(endo_multicat(S) for S in P.sources)
    ED = endo_multicat(P.target)
    unary = len(Es) == 1    # the grid of one factor is that factor itself
    if unary:
        def on_op(op):
            return endo_action(P, (op,))
    else:
        action = cache(lambda components, twist: ED.act(endo_action(P, components), twist))

        def on_op(op):
            return action(op.components, op.twist)

    def on_obj(obj):
        return P.on_obj((obj,) if unary else obj)

    return Multifunctor(tensor_grid(Es), ED, on_obj, on_op)


def collapse_run(P: NLinearFunctor, b: int, run: list, total_b):
    """Iterated b-th constraint over one run of argument tuples differing
    only in slot ``b``; returns the collapsing morphism and the collapsed
    tuple.  An empty run collapses to the unit (the chain is the unit
    identity, by the unity axiom)."""
    D = P.target
    Cb = P.sources[b - 1]
    if not run:
        raise ComposabilityError("empty runs need the empty-grid fast path")
    first = run[0]
    acc_obj = first[b - 1]
    acc = D.identity(P.on_obj(first))
    for entry in run[1:]:
        x = entry[b - 1]
        c = P.constraint(b, replace_at(first, b, acc_obj), x)
        acc = D.compose(c, D.sum_mor(acc, D.identity(P.on_obj(entry))))
        acc_obj = Cb.sum_obj(acc_obj, x)
    if acc_obj != total_b:
        raise ComposabilityError("run does not exhaust the factor profile")
    return acc, replace_at(first, b, total_b)
