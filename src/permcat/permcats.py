"""Finite permutative categories and the multilinear functor calculus.

A permutative category here is strict: the sum is associative and unital
on the nose, only the symmetry is data.  :class:`FinPermCat` is the
table-backed implementation; the free construction provides a view with
the same method surface, and every validator in this module works on
either (tables are total, views evaluate globally, so checks are simply
enumerated over a finite object window).

Morphism-level conventions: ``compose(g, f)`` applies ``f`` first; sums
fold on the left, an empty sum is the unit object.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Mapping, Sequence

from .errors import BoundExceededError, ComposabilityError, MalformedStructureError
from .perms import Permutation, Profile, perm_act
from .reports import CheckReport, numbering


@dataclass(frozen=True)
class FinPermCat:
    name: str
    objects: tuple
    mor_src: Mapping
    mor_tgt: Mapping
    identities: Mapping     # obj -> morphism
    composition: Mapping    # (g, f) -> g after f
    unit: object            # unit object e
    sums: Mapping           # (x, y) -> object
    mor_sums: Mapping       # (f, g) -> morphism
    symmetries: Mapping     # (x, y) -> morphism x+y -> y+x
    _homs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for f, x in self.mor_src.items():
            self._homs.setdefault((x, self.mor_tgt[f]), []).append(f)

    def object_list(self) -> tuple:
        return self.objects

    def morphisms(self) -> tuple:
        return tuple(self.mor_src)

    def src(self, f):
        return self.mor_src[f]

    def tgt(self, f):
        return self.mor_tgt[f]

    def hom(self, x, y) -> tuple:
        return tuple(self._homs.get((x, y), ()))

    def identity(self, x):
        try:
            return self.identities[x]
        except KeyError:
            raise MalformedStructureError(f"no identity for {x!r}")

    def compose(self, g, f):
        if self.mor_tgt[f] != self.mor_src[g]:
            raise ComposabilityError(f"{f!r} then {g!r}")
        try:
            return self.composition[g, f]
        except KeyError:
            raise MalformedStructureError(f"missing composite ({g!r}, {f!r})")

    def sum_obj(self, x, y):
        try:
            return self.sums[x, y]
        except KeyError:
            raise MalformedStructureError(f"missing object sum ({x!r}, {y!r})")

    def sum_mor(self, f, g):
        try:
            return self.mor_sums[f, g]
        except KeyError:
            raise MalformedStructureError(f"missing morphism sum ({f!r}, {g!r})")

    def xi(self, x, y):
        try:
            return self.symmetries[x, y]
        except KeyError:
            raise MalformedStructureError(f"missing symmetry ({x!r}, {y!r})")


def sum_objs(C, objs: Sequence):
    """Left-normalized object sum; empty sum is the unit."""
    total = C.unit
    for x in objs:
        total = C.sum_obj(total, x)
    return total


def sum_mors(C, mors: Sequence):
    """Left-normalized morphism sum; empty sum is the unit identity."""
    total = C.identity(C.unit)
    for f in mors:
        total = C.sum_mor(total, f)
    return total


def window_mors(C, objs: Sequence) -> list:
    """Every morphism between objects of the window, hom by hom."""
    return [f for x in objs for y in objs for f in C.hom(x, y)]


def by_source(src: Callable, mors) -> dict:
    """``mors`` grouped by ``src``, each group in the given order: the
    morphisms of ``mors`` that can follow ``f`` are ``groups.get(tgt(f), ())``.
    Over a product of windows, the product of these groups is the
    composable tuples in the product's own order."""
    groups = {}
    for f in mors:
        groups.setdefault(src(f), []).append(f)
    return groups


def perm_to_morphism(C, perm: Permutation, profile: Profile):
    """The canonical morphism ``x_1 + ... + x_n -> x_{perm(1)} + ...``
    built by factoring ``perm`` into adjacent transpositions, each realized
    as ``1 + xi + 1``.

    Coherence of permutative categories makes the result independent of
    the factorization; that independence is re-checked by property tests
    rather than trusted.
    """
    if len(profile) != perm.degree:
        raise ComposabilityError(f"profile length {len(profile)} vs degree {perm.degree}")
    current = list(range(1, perm.degree + 1))    # source indices, positionwise
    target = list(perm.images)
    morphism = C.identity(sum_objs(C, profile))
    while current != target:
        # bubble the next out-of-place index leftwards
        a = next(i for i, v in enumerate(current) if v != target[i])
        b = current.index(target[a])
        for pos in range(b, a, -1):
            left = sum_mors(C, [C.identity(profile[i - 1]) for i in current[:pos - 1]])
            swap = C.xi(profile[current[pos - 1] - 1], profile[current[pos] - 1])
            right = sum_mors(C, [C.identity(profile[i - 1]) for i in current[pos + 1:]])
            step = C.sum_mor(C.sum_mor(left, swap), right)
            morphism = C.compose(step, morphism)
            current[pos - 1], current[pos] = current[pos], current[pos - 1]
    return morphism


def validate_permcat(C, objects: Sequence | None = None,
                     interchange_objects: Sequence | None = None) -> CheckReport:
    """Exhaustive check of the permutative category axioms over a window.

    ``interchange_objects`` optionally restricts the two quadratic-cost
    diagrams (sum interchange, morphism-level sum associativity) to a
    smaller window; by default they run over the full window.  Every leg
    is decided by :meth:`CheckReport.evaluate` or ``evaluate_row``:
    instances with a leg beyond the bound of a truncated view are not
    counted; ill-typed components (a leg that cannot even be composed) are
    violations.

    Composition works on the indices of :func:`permcat.reports.numbering`,
    and so do the sums of two interchange-window morphisms, each built once
    per index pair; the sums over the full window, and the legs that
    compose them, stay by value (see the memo rule in the README).  Each
    symmetry is built once per object pair.  Associativity is decided one
    row per composable ``(g, f)``, over every ``h`` that can follow ``g``,
    and the interchange law one row per ``(f, g, f2)``, over every ``g2``
    that can follow ``g`` (see the row rule in :mod:`permcat.reports`).
    """
    objs = tuple(objects) if objects is not None else C.object_list()
    report = CheckReport(getattr(C, "name", "permcat"))
    mors = window_mors(C, objs)
    heavy = mors if interchange_objects is None else window_mors(C, tuple(interchange_objects))

    window, index, number = numbering(mors + heavy)
    composite = cache(lambda i, j: number(C.compose(window[i], window[j])))
    pair_sum = cache(lambda i, j: C.sum_mor(window[i], window[j]))
    xi = cache(C.xi)

    def compose(g, f):
        """``g`` after ``f`` by value, looked up for a window pair."""
        i, j = index.get(g), index.get(f)
        return C.compose(g, f) if i is None or j is None else window[composite(i, j)]

    def src(i: int):
        return C.src(window[i])

    def ends(f) -> tuple:
        return C.src(f), C.tgt(f)

    for x in objs:
        report.evaluate("identity-typing", lambda: ends(C.identity(x)), lambda: (x, x), ("id", x))
    for f in mors:
        i = index[f]
        report.evaluate("category-unity", lambda: composite(number(C.identity(C.tgt(f))), i),
                        lambda: i, ("left", f))
        report.evaluate("category-unity", lambda: composite(i, number(C.identity(C.src(f)))),
                        lambda: i, ("right", f))
    after = by_source(src, [index[f] for f in mors])
    for f in mors:
        j = index[f]
        for i in after.get(C.tgt(f), ()):
            report.evaluate_row("category-associativity",
                                lambda k: composite(k, composite(i, j)),
                                lambda k: composite(composite(k, i), j),
                                after.get(C.tgt(window[i]), ()),
                                lambda k: (window[k], window[i], f))

    for x in objs:
        report.evaluate("sum-unity", lambda: C.sum_obj(C.unit, x), lambda: x, ("left", x))
        report.evaluate("sum-unity", lambda: C.sum_obj(x, C.unit), lambda: x, ("right", x))
    for x, y, z in itertools.product(objs, repeat=3):
        report.evaluate("sum-associativity", lambda: C.sum_obj(C.sum_obj(x, y), z),
                        lambda: C.sum_obj(x, C.sum_obj(y, z)), (x, y, z))

    for x, y in itertools.product(objs, repeat=2):
        report.evaluate("sum-functoriality",
                        lambda: C.sum_mor(C.identity(x), C.identity(y)),
                        lambda: C.identity(C.sum_obj(x, y)), ("identities", x, y))
    for f in mors:
        report.evaluate("sum-unity-morphisms", lambda: C.sum_mor(C.identity(C.unit), f),
                        lambda: f, ("left", f))
        report.evaluate("sum-unity-morphisms", lambda: C.sum_mor(f, C.identity(C.unit)),
                        lambda: f, ("right", f))
    for f, g in itertools.product(mors, repeat=2):
        report.evaluate("sum-typing", lambda: ends(C.sum_mor(f, g)),
                        lambda: (C.sum_obj(C.src(f), C.src(g)), C.sum_obj(C.tgt(f), C.tgt(g))),
                        ("sum", f, g))
    # the interchange law on window indices: (f2 + g2) after (f + g)
    heavy_after = by_source(src, [index[f] for f in heavy])
    for f, g in itertools.product(heavy, repeat=2):
        i, j = index[f], index[g]
        for i2 in heavy_after.get(C.tgt(f), ()):
            report.evaluate_row("sum-functoriality",
                                lambda j2: pair_sum(composite(i2, i), composite(j2, j)),
                                lambda j2: compose(pair_sum(i2, j2), pair_sum(i, j)),
                                heavy_after.get(C.tgt(g), ()),
                                lambda j2: ("interchange", window[i2], f, window[j2], g))
    for f, g, h in itertools.product(heavy, repeat=3):
        i, j, k = index[f], index[g], index[h]
        report.evaluate("sum-associativity",
                        lambda: C.sum_mor(pair_sum(i, j), h), lambda: C.sum_mor(f, pair_sum(j, k)),
                        ("morphisms", f, g, h))

    for x, y in itertools.product(objs, repeat=2):
        report.evaluate("symmetry-typing", lambda: ends(xi(x, y)),
                        lambda: (C.sum_obj(x, y), C.sum_obj(y, x)), (x, y))
        report.evaluate("symmetry-involution",
                        lambda: compose(xi(y, x), xi(x, y)),
                        lambda: C.identity(C.sum_obj(x, y)), (x, y))
    for x in objs:
        report.evaluate("unit-symmetry", lambda: xi(x, C.unit), lambda: C.identity(x),
                        ("right", x))
        report.evaluate("unit-symmetry", lambda: xi(C.unit, x), lambda: C.identity(x),
                        ("left", x))
    for f, g in itertools.product(mors, repeat=2):
        report.evaluate(
            "symmetry-naturality",
            lambda: compose(xi(C.tgt(f), C.tgt(g)), C.sum_mor(f, g)),
            lambda: compose(C.sum_mor(g, f), xi(C.src(f), C.src(g))),
            (f, g))
    for x, y, z in itertools.product(objs, repeat=3):
        report.evaluate(
            "hexagon",
            lambda: xi(x, C.sum_obj(y, z)),
            lambda: compose(
                C.sum_mor(C.identity(y), xi(x, z)),
                C.sum_mor(xi(x, y), C.identity(z))),
            (x, y, z))
    return report


@dataclass(frozen=True)
class SymMonFunctor:
    """A symmetric monoidal functor with monoidal constraint ``m2`` and
    unit constraint ``m0``.  ``m2=None`` / ``m0=None`` mean identities."""

    source: object
    target: object
    obj_map: Callable
    mor_map: Callable
    m2: Callable | None = None
    m0: object | None = None
    strict: bool = False
    strictly_unital: bool = False
    strong: bool = False

    def on_obj(self, x):
        return self.obj_map(x)

    def on_mor(self, f):
        return self.mor_map(f)

    def monoidal(self, x, y):
        if self.m2 is None:
            return self.target.identity(
                self.target.sum_obj(self.on_obj(x), self.on_obj(y)))
        return self.m2(x, y)

    def unit_constraint(self):
        if self.m0 is None:
            return self.target.identity(self.target.unit)
        return self.m0


def identity_smf(C) -> SymMonFunctor:
    return SymMonFunctor(C, C, lambda x: x, lambda f: f,
                         strict=True, strictly_unital=True, strong=True)


def smf_compose(Q: SymMonFunctor, P: SymMonFunctor) -> SymMonFunctor:
    """Underlying composite with ``(QP)^2 = Q(P^2) . Q^2`` and
    ``(QP)^0 = Q(P^0) . Q^0``."""
    D = Q.target

    def m2(x, y):
        return D.compose(Q.on_mor(P.monoidal(x, y)),
                         Q.monoidal(P.on_obj(x), P.on_obj(y)))

    m0 = D.compose(Q.on_mor(P.unit_constraint()), Q.unit_constraint())
    return SymMonFunctor(P.source, Q.target,
                         lambda x: Q.on_obj(P.on_obj(x)),
                         lambda f: Q.on_mor(P.on_mor(f)),
                         m2, m0,
                         strict=P.strict and Q.strict,
                         strictly_unital=P.strictly_unital and Q.strictly_unital,
                         strong=P.strong and Q.strong)


def _is_invertible(C, f) -> bool | None:
    """Inverse search; ``None`` when the relevant hom is not enumerable.
    A composition that raises is raised: validators call it through
    :meth:`CheckReport.attempt`."""
    if C.src(f) == C.tgt(f) and f == C.identity(C.src(f)):
        return True
    checker = getattr(C, "is_invertible", None)
    if checker is not None:
        return checker(f)
    try:
        candidates = C.hom(C.tgt(f), C.src(f))
    except BoundExceededError:
        return None
    return any(C.compose(g, f) == C.identity(C.src(f))
               and C.compose(f, g) == C.identity(C.tgt(f))
               for g in candidates)


def validate_smf(P: SymMonFunctor, objects: Sequence | None = None) -> CheckReport:
    C, D = P.source, P.target
    objs = tuple(objects) if objects is not None else C.object_list()
    report = CheckReport("symmetric-monoidal-functor")
    mors = window_mors(C, objs)

    for f in mors:
        report.expect("functor-typing",
                      (D.src(P.on_mor(f)), D.tgt(P.on_mor(f))),
                      (P.on_obj(C.src(f)), P.on_obj(C.tgt(f))), ("typing", f))
    for x in objs:
        report.expect("functor-identities",
                      P.on_mor(C.identity(x)), D.identity(P.on_obj(x)), ("id", x))
    after = by_source(C.src, mors)
    for f in mors:
        for g in after.get(C.tgt(f), ()):
            report.evaluate("functor-composition",
                            lambda: P.on_mor(C.compose(g, f)),
                            lambda: D.compose(P.on_mor(g), P.on_mor(f)), (g, f))

    m0 = P.unit_constraint()
    report.expect("unit-constraint-typing",
                  (D.src(m0), D.tgt(m0)), (D.unit, P.on_obj(C.unit)), "m0")

    for x, y in itertools.product(objs, repeat=2):
        c = P.monoidal(x, y)
        report.expect("monoidal-constraint-typing",
                      (D.src(c), D.tgt(c)),
                      (D.sum_obj(P.on_obj(x), P.on_obj(y)), P.on_obj(C.sum_obj(x, y))),
                      (x, y))
    for f, g in itertools.product(mors, repeat=2):
        report.evaluate("monoidal-constraint-naturality",
                        lambda: D.compose(P.monoidal(C.tgt(f), C.tgt(g)),
                                          D.sum_mor(P.on_mor(f), P.on_mor(g))),
                        lambda: D.compose(P.on_mor(C.sum_mor(f, g)),
                                          P.monoidal(C.src(f), C.src(g))), (f, g))
    for x, y, z in itertools.product(objs, repeat=3):
        report.evaluate("monoidal-associativity",
                        lambda: D.compose(P.monoidal(C.sum_obj(x, y), z),
                                          D.sum_mor(P.monoidal(x, y), D.identity(P.on_obj(z)))),
                        lambda: D.compose(P.monoidal(x, C.sum_obj(y, z)),
                                          D.sum_mor(D.identity(P.on_obj(x)), P.monoidal(y, z))),
                        (x, y, z))
    for x in objs:
        px = P.on_obj(x)
        report.evaluate("monoidal-unity",
                        lambda: D.compose(P.monoidal(C.unit, x), D.sum_mor(m0, D.identity(px))),
                        lambda: D.identity(px), ("left", x))
        report.evaluate("monoidal-unity",
                        lambda: D.compose(P.monoidal(x, C.unit), D.sum_mor(D.identity(px), m0)),
                        lambda: D.identity(px), ("right", x))
    for x, y in itertools.product(objs, repeat=2):
        report.evaluate("monoidal-symmetry",
                        lambda: D.compose(P.monoidal(y, x), D.xi(P.on_obj(x), P.on_obj(y))),
                        lambda: D.compose(P.on_mor(C.xi(x, y)), P.monoidal(x, y)), (x, y))

    if P.strictly_unital or P.strict:
        report.expect("flag-consistency", m0, D.identity(D.unit), "m0-flag")
    if P.strict:
        for x, y in itertools.product(objs, repeat=2):
            c = P.monoidal(x, y)
            report.expect("flag-consistency", c, D.identity(D.src(c)), ("m2-flag", x, y))
    if P.strong:
        for label, c in [("m0-invertible", m0)] + [
                (("m2-invertible", x, y), P.monoidal(x, y))
                for x, y in itertools.product(objs, repeat=2)]:
            witness = label if isinstance(label, tuple) else (label,)
            value = report.attempt("flag-consistency", lambda: _is_invertible(D, c), witness)
            if value is not None:
                report.expect("flag-consistency", value, True, label)
    return report


def validate_smf_with_ends(P: SymMonFunctor) -> CheckReport:
    """A functor together with its source and target categories."""
    report = validate_smf(P)
    report.absorb(validate_permcat(P.source), "source-")
    report.absorb(validate_permcat(P.target), "target-")
    return report


@dataclass(frozen=True)
class MonoidalNat:
    source: SymMonFunctor
    target: SymMonFunctor
    components: Callable

    def at(self, x):
        return self.components(x)


def identity_monoidal_nat(P: SymMonFunctor) -> MonoidalNat:
    return MonoidalNat(P, P, lambda x: P.target.identity(P.on_obj(x)))


def validate_monoidal_nat(theta: MonoidalNat, objects: Sequence | None = None) -> CheckReport:
    P, Q = theta.source, theta.target
    C, D = P.source, P.target
    objs = tuple(objects) if objects is not None else C.object_list()
    report = CheckReport("monoidal-natural-transformation")
    mors = window_mors(C, objs)

    for x in objs:
        t = theta.at(x)
        report.expect("component-typing",
                      (D.src(t), D.tgt(t)), (P.on_obj(x), Q.on_obj(x)), ("component", x))
    for f in mors:
        report.evaluate("naturality",
                        lambda: D.compose(theta.at(C.tgt(f)), P.on_mor(f)),
                        lambda: D.compose(Q.on_mor(f), theta.at(C.src(f))), (f,))
    report.evaluate("unity",
                    lambda: D.compose(theta.at(C.unit), P.unit_constraint()),
                    Q.unit_constraint, ("unit",))
    for x, y in itertools.product(objs, repeat=2):
        report.evaluate("constraint-compatibility",
                        lambda: D.compose(theta.at(C.sum_obj(x, y)), P.monoidal(x, y)),
                        lambda: D.compose(Q.monoidal(x, y),
                                          D.sum_mor(theta.at(x), theta.at(y))), (x, y))
    return report


def validate_monoidal_nat_with_ends(theta: MonoidalNat) -> CheckReport:
    """A transformation together with its two functors, each with its
    categories."""
    report = validate_monoidal_nat(theta)
    report.absorb(validate_smf_with_ends(theta.source), "source-")
    report.absorb(validate_smf_with_ends(theta.target), "target-")
    return report


def replace_at(tup: tuple, j: int, value) -> tuple:
    """The tuple with slot ``j`` (1-indexed) replaced."""
    return tup[:j - 1] + (value,) + tup[j:]


@dataclass(frozen=True)
class NLinearFunctor:
    """A functor out of a product of permutative categories with one
    linearity constraint per variable.

    ``constraints`` is called as ``(j, X, Xj2)``: the component

        P(X) + P(X with slot j replaced by Xj2) -> P(X with Xj + Xj2 at j).

    ``None`` means identity components.  A 0-linear functor is a bare
    object choice: ``sources = ()`` and ``obj_map`` defined on ``()``.
    """

    sources: tuple
    target: object
    obj_map: Callable
    mor_map: Callable
    constraints: Callable | None = None

    @property
    def arity(self) -> int:
        return len(self.sources)

    def on_obj(self, X: tuple):
        return self.obj_map(tuple(X))

    def on_mor(self, fs: tuple):
        return self.mor_map(tuple(fs))

    def constraint(self, j: int, X: tuple, Xj2):
        if self.constraints is None:
            D = self.target
            return D.identity(D.sum_obj(self.on_obj(X), self.on_obj(replace_at(X, j, Xj2))))
        return self.constraints(j, tuple(X), Xj2)


def nlinear_from_smf(P: SymMonFunctor) -> NLinearFunctor:
    """A strictly unital symmetric monoidal functor as a 1-linear functor."""
    return NLinearFunctor((P.source,), P.target,
                          lambda X: P.on_obj(X[0]),
                          lambda fs: P.on_mor(fs[0]),
                          lambda j, X, X2: P.monoidal(X[0], X2))


def smf_from_nlinear(P: NLinearFunctor) -> SymMonFunctor:
    if P.arity != 1:
        raise ValueError("only 1-linear functors are symmetric monoidal functors")
    return SymMonFunctor(P.sources[0], P.target,
                         lambda x: P.on_obj((x,)),
                         lambda f: P.on_mor((f,)),
                         lambda x, y: P.constraint(1, (x,), y), strictly_unital=True)


def identity_nlinear(C) -> NLinearFunctor:
    return NLinearFunctor((C,), C, lambda X: X[0], lambda fs: fs[0])


def _windows(P: NLinearFunctor, objects) -> tuple[list, list, list]:
    """One object window per source, the tuples of window objects, and
    each source's window morphisms."""
    wins = [tuple(S.object_list()) for S in P.sources] if objects is None else \
        [tuple(w) for w in objects]
    return (wins, list(itertools.product(*wins)),
            [window_mors(S, w) for S, w in zip(P.sources, wins)])


def _compares_raw(C) -> bool:
    """Whether equal morphisms of ``C`` have one raw form, so that a memo
    may find them by ``==``.  The free category of a grid does not: its
    operations compare through the canonical key."""
    return not getattr(getattr(C, "base", None), "canonical_ops", False)


def window_images(P: NLinearFunctor, hom_lists: Sequence) -> Callable:
    """``P.on_mor`` that keeps, for the life of the returned function, the
    image of each tuple of window morphisms under their indices in
    :func:`permcat.reports.numbering` of ``hom_lists`` (one list per
    source), and maps every other tuple by value.  A source whose equal
    morphisms lack one raw form, the free category of a grid, is not
    numbered (see the memo rule in the README).  Its one caller is
    :func:`permcat.tensor.check_s_suite`."""
    numbered = [numbering(hs)[:2] if _compares_raw(S) else ((), {})
                for S, hs in zip(P.sources, hom_lists)]
    kept = cache(lambda *idx: P.on_mor(tuple(hs[i] for (hs, _), i in zip(numbered, idx))))

    def image(fs: tuple):
        idx = tuple(index.get(f) for (_, index), f in zip(numbered, fs))
        return P.on_mor(fs) if None in idx else kept(*idx)

    return image


def validate_nlinear(P: NLinearFunctor, objects: Sequence | None = None) -> CheckReport:
    """All five multilinearity axioms, exhaustively over object windows.

    ``objects`` is one window per source category.  Reports the
    strong/strict classification of the constraint components.  An inverse
    search for that classification which is beyond the bound leaves its
    component unclassified; one that is ill-typed is also a counted
    ``constraint-invertibility`` violation, the only instances of that check.

    Morphisms are mapped through ``P`` as given (see :func:`window_images`),
    each constraint component is kept under its raw objects, and everything
    else is compared, composed and summed by value (see the memo rule in
    the README).
    """
    D = P.target
    report = CheckReport("n-linear-functor")
    if P.arity == 0:
        choice = P.on_obj(())
        report.expect("object-choice", D.identity(choice) is not None, True, ("choice", choice))
        report.metadata["classification"] = "strict"
        return report
    wins, obj_tuples, hom_lists = _windows(P, objects)
    mor_tuples = list(itertools.product(*hom_lists))
    constraint = cache(P.constraint)

    for fs in mor_tuples:
        im = P.on_mor(fs)
        report.expect("functor-typing",
                      (D.src(im), D.tgt(im)),
                      (P.on_obj(tuple(S.src(f) for S, f in zip(P.sources, fs))),
                       P.on_obj(tuple(S.tgt(f) for S, f in zip(P.sources, fs)))),
                      ("typing", fs))
    for X in obj_tuples:
        ids = tuple(S.identity(x) for S, x in zip(P.sources, X))
        report.expect("functor-identities", P.on_mor(ids), D.identity(P.on_obj(X)), ("id", X))
    afters = [by_source(S.src, hs) for S, hs in zip(P.sources, hom_lists)]
    for fs in mor_tuples:
        for gs in itertools.product(*(after.get(S.tgt(f), ())
                                      for S, after, f in zip(P.sources, afters, fs))):
            report.evaluate("functor-composition",
                            lambda: P.on_mor(tuple(S.compose(g, f)
                                                   for S, f, g in zip(P.sources, fs, gs))),
                            lambda: D.compose(P.on_mor(gs), P.on_mor(fs)),
                            (gs, fs))

    all_strict = True
    all_strong = True
    for j in range(1, P.arity + 1):
        Cj = P.sources[j - 1]
        for X in obj_tuples:
            report.expect("unity", P.on_obj(replace_at(X, j, Cj.unit)), D.unit, ("object", j, X))
        for fs in mor_tuples:
            unit_id = Cj.identity(Cj.unit)
            report.expect("unity",
                          P.on_mor(replace_at(fs, j, unit_id)),
                          D.identity(D.unit), ("morphism", j, fs))
        for X in obj_tuples:
            for X2 in wins[j - 1]:
                c = constraint(j, X, X2)
                if not (c == D.identity(D.src(c))):
                    all_strict = False
                if report.attempt("constraint-invertibility", lambda: _is_invertible(D, c),
                                  (j, X, X2)) is False:
                    all_strong = False
                report.expect("constraint-typing",
                              (D.src(c), D.tgt(c)),
                              (D.sum_obj(P.on_obj(X), P.on_obj(replace_at(X, j, X2))),
                               P.on_obj(replace_at(X, j, Cj.sum_obj(X[j - 1], X2)))),
                              ("typing", j, X, X2))
                if any(x == P.sources[i].unit for i, x in enumerate(X)) or X2 == Cj.unit:
                    report.expect("constraint-unity", c, D.identity(D.src(c)), (j, X, X2))
        for fs in mor_tuples:
            for f2 in hom_lists[j - 1]:
                X = tuple(S.src(f) for S, f in zip(P.sources, fs))
                Y = tuple(S.tgt(f) for S, f in zip(P.sources, fs))
                report.evaluate(
                    "constraint-naturality",
                    lambda: D.compose(
                        constraint(j, Y, Cj.tgt(f2)),
                        D.sum_mor(P.on_mor(fs), P.on_mor(replace_at(fs, j, f2)))),
                    lambda: D.compose(
                        P.on_mor(replace_at(fs, j, Cj.sum_mor(fs[j - 1], f2))),
                        constraint(j, X, Cj.src(f2))),
                    (j, fs, f2))
        for X in obj_tuples:
            for X2, X3 in itertools.product(wins[j - 1], repeat=2):
                report.evaluate(
                    "constraint-associativity",
                    lambda: D.compose(
                        constraint(j, X, Cj.sum_obj(X2, X3)),
                        D.sum_mor(D.identity(P.on_obj(X)),
                                  constraint(j, replace_at(X, j, X2), X3))),
                    lambda: D.compose(
                        constraint(j, replace_at(X, j, Cj.sum_obj(X[j - 1], X2)), X3),
                        D.sum_mor(constraint(j, X, X2),
                                  D.identity(P.on_obj(replace_at(X, j, X3))))),
                    (j, X, X2, X3))
        for X in obj_tuples:
            for X2 in wins[j - 1]:
                swapped = replace_at(X, j, X2)
                report.evaluate(
                    "constraint-symmetry",
                    lambda: D.compose(
                        P.on_mor(tuple(
                            Cj.xi(X[j - 1], X2) if i == j - 1
                            else P.sources[i].identity(X[i])
                            for i in range(P.arity))),
                        constraint(j, X, X2)),
                    lambda: D.compose(
                        constraint(j, swapped, X[j - 1]),
                        D.xi(P.on_obj(X), P.on_obj(swapped))),
                    (j, X, X2))
    for j, k in itertools.permutations(range(1, P.arity + 1), 2):
        Cj, Ck = P.sources[j - 1], P.sources[k - 1]
        for X in obj_tuples:
            for X2 in wins[j - 1]:
                for X4 in wins[k - 1]:
                    Xj2 = replace_at(X, j, X2)
                    Xk4 = replace_at(X, k, X4)
                    Xboth = replace_at(Xj2, k, X4)

                    def path1():
                        jsum = replace_at(X, j, Cj.sum_obj(X[j - 1], X2))
                        return D.compose(
                            constraint(k, jsum, X4),
                            D.sum_mor(constraint(j, X, X2),
                                      constraint(j, Xk4, X2)))

                    def path2():
                        shuffle = D.sum_mor(
                            D.sum_mor(
                                D.identity(P.on_obj(X)),
                                D.xi(P.on_obj(Xj2), P.on_obj(Xk4))),
                            D.identity(P.on_obj(Xboth)))
                        ksum = replace_at(X, k, Ck.sum_obj(X[k - 1], X4))
                        return D.compose(
                            constraint(j, ksum, X2),
                            D.compose(
                                D.sum_mor(constraint(k, X, X4),
                                          constraint(k, Xj2, X4)),
                                shuffle))

                    report.evaluate("constraint-2x2", path1, path2, (j, k, X, X2, X4))

    report.metadata["classification"] = ("strict" if all_strict else
                                         "strong" if all_strong else "lax")
    return report


@dataclass(frozen=True)
class NLinearNat:
    source: NLinearFunctor
    target: NLinearFunctor
    components: Callable

    def at(self, X: tuple):
        return self.components(tuple(X))


def identity_nlinear_nat(P: NLinearFunctor) -> NLinearNat:
    return NLinearNat(P, P, lambda X: P.target.identity(P.on_obj(X)))


def validate_nlinear_nat(theta: NLinearNat, objects: Sequence | None = None) -> CheckReport:
    P, Q = theta.source, theta.target
    D = P.target
    report = CheckReport("n-linear-transformation")
    if P.arity == 0:
        t = theta.at(())
        report.expect("component-typing",
                      (D.src(t), D.tgt(t)), (P.on_obj(()), Q.on_obj(())), "component")
        return report
    wins, obj_tuples, hom_lists = _windows(P, objects)

    for X in obj_tuples:
        t = theta.at(X)
        report.expect("component-typing",
                      (D.src(t), D.tgt(t)), (P.on_obj(X), Q.on_obj(X)), ("component", X))
        if any(x == P.sources[i].unit for i, x in enumerate(X)):
            report.expect("unity", t, D.identity(D.unit), ("unit-component", X))
    for fs in itertools.product(*hom_lists):
        X = tuple(S.src(f) for S, f in zip(P.sources, fs))
        Y = tuple(S.tgt(f) for S, f in zip(P.sources, fs))
        report.evaluate("naturality",
                        lambda: D.compose(theta.at(Y), P.on_mor(fs)),
                        lambda: D.compose(Q.on_mor(fs), theta.at(X)), (fs,))
    for j in range(1, P.arity + 1):
        Cj = P.sources[j - 1]
        for X in obj_tuples:
            for X2 in wins[j - 1]:
                report.evaluate(
                    "constraint-compatibility",
                    lambda: D.compose(theta.at(replace_at(X, j, Cj.sum_obj(X[j - 1], X2))),
                                      P.constraint(j, X, X2)),
                    lambda: D.compose(Q.constraint(j, X, X2),
                                      D.sum_mor(theta.at(X), theta.at(replace_at(X, j, X2)))),
                    (j, X, X2))
    return report


def sigma_tuple(sigma: Permutation, A: tuple) -> tuple:
    """The tuple whose slot ``sigma(j)`` holds ``A_j``."""
    out = [None] * len(A)
    for j, a in enumerate(A, start=1):
        out[sigma(j) - 1] = a
    return tuple(out)


def nlinear_sigma_act(P: NLinearFunctor, sigma: Permutation) -> NLinearFunctor:
    """The right symmetric group action: precompose with the product
    shuffle; the j-th constraint is the sigma(j)-th of ``P`` reindexed."""
    if sigma.degree != P.arity:
        raise ComposabilityError(f"degree {sigma.degree} on arity {P.arity}")
    sources = perm_act(sigma, P.sources)

    def constraint(j, A, A2):
        return P.constraint(sigma(j), sigma_tuple(sigma, A), A2)

    return NLinearFunctor(sources, P.target,
                          lambda A: P.on_obj(sigma_tuple(sigma, A)),
                          lambda fs: P.on_mor(sigma_tuple(sigma, fs)),
                          constraint)


def _chunks(W: tuple, arities: Sequence[int]) -> list[tuple]:
    out = []
    pos = 0
    for k in arities:
        out.append(tuple(W[pos:pos + k]))
        pos += k
    return out


def nlinear_gamma(P: NLinearFunctor, Ps: Sequence[NLinearFunctor]) -> NLinearFunctor:
    """Multicategorical composition of multilinear functors."""
    Ps = tuple(Ps)
    if len(Ps) != P.arity:
        raise ComposabilityError(f"{len(Ps)} inner functors for arity {P.arity}")
    arities = [Q.arity for Q in Ps]
    sources = tuple(S for Q in Ps for S in Q.sources)
    D = P.target

    def on_obj(W):
        return P.on_obj(tuple(Q.on_obj(c) for Q, c in zip(Ps, _chunks(W, arities))))

    def on_mor(fs):
        return P.on_mor(tuple(Q.on_mor(c) for Q, c in zip(Ps, _chunks(fs, arities))))

    def locate(ell):
        pos = 0
        for j, Q in enumerate(Ps, start=1):
            if ell <= pos + Q.arity:
                return j, ell - pos
            pos += Q.arity
        raise ValueError(f"slot {ell} out of range")

    def constraint(ell, W, W2):
        j, i = locate(ell)
        Q = Ps[j - 1]
        chunks = _chunks(W, arities)
        PW = tuple(Qq.on_obj(c) for Qq, c in zip(Ps, chunks))
        inner = Q.constraint(i, chunks[j - 1], W2)
        outer = P.constraint(j, PW, Q.on_obj(replace_at(chunks[j - 1], i, W2)))
        whisker = P.on_mor(tuple(
            inner if a == j - 1 else P.sources[a].identity(PW[a])
            for a in range(P.arity)))
        return D.compose(whisker, outer)

    return NLinearFunctor(sources, D, on_obj, on_mor,
                          None if all(Q.constraints is None for Q in Ps)
                          and P.constraints is None else constraint)


def nlinear_gamma_nat(theta: NLinearNat, thetas: Sequence[NLinearNat]) -> NLinearNat:
    """Composite transformation: whisker the inner components, then the
    outer component at the inner targets."""
    thetas = tuple(thetas)
    P, Ps = theta.source, tuple(t.source for t in thetas)
    Q, Qs = theta.target, tuple(t.target for t in thetas)
    arities = [q.arity for q in Ps]
    D = P.target

    def component(W):
        chunks = _chunks(W, arities)
        first = P.on_mor(tuple(t.at(c) for t, c in zip(thetas, chunks)))
        second = theta.at(tuple(q.on_obj(c) for q, c in zip(Qs, chunks)))
        return D.compose(second, first)

    return NLinearNat(nlinear_gamma(P, Ps), nlinear_gamma(Q, Qs), component)
