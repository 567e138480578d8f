"""Validators for ring-like structures on a permutative substrate.

Each validator evaluates both legs of every displayed diagram on every
object tuple; nothing is normalized or inferred.  Violations carry the
witness tuple.  Tightness (invertibility of all factorization morphisms)
is reported in the metadata, not as an axiom; an inverse search that
raises is an ill-typed ``factorization-invertibility`` violation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import MalformedStructureError
from .permcats import FinPermCat, _is_invertible, by_source, validate_permcat
from .reports import CheckReport


@dataclass(frozen=True)
class StrictProduct:
    """A strict monoidal structure presented by total tables."""

    unit: str
    obj_table: Mapping     # (x, y) -> object
    mor_table: Mapping     # (f, g) -> morphism

    def on_obj(self, x, y):
        try:
            return self.obj_table[x, y]
        except KeyError:
            raise MalformedStructureError(f"missing product object ({x!r}, {y!r})")

    def on_mor(self, f, g):
        try:
            return self.mor_table[f, g]
        except KeyError:
            raise MalformedStructureError(f"missing product morphism ({f!r}, {g!r})")


@dataclass(frozen=True)
class RingCatData:
    name: str
    additive: FinPermCat
    product: StrictProduct
    left_fact: Mapping      # (a, b, c) -> (a@c)+(b@c) -> (a+b)@c
    right_fact: Mapping     # (a, b, c) -> (a@b)+(a@c) -> a@(b+c)


@dataclass(frozen=True)
class BipermData:
    ring: RingCatData
    mult_symmetry: Mapping  # (a, b) -> a@b -> b@a


@dataclass(frozen=True)
class BraidedRingData:
    ring: RingCatData
    braiding: Mapping       # (a, b) -> a@b -> b@a


@dataclass(frozen=True)
class NFoldData:
    name: str
    category: FinPermCat    # only the category part is used
    products: tuple         # one StrictProduct per index, shared unit
    exchanges: Mapping      # (i, j, a, b, c, d) -> morphism, i < j


@dataclass(frozen=True)
class EnData:
    name: str
    additive: FinPermCat
    products: tuple
    left_facts: tuple       # one table per index
    right_facts: tuple
    exchanges: Mapping


def _validate_strict_monoidal(C: FinPermCat, P: StrictProduct) -> CheckReport:
    report = CheckReport("strict-monoidal")
    objs = C.objects
    mors = C.morphisms()
    for x in objs:
        report.expect("multiplicative-unity", P.on_obj(P.unit, x), x, ("left", x))
        report.expect("multiplicative-unity", P.on_obj(x, P.unit), x, ("right", x))
    for x, y, z in itertools.product(objs, repeat=3):
        report.expect("multiplicative-associativity",
                      P.on_obj(P.on_obj(x, y), z), P.on_obj(x, P.on_obj(y, z)),
                      (x, y, z))
    for f in mors:
        e_id = C.identity(P.unit)
        report.expect("multiplicative-unity", P.on_mor(e_id, f), f, ("left", f))
        report.expect("multiplicative-unity", P.on_mor(f, e_id), f, ("right", f))
    for x, y in itertools.product(objs, repeat=2):
        report.expect("multiplicative-functoriality",
                      P.on_mor(C.identity(x), C.identity(y)),
                      C.identity(P.on_obj(x, y)), ("identities", x, y))
    after = by_source(C.src, mors)
    for f, g in itertools.product(mors, repeat=2):
        fg = P.on_mor(f, g)
        report.expect("multiplicative-typing",
                      (C.src(fg), C.tgt(fg)),
                      (P.on_obj(C.src(f), C.src(g)), P.on_obj(C.tgt(f), C.tgt(g))),
                      (f, g))
        for f2, g2 in itertools.product(after.get(C.tgt(f), ()), after.get(C.tgt(g), ())):
            report.evaluate("multiplicative-functoriality",
                            lambda: P.on_mor(C.compose(f2, f), C.compose(g2, g)),
                            lambda: C.compose(P.on_mor(f2, g2), fg), (f2, f, g2, g))
    for f, g, h in itertools.product(mors, repeat=3):
        report.expect("multiplicative-associativity",
                      P.on_mor(P.on_mor(f, g), h), P.on_mor(f, P.on_mor(g, h)),
                      ("morphisms", f, g, h))
    return report


def validate_ring_category(R: RingCatData) -> CheckReport:
    report = CheckReport(R.name)
    C, P = R.additive, R.product
    zero = C.unit
    one = P.unit
    objs = C.objects
    mors = C.morphisms()
    report.absorb(validate_permcat(C), "additive-")
    report.absorb(_validate_strict_monoidal(C, P))

    for a, b, c in itertools.product(objs, repeat=3):
        dl, dr = R.left_fact[a, b, c], R.right_fact[a, b, c]
        report.expect("factorization-typing",
                      (C.src(dl), C.tgt(dl)),
                      (C.sum_obj(P.on_obj(a, c), P.on_obj(b, c)),
                       P.on_obj(C.sum_obj(a, b), c)), ("left", a, b, c))
        report.expect("factorization-typing",
                      (C.src(dr), C.tgt(dr)),
                      (C.sum_obj(P.on_obj(a, b), P.on_obj(a, c)),
                       P.on_obj(a, C.sum_obj(b, c))), ("right", a, b, c))

    def dl(a, b, c):
        return R.left_fact[a, b, c]

    def dr(a, b, c):
        return R.right_fact[a, b, c]

    for f, g, h in itertools.product(mors, repeat=3):
        A, B, Cc = C.src(f), C.src(g), C.src(h)
        A2, B2, C2 = C.tgt(f), C.tgt(g), C.tgt(h)
        report.evaluate("factorization-naturality",
                        lambda: C.compose(dl(A2, B2, C2),
                                          C.sum_mor(P.on_mor(f, h), P.on_mor(g, h))),
                        lambda: C.compose(P.on_mor(C.sum_mor(f, g), h), dl(A, B, Cc)),
                        ("left", f, g, h))
        report.evaluate("factorization-naturality",
                        lambda: C.compose(dr(A2, B2, C2),
                                          C.sum_mor(P.on_mor(f, g), P.on_mor(f, h))),
                        lambda: C.compose(P.on_mor(f, C.sum_mor(g, h)), dr(A, B, Cc)),
                        ("right", f, g, h))

    for a in objs:
        report.expect("multiplicative-zero", P.on_obj(a, zero), zero, ("right", a))
        report.expect("multiplicative-zero", P.on_obj(zero, a), zero, ("left", a))
    for f in mors:
        id0 = C.identity(zero)
        report.expect("multiplicative-zero", P.on_mor(f, id0), id0, ("right", f))
        report.expect("multiplicative-zero", P.on_mor(id0, f), id0, ("left", f))

    for b, c in itertools.product(objs, repeat=2):
        report.expect("zero-factorization",
                      dl(zero, b, c), C.identity(P.on_obj(b, c)), ("l-zero-first", b, c))
        report.expect("zero-factorization",
                      dr(zero, b, c), C.identity(zero), ("r-zero-first", b, c))
        report.expect("zero-factorization",
                      dl(b, zero, c), C.identity(P.on_obj(b, c)), ("l-zero-mid", b, c))
        report.expect("zero-factorization",
                      dr(b, zero, c), C.identity(P.on_obj(b, c)), ("r-zero-mid", b, c))
        report.expect("zero-factorization",
                      dl(b, c, zero), C.identity(zero), ("l-zero-last", b, c))
        report.expect("zero-factorization",
                      dr(b, c, zero), C.identity(P.on_obj(b, c)), ("r-zero-last", b, c))

    for a, b in itertools.product(objs, repeat=2):
        report.expect("unit-factorization",
                      dl(a, b, one), C.identity(C.sum_obj(a, b)), ("left", a, b))
        report.expect("unit-factorization",
                      dr(one, a, b), C.identity(C.sum_obj(a, b)), ("right", a, b))

    for a, b, c in itertools.product(objs, repeat=3):
        report.evaluate("symmetry-factorization",
                        lambda: C.compose(dl(b, a, c), C.xi(P.on_obj(a, c), P.on_obj(b, c))),
                        lambda: C.compose(P.on_mor(C.xi(a, b), C.identity(c)), dl(a, b, c)),
                        ("left", a, b, c))
        report.evaluate("symmetry-factorization",
                        lambda: C.compose(dr(a, c, b), C.xi(P.on_obj(a, b), P.on_obj(a, c))),
                        lambda: C.compose(P.on_mor(C.identity(a), C.xi(b, c)), dr(a, b, c)),
                        ("right", a, b, c))

    for a, a2, a3, b in itertools.product(objs, repeat=4):
        lhs = lambda: C.compose(dl(C.sum_obj(a, a2), a3, b),
                                C.sum_mor(dl(a, a2, b), C.identity(P.on_obj(a3, b))))
        rhs = lambda: C.compose(dl(a, C.sum_obj(a2, a3), b),
                                C.sum_mor(C.identity(P.on_obj(a, b)), dl(a2, a3, b)))
        report.evaluate("internal-factorization", lhs, rhs, ("left", a, a2, a3, b))
        top = lambda: C.compose(dr(a, C.sum_obj(b, a2), a3),
                                C.sum_mor(dr(a, b, a2), C.identity(P.on_obj(a, a3))))
        bottom = lambda: C.compose(dr(a, b, C.sum_obj(a2, a3)),
                                   C.sum_mor(C.identity(P.on_obj(a, b)), dr(a, a2, a3)))
        report.evaluate("internal-factorization", top, bottom, ("right", a, b, a2, a3))

    for a, a2, b, c in itertools.product(objs, repeat=4):
        report.evaluate(
            "external-factorization",
            lambda: dl(a, a2, P.on_obj(b, c)),
            lambda: C.compose(P.on_mor(dl(a, a2, b), C.identity(c)),
                              dl(P.on_obj(a, b), P.on_obj(a2, b), c)),
            ("first", a, a2, b, c))
        report.evaluate(
            "external-factorization",
            lambda: C.compose(P.on_mor(dr(a, b, a2), C.identity(c)),
                              dl(P.on_obj(a, b), P.on_obj(a, a2), c)),
            lambda: C.compose(P.on_mor(C.identity(a), dl(b, a2, c)),
                              dr(a, P.on_obj(b, c), P.on_obj(a2, c))),
            ("second", a, b, a2, c))
        report.evaluate(
            "external-factorization",
            lambda: dr(P.on_obj(a, b), c, a2),
            lambda: C.compose(P.on_mor(C.identity(a), dr(b, c, a2)),
                              dr(a, P.on_obj(b, c), P.on_obj(b, a2))),
            ("third", a, b, c, a2))

    for a, a2, b, b2 in itertools.product(objs, repeat=4):
        path1 = lambda: C.compose(dl(a, a2, C.sum_obj(b, b2)),
                                  C.sum_mor(dr(a, b, b2), dr(a2, b, b2)))
        shuffle = C.sum_mor(
            C.sum_mor(C.identity(P.on_obj(a, b)),
                      C.xi(P.on_obj(a, b2), P.on_obj(a2, b))),
            C.identity(P.on_obj(a2, b2)))
        path2 = lambda: C.compose(dr(C.sum_obj(a, a2), b, b2),
                                  C.compose(C.sum_mor(dl(a, a2, b), dl(a, a2, b2)), shuffle))
        report.evaluate("2x2-factorization", path1, path2, (a, a2, b, b2))

    tight = True
    for a, b, c in itertools.product(objs, repeat=3):
        if any(report.attempt("factorization-invertibility",
                              lambda: _is_invertible(C, d(a, b, c)), (side, a, b, c)) is False
               for side, d in (("left", dl), ("right", dr))):
            tight = False
    report.metadata["tight"] = tight
    return report


def _mult_as_permcat(R: RingCatData, symmetry: Mapping) -> FinPermCat:
    C, P = R.additive, R.product
    return FinPermCat(f"{R.name}-multiplicative", C.objects, C.mor_src, C.mor_tgt,
                      C.identities, C.composition, P.unit, P.obj_table, P.mor_table,
                      symmetry)


def validate_bipermutative(B: BipermData) -> CheckReport:
    R = B.ring
    report = validate_ring_category(R)
    report.structure = f"{R.name}-bipermutative"
    C, P = R.additive, R.product
    zero = C.unit
    report.absorb(validate_permcat(_mult_as_permcat(R, B.mult_symmetry)),
                  "multiplicative-")
    for a in C.objects:
        report.expect("zero-symmetry", B.mult_symmetry[a, zero], C.identity(zero), (a,))
    for a, b, c in itertools.product(C.objects, repeat=3):
        xt = B.mult_symmetry.__getitem__
        report.evaluate("multiplicative-symmetry-factorization",
                        lambda: C.compose(xt((C.sum_obj(a, b), c)), R.left_fact[a, b, c]),
                        lambda: C.compose(R.right_fact[c, a, b],
                                          C.sum_mor(xt((a, c)), xt((b, c)))),
                        (a, b, c))
    return report


def validate_braided_ring(B: BraidedRingData) -> CheckReport:
    R = B.ring
    report = validate_ring_category(R)
    report.structure = f"{R.name}-braided"
    C, P = R.additive, R.product
    zero = C.unit
    one = P.unit
    objs = C.objects
    mors = C.morphisms()

    def beta(x, y):
        return B.braiding[x, y]

    for x, y in itertools.product(objs, repeat=2):
        bxy = beta(x, y)
        report.expect("braiding-typing",
                      (C.src(bxy), C.tgt(bxy)),
                      (P.on_obj(x, y), P.on_obj(y, x)), (x, y))
        invertible = report.attempt("braiding-invertible",
                                    lambda: _is_invertible(C, bxy), (x, y))
        if invertible is not None:
            report.expect("braiding-invertible", invertible, True, (x, y))
    for f, g in itertools.product(mors, repeat=2):
        report.evaluate("braiding-naturality",
                        lambda: C.compose(beta(C.tgt(f), C.tgt(g)), P.on_mor(f, g)),
                        lambda: C.compose(P.on_mor(g, f), beta(C.src(f), C.src(g))), (f, g))
    for x in objs:
        report.expect("braiding-unity", beta(x, one), C.identity(x), ("right", x))
        report.expect("braiding-unity", beta(one, x), C.identity(x), ("left", x))
    for x, y, z in itertools.product(objs, repeat=3):
        report.evaluate(
            "braiding-hexagon",
            lambda: beta(x, P.on_obj(y, z)),
            lambda: C.compose(P.on_mor(C.identity(y), beta(x, z)),
                              P.on_mor(beta(x, y), C.identity(z))), ("first", x, y, z))
        report.evaluate(
            "braiding-hexagon",
            lambda: beta(P.on_obj(x, y), z),
            lambda: C.compose(P.on_mor(beta(x, z), C.identity(y)),
                              P.on_mor(C.identity(x), beta(y, z))), ("second", x, y, z))
    for a in objs:
        report.expect("zero-braiding", beta(a, zero), C.identity(zero), ("right", a))
        report.expect("zero-braiding", beta(zero, a), C.identity(zero), ("left", a))
    for a, b, c in itertools.product(objs, repeat=3):
        first = lambda: C.compose(R.right_fact[c, a, b], C.sum_mor(beta(a, c), beta(b, c)))
        report.evaluate("braiding-factorization",
                        first,
                        lambda: C.compose(beta(C.sum_obj(a, b), c), R.left_fact[a, b, c]),
                        ("upper", a, b, c))
        second = lambda: C.compose(R.left_fact[a, b, c], C.sum_mor(beta(c, a), beta(c, b)))
        report.evaluate("braiding-factorization",
                        second,
                        lambda: C.compose(beta(c, C.sum_obj(a, b)), R.right_fact[c, a, b]),
                        ("lower", a, b, c))
    return report


def validate_nfold_monoidal(D: NFoldData) -> CheckReport:
    report = CheckReport(D.name)
    C = D.category
    n = len(D.products)
    if n < 1:
        report.violation("multiplicative-strict-monoidal", "no products")
        return report
    one = D.products[0].unit
    for i, P in enumerate(D.products, start=1):
        report.expect("shared-unit", P.unit, one, ("unit", i))
        report.absorb(_validate_strict_monoidal(C, P), f"product{i}-")

    def eta(i, j, a, b, c, d):
        return D.exchanges[i, j, a, b, c, d]

    objs = C.objects
    mors = C.morphisms()
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i, j in pairs:
        Pi, Pj = D.products[i - 1], D.products[j - 1]
        for a, b, c, d in itertools.product(objs, repeat=4):
            h = D.exchanges[i, j, a, b, c, d]
            report.expect("exchange-typing",
                          (C.src(h), C.tgt(h)),
                          (Pi.on_obj(Pj.on_obj(a, b), Pj.on_obj(c, d)),
                           Pj.on_obj(Pi.on_obj(a, c), Pi.on_obj(b, d))),
                          (i, j, a, b, c, d))
        for fs in itertools.product(mors, repeat=4):
            f, g, u, v = fs
            lhs = lambda: C.compose(
                eta(i, j, C.tgt(f), C.tgt(g), C.tgt(u), C.tgt(v)),
                Pi.on_mor(Pj.on_mor(f, g), Pj.on_mor(u, v)))
            rhs = lambda: C.compose(
                Pj.on_mor(Pi.on_mor(f, u), Pi.on_mor(g, v)),
                eta(i, j, C.src(f), C.src(g), C.src(u), C.src(v)))
            report.evaluate("exchange-naturality", lhs, rhs, (i, j) + fs)
        for a, b in itertools.product(objs, repeat=2):
            report.expect("internal-unity",
                          eta(i, j, a, b, one, one),
                          C.identity(Pj.on_obj(a, b)), ("first", i, j, a, b))
            report.expect("internal-unity",
                          eta(i, j, one, one, a, b),
                          C.identity(Pj.on_obj(a, b)), ("second", i, j, a, b))
            report.expect("external-unity",
                          eta(i, j, a, one, b, one),
                          C.identity(Pi.on_obj(a, b)), ("first", i, j, a, b))
            report.expect("external-unity",
                          eta(i, j, one, a, one, b),
                          C.identity(Pi.on_obj(a, b)), ("second", i, j, a, b))
        for args in itertools.product(objs, repeat=6):
            a, a2, b, b2, c, c2 = args
            lhs = lambda: C.compose(
                eta(i, j, a, a2, Pi.on_obj(b, c), Pi.on_obj(b2, c2)),
                Pi.on_mor(C.identity(Pj.on_obj(a, a2)), eta(i, j, b, b2, c, c2)))
            rhs = lambda: C.compose(
                eta(i, j, Pi.on_obj(a, b), Pi.on_obj(a2, b2), c, c2),
                Pi.on_mor(eta(i, j, a, a2, b, b2), C.identity(Pj.on_obj(c, c2))))
            report.evaluate("internal-associativity", lhs, rhs, (i, j) + args)
            a1, a2_, a3, b1, b2_, b3 = args
            lhs = lambda: C.compose(
                Pj.on_mor(C.identity(Pi.on_obj(a1, b1)),
                          eta(i, j, a2_, a3, b2_, b3)),
                eta(i, j, a1, Pj.on_obj(a2_, a3), b1, Pj.on_obj(b2_, b3)))
            rhs = lambda: C.compose(
                Pj.on_mor(eta(i, j, a1, a2_, b1, b2_),
                          C.identity(Pi.on_obj(a3, b3))),
                eta(i, j, Pj.on_obj(a1, a2_), a3, Pj.on_obj(b1, b2_), b3))
            report.evaluate("external-associativity", lhs, rhs, (i, j) + args)
    triples = [(i, j, k) for i in range(1, n + 1)
               for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    for i, j, k in triples:
        Pi, Pj, Pk = D.products[i - 1], D.products[j - 1], D.products[k - 1]
        for args in itertools.product(objs, repeat=8):
            a, a2, b, b2, c, c2, d, d2 = args
            left = lambda: C.compose(
                Pk.on_mor(eta(i, j, a, b, c, d), eta(i, j, a2, b2, c2, d2)),
                C.compose(
                    eta(i, k, Pj.on_obj(a, b), Pj.on_obj(a2, b2),
                        Pj.on_obj(c, d), Pj.on_obj(c2, d2)),
                    Pi.on_mor(eta(j, k, a, a2, b, b2), eta(j, k, c, c2, d, d2))))
            right = lambda: C.compose(
                eta(j, k, Pi.on_obj(a, c), Pi.on_obj(a2, c2),
                    Pi.on_obj(b, d), Pi.on_obj(b2, d2)),
                C.compose(
                    Pj.on_mor(eta(i, k, a, a2, c, c2), eta(i, k, b, b2, d, d2)),
                    eta(i, j, Pk.on_obj(a, a2), Pk.on_obj(b, b2),
                        Pk.on_obj(c, c2), Pk.on_obj(d, d2))))
            report.evaluate("triple-exchange", left, right, (i, j, k) + args)
    return report


def validate_en_monoidal(E: EnData) -> CheckReport:
    report = CheckReport(E.name)
    C = E.additive
    n = len(E.products)
    tight = True
    for i in range(1, n + 1):
        ring = RingCatData(f"{E.name}[{i}]", C, E.products[i - 1],
                           E.left_facts[i - 1], E.right_facts[i - 1])
        sub = validate_ring_category(ring)
        report.absorb(sub, f"ring{i}-")
        tight = tight and sub.metadata.get("tight", False)
    nfold = NFoldData(f"{E.name}-nfold", C, E.products, E.exchanges)
    report.absorb(validate_nfold_monoidal(nfold))
    zero = C.unit
    objs = C.objects
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i, j in pairs:
        for args in itertools.product(objs, repeat=4):
            if zero not in args:
                continue
            report.expect("zero-exchange",
                          E.exchanges[(i, j) + args], C.identity(zero),
                          (i, j) + args)
    for i, j in pairs:
        Pi, Pj = E.products[i - 1], E.products[j - 1]
        dli = lambda a, b, c: E.left_facts[i - 1][a, b, c]
        dri = lambda a, b, c: E.right_facts[i - 1][a, b, c]
        dlj = lambda a, b, c: E.left_facts[j - 1][a, b, c]
        drj = lambda a, b, c: E.right_facts[j - 1][a, b, c]
        eta = lambda a, b, c, d: E.exchanges[i, j, a, b, c, d]
        for a, a2, b, c, d in itertools.product(objs, repeat=5):
            lhs = lambda: C.compose(
                Pj.on_mor(dli(a, a2, c), C.identity(Pi.on_obj(b, d))),
                C.compose(dlj(Pi.on_obj(a, c), Pi.on_obj(a2, c), Pi.on_obj(b, d)),
                          C.sum_mor(eta(a, b, c, d), eta(a2, b, c, d))))
            rhs = lambda: C.compose(
                eta(C.sum_obj(a, a2), b, c, d),
                C.compose(Pi.on_mor(dlj(a, a2, b), C.identity(Pj.on_obj(c, d))),
                          dli(Pj.on_obj(a, b), Pj.on_obj(a2, b), Pj.on_obj(c, d))))
            report.evaluate("exchange-factorization", lhs, rhs,
                            ("first", i, j, a, a2, b, c, d))
            lhs = lambda: C.compose(
                Pj.on_mor(C.identity(Pi.on_obj(a, c)), dli(b, a2, d)),
                C.compose(drj(Pi.on_obj(a, c), Pi.on_obj(b, d), Pi.on_obj(a2, d)),
                          C.sum_mor(eta(a, b, c, d), eta(a, a2, c, d))))
            rhs = lambda: C.compose(
                eta(a, C.sum_obj(b, a2), c, d),
                C.compose(Pi.on_mor(drj(a, b, a2), C.identity(Pj.on_obj(c, d))),
                          dli(Pj.on_obj(a, b), Pj.on_obj(a, a2), Pj.on_obj(c, d))))
            report.evaluate("exchange-factorization", lhs, rhs,
                            ("second", i, j, a, b, a2, c, d))
            lhs = lambda: C.compose(
                Pj.on_mor(dri(a, c, a2), C.identity(Pi.on_obj(b, d))),
                C.compose(dlj(Pi.on_obj(a, c), Pi.on_obj(a, a2), Pi.on_obj(b, d)),
                          C.sum_mor(eta(a, b, c, d), eta(a, b, a2, d))))
            rhs = lambda: C.compose(
                eta(a, b, C.sum_obj(c, a2), d),
                C.compose(Pi.on_mor(C.identity(Pj.on_obj(a, b)), dlj(c, a2, d)),
                          dri(Pj.on_obj(a, b), Pj.on_obj(c, d), Pj.on_obj(a2, d))))
            report.evaluate("exchange-factorization", lhs, rhs,
                            ("third", i, j, a, b, c, a2, d))
            lhs = lambda: C.compose(
                Pj.on_mor(C.identity(Pi.on_obj(a, c)), dri(b, d, a2)),
                C.compose(drj(Pi.on_obj(a, c), Pi.on_obj(b, d), Pi.on_obj(b, a2)),
                          C.sum_mor(eta(a, b, c, d), eta(a, b, c, a2))))
            rhs = lambda: C.compose(
                eta(a, b, c, C.sum_obj(d, a2)),
                C.compose(Pi.on_mor(C.identity(Pj.on_obj(a, b)), drj(c, d, a2)),
                          dri(Pj.on_obj(a, b), Pj.on_obj(c, d), Pj.on_obj(c, a2))))
            report.evaluate("exchange-factorization", lhs, rhs,
                            ("fourth", i, j, a, b, c, d, a2))
    report.metadata["tight"] = tight
    return report
