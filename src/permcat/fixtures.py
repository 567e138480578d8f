"""Small finite structures used by tests, the CLI, and shipped documents.

Everything here is deterministic and exhaustively checkable.  The sign
structures (homs {+1,-1}) exist because discrete fixtures have singleton
homs: a table entry can only be redirected, i.e. a validator can only be
mutation-tested, where some hom has at least two elements.
"""
from __future__ import annotations

import itertools

from .multicat import FinMulticat, gamma_domain
from .permcats import FinPermCat, NLinearFunctor
from .perms import all_perms

POS = "+"
NEG = "-"


def _sign_mul(*signs: str) -> str:
    return POS if signs.count(NEG) % 2 == 0 else NEG


def sign_operad(max_arity: int = 3, nullary: bool = True) -> FinMulticat:
    """One object; two operations (a sign) in each arity; composition
    multiplies signs; the symmetric action is trivial.

    ``nullary=False`` drops the arity-0 operations: useful as a tensor
    factor, because nullary operations of a tensor product collapse
    across signs (the interchange relation identifies them), which rules
    out sign-separating multifunctors otherwise.
    """
    obj = "*"
    low = 0 if nullary else 1
    operations = {}
    sigma = {}
    for n in range(low, max_arity + 1):
        for s in (POS, NEG):
            op = f"{s}{n}"
            operations[op] = (obj, (obj,) * n)
            for perm in all_perms(n):
                sigma[op, perm.images] = op
    gamma = {(outer, inners): f"{_sign_mul(outer[0], *(i[0] for i in inners))}"
                              f"{sum(len(operations[i][1]) for i in inners)}"
             for outer, inners in gamma_domain(operations, max_arity)}
    name = "sign-operad" if nullary else "sign-operad-pos"
    return FinMulticat(name, (obj,), max_arity,
                       operations, {obj: f"{POS}1"}, sigma, gamma)


def swap_operad() -> FinMulticat:
    """One object; one unary unit and two binary operations exchanged by
    the transposition.  The smallest fixture with a nontrivial symmetric
    group action."""
    obj = "*"
    operations = {"u": (obj, (obj,)), "p": (obj, (obj, obj)), "q": (obj, (obj, obj))}
    sigma = {
        ("u", (1,)): "u",
        ("p", (1, 2)): "p", ("p", (2, 1)): "q",
        ("q", (1, 2)): "q", ("q", (2, 1)): "p",
    }
    gamma = {
        ("u", ("u",)): "u", ("u", ("p",)): "p", ("u", ("q",)): "q",
        ("p", ("u", "u")): "p", ("q", ("u", "u")): "q",
    }
    return FinMulticat("swap-operad", (obj,), 2, operations, {obj: "u"}, sigma, gamma)


def two_object_multicat() -> FinMulticat:
    """Two objects with a single binary operation (a; (a, b)) and its
    transpose; exercises mixed-object fibers in the free construction."""
    operations = {
        "ua": ("a", ("a",)), "ub": ("b", ("b",)),
        "m": ("a", ("a", "b")), "mT": ("a", ("b", "a")),
    }
    sigma = {
        ("ua", (1,)): "ua", ("ub", (1,)): "ub",
        ("m", (1, 2)): "m", ("m", (2, 1)): "mT",
        ("mT", (1, 2)): "mT", ("mT", (2, 1)): "m",
    }
    gamma = {
        ("ua", ("ua",)): "ua", ("ub", ("ub",)): "ub",
        ("ua", ("m",)): "m", ("ua", ("mT",)): "mT",
        ("m", ("ua", "ub")): "m", ("mT", ("ub", "ua")): "mT",
    }
    return FinMulticat("two-object", ("a", "b"), 2, operations,
                       {"a": "ua", "b": "ub"}, sigma, gamma)


def discrete_permcat(name: str, elements: tuple[str, ...], add, unit: str) -> FinPermCat:
    """The discrete permutative category of a finite commutative monoid:
    only identity morphisms, sum given by the monoid, trivial symmetry."""
    ids = {x: f"id:{x}" for x in elements}
    mor_src = {ids[x]: x for x in elements}
    mor_tgt = dict(mor_src)
    composition = {(ids[x], ids[x]): ids[x] for x in elements}
    sums = {(x, y): add(x, y) for x in elements for y in elements}
    mor_sums = {(ids[x], ids[y]): ids[add(x, y)] for x in elements for y in elements}
    symmetries = {(x, y): ids[add(x, y)] for x in elements for y in elements}
    return FinPermCat(name, elements, mor_src, mor_tgt, ids, composition,
                      unit, sums, mor_sums, symmetries)


def bool_or_permcat() -> FinPermCat:
    return discrete_permcat("bool-or", ("0", "1"),
                            lambda x, y: "1" if "1" in (x, y) else "0", "0")


def zmod_permcat(n: int) -> FinPermCat:
    elements = tuple(str(i) for i in range(n))
    return discrete_permcat(f"zmod{n}", elements,
                            lambda x, y: str((int(x) + int(y)) % n), "0")


def _sign_mor(x: str, s: str) -> str:
    return f"{x}:{s}"


def zmod_sign_permcat(n: int, name: str | None = None) -> FinPermCat:
    """Objects Z/n with hom(x, x) = {+1, -1}; sum adds objects mod n and
    multiplies signs.  Valid for even ``n`` (reduction mod n must preserve
    the parity that the sign bookkeeping of the ring fixtures uses)."""
    objects = tuple(str(i) for i in range(n))
    mor_src = {}
    mor_tgt = {}
    for x in objects:
        for s in (POS, NEG):
            mor_src[_sign_mor(x, s)] = x
            mor_tgt[_sign_mor(x, s)] = x
    ids = {x: _sign_mor(x, POS) for x in objects}
    composition = {}
    for x in objects:
        for s, t in itertools.product((POS, NEG), repeat=2):
            composition[_sign_mor(x, s), _sign_mor(x, t)] = _sign_mor(x, _sign_mul(s, t))
    sums = {(x, y): str((int(x) + int(y)) % n) for x in objects for y in objects}
    mor_sums = {}
    for x, y in itertools.product(objects, repeat=2):
        for s, t in itertools.product((POS, NEG), repeat=2):
            mor_sums[_sign_mor(x, s), _sign_mor(y, t)] = _sign_mor(
                sums[x, y], _sign_mul(s, t))
    symmetries = {(x, y): ids[sums[x, y]] for x in objects for y in objects}
    return FinPermCat(name or f"sign{n}", objects, mor_src, mor_tgt, ids,
                      composition, "0", sums, mor_sums, symmetries)


def sign_permcat() -> FinPermCat:
    """Objects Z/2 with hom(x, x) = {+1, -1}: the smallest non-discrete
    permutative category."""
    return zmod_sign_permcat(2, name="sign")


def super_sign_permcat() -> FinPermCat:
    """The sign category with the anticommutative symmetry
    ``xi(1, 1) = -1``.  A valid permutative category (the hexagon holds
    because the sign of ``xi`` is biadditive), and the smallest fixture
    whose symmetry realization of a permutation is its parity."""
    C = sign_permcat()
    symmetries = dict(C.symmetries)
    symmetries["1", "1"] = _sign_mor("0", NEG)
    return FinPermCat("super-sign", C.objects, C.mor_src, C.mor_tgt,
                      C.identities, C.composition, C.unit, C.sums,
                      C.mor_sums, symmetries)


def codiscrete_permcat(name: str, elements: tuple[str, ...], mul, unit: str) -> FinPermCat:
    """The codiscrete permutative category of a finite monoid: exactly one
    morphism between any ordered pair of objects, sum given by the monoid.

    Every diagram commutes, so this is permutative even for noncommutative
    monoids; the symmetry ``x + y -> y + x`` is then a morphism between
    genuinely different objects, which pins direction conventions.
    """
    mor = {(x, y): f"{x}>{y}" for x in elements for y in elements}
    mor_src = {mor[x, y]: x for x, y in mor}
    mor_tgt = {mor[x, y]: y for x, y in mor}
    ids = {x: mor[x, x] for x in elements}
    composition = {(mor[y, z], mor[x, y2]): mor[x, z]
                   for x in elements for y in elements for y2 in elements
                   for z in elements if y == y2}
    sums = {(x, y): mul(x, y) for x in elements for y in elements}
    mor_sums = {(mor[x, y], mor[u, v]): mor[mul(x, u), mul(y, v)]
                for x in elements for y in elements
                for u in elements for v in elements}
    symmetries = {(x, y): mor[mul(x, y), mul(y, x)] for x in elements for y in elements}
    return FinPermCat(name, elements, mor_src, mor_tgt, ids, composition,
                      unit, sums, mor_sums, symmetries)


def s3_codiscrete_permcat() -> FinPermCat:
    """Codiscrete category on the symmetric group of degree 3: the object
    monoid is noncommutative."""
    elements = tuple("".join(p) for p in itertools.permutations("abc"))

    def mul(x: str, y: str) -> str:
        # compose permutations of {a,b,c} written as images of "abc"
        return "".join(x["abc".index(ch)] for ch in y)

    return codiscrete_permcat("s3-codiscrete", elements, mul, "abc")


def sign_of(mor: str) -> str:
    return mor.split(":")[1]


def object_of(mor: str) -> str:
    return mor.split(":")[0]


def sign_product(n: int) -> "StrictProduct":
    """Multiplication mod n on the sign category, the tables of
    :func:`zmod_sign_multiplication`."""
    from .rings import StrictProduct

    M = zmod_sign_multiplication(n)
    C = M.target
    obj_table = {(x, y): M.on_obj((x, y)) for x in C.objects for y in C.objects}
    mor_table = {(f, g): M.on_mor((f, g)) for f in C.morphisms() for g in C.morphisms()}
    return StrictProduct("1", obj_table, mor_table)


def _identity_facts(C: FinPermCat, product) -> tuple[dict, dict]:
    left = {}
    right = {}
    for a, b, c in itertools.product(C.objects, repeat=3):
        left[a, b, c] = C.identity(product.on_obj(C.sum_obj(a, b), c))
        right[a, b, c] = C.identity(product.on_obj(a, C.sum_obj(b, c)))
    return left, right


def _identity_exchanges(C: FinPermCat, product, k: int) -> dict:
    """Identity exchanges ``(i, j, a, b, c, d)`` for every pair of the
    ``k`` copies of ``product``."""
    exchanges = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for a, b, c, d in itertools.product(C.objects, repeat=4):
                obj = product.on_obj(product.on_obj(a, b), product.on_obj(c, d))
                exchanges[i, j, a, b, c, d] = C.identity(obj)
    return exchanges


def sign_ring(n: int = 4) -> "RingCatData":
    """The mod-n sign category with multiplication and identity
    factorizations: a tight, non-discrete ring category (n even)."""
    from .rings import RingCatData

    C = zmod_sign_permcat(n)
    P = sign_product(n)
    left, right = _identity_facts(C, P)
    return RingCatData(f"sign{n}-ring", C, P, left, right)


def sign_bipermutative(n: int = 4) -> "BipermData":
    from .rings import BipermData

    ring = sign_ring(n)
    C = ring.additive
    symmetry = {(a, b): C.identity(ring.product.on_obj(a, b))
                for a in C.objects for b in C.objects}
    return BipermData(ring, symmetry)


def sign_braided_ring(n: int = 4) -> "BraidedRingData":
    from .rings import BraidedRingData

    biperm = sign_bipermutative(n)
    return BraidedRingData(biperm.ring, biperm.mult_symmetry)


def sign_nfold(k: int, n: int = 4) -> "NFoldData":
    """k copies of the multiplication with identity exchanges."""
    from .rings import NFoldData

    C = zmod_sign_permcat(n)
    P = sign_product(n)
    return NFoldData(f"sign{n}-{k}fold", C, (P,) * k, _identity_exchanges(C, P, k))


def sign_en(k: int, n: int = 4) -> "EnData":
    from .rings import EnData

    nfold = sign_nfold(k, n)
    C = nfold.category
    left, right = _identity_facts(C, nfold.products[0])
    return EnData(f"sign{n}-e{k}", C, nfold.products,
                  (left,) * k, (right,) * k, nfold.exchanges)


def bool_ring() -> "RingCatData":
    """The discrete Boolean semiring: everything an identity, tight."""
    from .rings import RingCatData, StrictProduct

    C = bool_or_permcat()
    obj_table = {(x, y): "1" if x == y == "1" else "0"
                 for x in C.objects for y in C.objects}
    mor_table = {(C.identity(x), C.identity(y)): C.identity(obj_table[x, y])
                 for x in C.objects for y in C.objects}
    P = StrictProduct("1", obj_table, mor_table)
    left, right = _identity_facts(C, P)
    return RingCatData("bool-ring", C, P, left, right)


def bool_en(k: int) -> "EnData":
    from .rings import EnData

    ring = bool_ring()
    C = ring.additive
    return EnData(f"bool-e{k}", C, (ring.product,) * k,
                  (ring.left_fact,) * k, (ring.right_fact,) * k,
                  _identity_exchanges(C, ring.product, k))


def zmod_sign_multiplication(n: int, flips=()) -> NLinearFunctor:
    """Multiplication mod n as a bilinear functor on the mod-n sign
    category: the sign of ``P(s, t)`` at objects ``(x, y)`` is
    ``s^y t^x``.  The linearity constraints are identities except at the
    ``flips`` keys ``(j, X, X2)``, where they are negative.  The unflipped
    functor is strict and valid for even ``n``."""
    C = zmod_sign_permcat(n)

    def obj_map(X):
        return str(int(X[0]) * int(X[1]) % n)

    def mor_map(fs):
        s, t = fs
        x, y = object_of(s), object_of(t)
        parts = [sign_of(s)] * (int(y) % 2) + [sign_of(t)] * (int(x) % 2)
        return _sign_mor(obj_map((x, y)), _sign_mul(*parts))

    def constraint(j, X, X2):
        other = X[1] if j == 1 else X[0]
        merged = str((int(X[j - 1]) + int(X2)) * int(other) % n)
        if (j, tuple(X), X2) in flips:
            return _sign_mor(merged, NEG)
        return _sign_mor(merged, POS)

    return NLinearFunctor((C, C), C, obj_map, mor_map, constraint)


def sign_multiplication(alpha: str = NEG, beta: str = POS) -> NLinearFunctor:
    """The multiplication bilinear functor on the mod-2 sign category.

    The first linearity constraint at ``((1, 1), 1)`` is ``alpha``, the
    second at the mirror position is ``beta``; all constraint components
    forced by the unity axiom are identities.  With a nonidentity ``alpha``
    this is the strong non-strict bilinear functor used to exhibit
    non-naturality of the counit; with ``alpha = beta = +`` it is strict.
    """
    flips = {(j, ("1", "1"), "1") for j, sign in ((1, alpha), (2, beta)) if sign == NEG}
    return zmod_sign_multiplication(2, flips)
