"""Comparison transformations between the free and endomorphism
constructions, the marking construction, and their executable checks.

The unit inserts an operation as a one-output free morphism; the other
comparison sends a free morphism over an endomorphism multicategory back
to the underlying category, sorting inputs into fiber order first.  Their
triangle identities hold on the nose and are checked exhaustively at desk
scale.  The counit's naturality square is one finite check: it fails
against a bilinear functor with a nonidentity linearity constraint and
holds for its strict variant.
:func:`check_adjunction_suite` runs all of these checks as one suite.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .endo import (
    EndoOp,
    decomposable_endo_multifunctor,
    endo_action,
    endo_multicat,
    endo_on_functor,
)
from .fixtures import NEG, POS, sign_multiplication
from .free import FreeMorphism, FreePermCat, free_on_multifunctor
from .multicat import (
    Multicat,
    Multifunctor,
    _op_entries,
    terminal_multicat,
    validate_multifunctor,
)
from .permcats import (
    FinPermCat,
    SymMonFunctor,
    _compares_raw,
    identity_smf,
    perm_to_morphism,
    by_source,
    smf_compose,
    sum_mors,
    sum_objs,
    validate_permcat,
    window_mors,
)
from .perms import (
    FinMap,
    Permutation,
    Profile,
    sigma_kgf,
    terminal_map,
)
from .reports import CheckReport
from .tensor import f_multi, s_functor, tensor_grid, tensor_op


def eta(M: Multicat) -> Multifunctor:
    """The unit: an object becomes its length-1 sequence, an operation the
    free morphism collapsing all inputs to one output position."""
    E = endo_multicat(FreePermCat(M))

    def on_op(op) -> EndoOp:
        profile = M.profile_of(op)
        y = M.output_of(op)
        mor = FreeMorphism(tuple(profile), (y,), terminal_map(len(profile)), (op,))
        return EndoOp((y,), tuple((x,) for x in profile), mor)

    return Multifunctor(M, E, lambda w: (w,), on_op)


def xi_f(f: FinMap) -> Permutation:
    """The fiber-order sort: the inverse of the positional permutation
    aligning fiberwise concatenation with the identity collapse."""
    return sigma_kgf(f, terminal_map(f.codomain), 1).inverse()


def rho(C) -> SymMonFunctor:
    """The inclusion of length-1 tuples; unit and monoidal constraints are
    collapse morphisms, so this is not strictly unital."""
    FE = FreePermCat(endo_multicat(C))

    def collapse(profile, f):
        """``f`` as one operation on ``profile``, with a single output."""
        return FreeMorphism(profile, (C.tgt(f),), terminal_map(len(profile)),
                            (EndoOp(C.tgt(f), profile, f),))

    return SymMonFunctor(C, FE, lambda x: (x,), lambda f: collapse((C.src(f),), f),
                         lambda x, y: collapse((x, y), C.identity(C.sum_obj(x, y))),
                         collapse((), C.identity(C.unit)))


def epsilon(C) -> SymMonFunctor:
    """The strict evaluation: sum the entries; a free morphism becomes the
    sum of its fiber operations after the fiber-order sort.  The functor
    keeps each sort by its index map and source (see the memo rule in the
    README): a window of free morphisms has far fewer of those pairs than
    morphisms."""
    FE = FreePermCat(endo_multicat(C))
    sort = cache(lambda index_map, source: perm_to_morphism(C, xi_f(index_map), source))

    def on_obj(x: Profile):
        return sum_objs(C, x)

    def on_mor(mor: FreeMorphism):
        before = sort(mor.index_map, mor.source)
        pasted = sum_mors(C, [op.mor for op in mor.ops])
        return C.compose(pasted, before)

    return SymMonFunctor(FE, C, on_obj, on_mor, None, None,
                         strict=True, strictly_unital=True, strong=True)


def check_eta_square(H: Multifunctor, Ms: tuple, max_arity: int = 2) -> CheckReport:
    """The multinaturality square of the unit against a multifunctor on a
    grid source: inserting after applying ``H`` agrees with the action of
    the induced multilinear functor on the inserted operations."""
    Ms = tuple(Ms)
    N = H.target
    eta_N = eta(N)
    etas = tuple(eta(M) for M in Ms)
    P = f_multi(H, Ms)
    report = CheckReport("eta-multinaturality")
    per_factor = [[op for _, _, op in _op_entries(M, M.object_list(), max_arity)]
                  for M in Ms]
    for combo in itertools.product(*per_factor):
        cell = combo[0] if len(Ms) == 1 else tensor_op(Ms, combo)
        lhs = eta_N.on_op(H.on_op(cell))
        rhs = endo_action(P, tuple(e.on_op(op) for e, op in zip(etas, combo)))
        report.expect("eta-square", lhs, rhs, tuple(repr(op) for op in combo))
    return report


def check_triangles(M: Multicat, C, max_len: int = 3, max_arity: int = 3) -> CheckReport:
    """Both triangle identities, exhaustively over windows."""
    report = CheckReport("triangle-identities")
    FM = FreePermCat(M, partial_homs=True)
    eps_FM = epsilon(FM)
    F_eta = free_on_multifunctor(eta(M))
    window = FM.enumerate_objects(max_len)
    for x in window:
        report.evaluate("counit-after-free-unit",
                        lambda: eps_FM.on_obj(F_eta.on_obj(x)), lambda: x, ("object", x))
    for mor in window_mors(FM, window):
        report.evaluate("counit-after-free-unit",
                        lambda: eps_FM.on_mor(F_eta.on_mor(mor)), lambda: mor,
                        ("morphism", mor))

    E = endo_multicat(C)
    eps_C = epsilon(C)
    E_eps = endo_on_functor(eps_C)
    eta_E = eta(E)
    for _, _, op in _op_entries(E, C.object_list(), max_arity):
        report.evaluate("endo-unit-after-unit",
                        lambda: E_eps.on_op(eta_E.on_op(op)), lambda: op, ("operation", op))

    rho_C = rho(C)
    for x in C.object_list():
        report.evaluate("counit-after-rho",
                        lambda: eps_C.on_obj(rho_C.on_obj(x)), lambda: x, ("object", x))
        for y in C.object_list():
            for f in C.hom(x, y):
                report.evaluate("counit-after-rho",
                                lambda: eps_C.on_mor(rho_C.on_mor(f)), lambda: f,
                                ("morphism", f))
    return report


SQUARE_LEN = 2  # the longest object of each free endomorphism category in the square


def epsilon_square(Ps: tuple) -> list[CheckReport]:
    """The counit's naturality square against each multilinear functor
    ``P`` of ``Ps``: ``P`` after the counits against the counit after the
    induced functor, on every tuple of free morphisms between objects of
    length at most :data:`SQUARE_LEN`.  It fails for the bilinear sign
    multiplication, whose linearity constraint is not an identity, and
    holds for its strict variant.  Returns one report per functor.

    The functors must have equal sources (else ``ValueError``), so that one
    pass over the window serves them all.  Per call, each factor's counit
    image of each window morphism is cached by factor and window index, and
    each ``P.on_mor`` by its tuple of counit images when every source
    compares raw (see the memo rule in the README).  Each tuple of window
    morphisms is mapped once by one ``S``; the induced functor of each
    ``P`` is its free functor after that ``S``, as in
    :func:`permcat.tensor.f_multi`, and no image of ``S`` is kept."""
    Ps = tuple(Ps)
    sources = Ps[0].sources
    if any(P.sources != sources for P in Ps):
        raise ValueError("the functors of one counit square need equal sources")
    Es = tuple(endo_multicat(C) for C in sources)
    counits = tuple(epsilon(C) for C in sources)
    S = s_functor(Es)
    mor_lists = [window_mors(F, F.enumerate_objects(SQUARE_LEN)) for F in S.sources]
    counit_image = cache(lambda b, i: counits[b].on_mor(mor_lists[b][i]))
    keep = cache if all(map(_compares_raw, sources)) else (lambda f: f)
    squares = [(CheckReport("counit-naturality"),
                keep(lambda *images, P=P: P.on_mor(images)),
                epsilon(P.target).on_mor,
                free_on_multifunctor(decomposable_endo_multifunctor(P)).on_mor)
               for P in Ps]

    for idx in itertools.product(*(range(len(ms)) for ms in mor_lists)):
        mors = tuple(ms[i] for ms, i in zip(mor_lists, idx))
        images = tuple(counit_image(b, i) for b, i in enumerate(idx))
        image = S.on_mor(mors)
        for report, left, eps_D, FH in squares:
            report.expect("square", left(*images), eps_D(FH(image)), mors)
    return [report for report, *_ in squares]


@dataclass(frozen=True)
class MarkedPermCat:
    """A permutative category with a freshly adjoined strict unit and the
    connecting morphism, plus the comparison functors."""

    category: FinPermCat
    zero: str
    t: str
    collapse: SymMonFunctor     # marked -> base, t to the unit identity
    inclusion: SymMonFunctor    # base -> marked, unit constraint t


def _fresh(label: str, taken) -> str:
    candidate = label
    while candidate in taken:
        candidate = candidate + "'"
    return candidate


def mark_category(C: FinPermCat) -> MarkedPermCat:
    zero = _fresh("mark:0", C.objects)
    id0 = _fresh("mark:id0", C.morphisms())
    e = C.unit
    after = by_source(C.src, C.morphisms())
    from_unit = after.get(e, [])
    # a prefix ``p`` is taken when some ``p;f`` already names a morphism
    prefix = _fresh("mark:t", {m[:-len(f) - 1] for m in C.morphisms()
                               for f in from_unit if m.endswith(f";{f}")})

    objects = C.objects + (zero,)
    mor_src = dict(C.mor_src)
    mor_tgt = dict(C.mor_tgt)
    mor_src[id0] = zero
    mor_tgt[id0] = zero
    t_mors = {f: f"{prefix};{f}" for f in from_unit}
    for f, tf in t_mors.items():
        mor_src[tf] = zero
        mor_tgt[tf] = C.tgt(f)
    identities = dict(C.identities)
    identities[zero] = id0

    composition = dict(C.composition)
    composition[id0, id0] = id0
    for f, tf in t_mors.items():
        composition[tf, id0] = tf
        for g in after.get(C.tgt(f), ()):
            gf = C.compose(g, f)
            composition[g, tf] = t_mors.get(gf, gf)

    sums = dict(C.sums)
    for x in objects:
        sums[zero, x] = x
        sums[x, zero] = x
    sums[zero, zero] = zero

    mor_sums = dict(C.mor_sums)
    all_marked = list(t_mors.values())
    for m in list(C.morphisms()) + all_marked + [id0]:
        mor_sums[id0, m] = m
        mor_sums[m, id0] = m
    for f, tf in t_mors.items():
        for g, tg in t_mors.items():
            fg = C.sum_mor(f, g)
            mor_sums[tf, tg] = t_mors.get(fg, fg)
        for h in C.morphisms():
            mor_sums[tf, h] = C.sum_mor(f, h)
            mor_sums[h, tf] = C.sum_mor(h, f)

    symmetries = dict(C.symmetries)
    for x in C.objects:
        symmetries[zero, x] = C.identity(x)
        symmetries[x, zero] = C.identity(x)
    symmetries[zero, zero] = id0

    marked_cat = FinPermCat(f"marked({C.name})", objects, mor_src, mor_tgt,
                            identities, composition, zero, sums, mor_sums,
                            symmetries)

    t = t_mors[C.identity(e)]
    back = {id0: C.identity(e), **{tf: f for f, tf in t_mors.items()}}
    collapse = SymMonFunctor(
        marked_cat, C,
        lambda x: e if x == zero else x,
        lambda f: back.get(f, f),
        None, None, strict=True, strictly_unital=True, strong=True)
    inclusion = SymMonFunctor(
        C, marked_cat, lambda x: x, lambda f: f,
        None, t, strong=False)
    return MarkedPermCat(marked_cat, zero, t, collapse, inclusion)


def mark_functor(P: SymMonFunctor, marked: MarkedPermCat) -> SymMonFunctor:
    """Extend a symmetric monoidal functor to the marking, sending the
    connecting morphism to the unit constraint; strictly unital."""
    D = P.target
    Cm = marked.category

    def on_obj(x):
        return D.unit if x == marked.zero else P.on_obj(x)

    def on_mor(f):
        if f == Cm.identity(marked.zero):
            return D.identity(D.unit)
        base = marked.collapse.on_mor(f)
        if Cm.src(f) == marked.zero:
            return D.compose(P.on_mor(base), P.unit_constraint())
        return P.on_mor(base)

    def m2(x, y):
        if x == marked.zero or y == marked.zero:
            other = y if x == marked.zero else x
            return D.identity(on_obj(other))
        return P.monoidal(x, y)

    return SymMonFunctor(Cm, D, on_obj, on_mor, m2, None,
                         strictly_unital=True,
                         strict=P.strict, strong=P.strong)


def check_rho_mark_square(P: SymMonFunctor) -> CheckReport:
    """The zigzag square for a strictly unital functor: the marked lift
    against the induced functor on free endomorphism categories, with the
    marked length-1 inclusions on both sides."""
    C, D = P.source, P.target
    mC, mD = mark_category(C), mark_category(D)
    lift = mark_functor(smf_compose(mD.inclusion, P), mC)
    FEP = free_on_multifunctor(endo_on_functor(P))
    left = mark_functor(rho(C), mC)
    right = mark_functor(rho(D), mD)
    report = CheckReport("rho-mark-square")
    Cm = mC.category
    for x in Cm.objects:
        report.expect("square-objects",
                      FEP.on_obj(left.on_obj(x)), right.on_obj(lift.on_obj(x)),
                      ("object", x))
    for f in Cm.morphisms():
        report.evaluate("square-morphisms",
                        lambda: FEP.on_mor(left.on_mor(f)),
                        lambda: right.on_mor(lift.on_mor(f)), ("morphism", f))
    for x in mC.category.objects:
        report.expect("collapse-square-objects",
                      mD.collapse.on_obj(lift.on_obj(x)),
                      P.on_obj(mC.collapse.on_obj(x)), ("object", x))
    for f in Cm.morphisms():
        report.evaluate("collapse-square-morphisms",
                        lambda: mD.collapse.on_mor(lift.on_mor(f)),
                        lambda: P.on_mor(mC.collapse.on_mor(f)), ("morphism", f))
    return report


def check_adjunction_suite(M: Multicat, C: FinPermCat, max_len: int,
                           max_arity: int) -> CheckReport:
    """The unit and its square on ``M (x) M``, both triangles on ``M`` and
    ``C``, the counit square on the sign multiplication (it must fail with
    the nonidentity constraint and hold without it), and the marking of ``C``."""
    report = validate_multifunctor(eta(M), max_arity=max_arity)
    report.structure = "adjunction-fragment-suite"
    grid = tensor_grid((M, M))
    bound = (M.max_arity or max_arity) * 2
    H = Multifunctor(grid, terminal_multicat(max(bound, 4)), lambda c: "*",
                     lambda op: f"i{grid.arity_of(op)}")
    report.absorb(check_eta_square(H, (M, M), max_arity=min(max_arity, 2)))
    report.absorb(check_triangles(M, C, max_len=max_len, max_arity=max_arity))
    nonstrict, strict = epsilon_square((sign_multiplication(NEG, POS),
                                        sign_multiplication(POS, POS)))
    report.expect("witness-found", nonstrict.passed, False, "bilinear sign fixture")
    report.absorb(strict)
    report.absorb(validate_permcat(mark_category(C).category))
    report.absorb(check_rho_mark_square(identity_smf(C)))
    return report
