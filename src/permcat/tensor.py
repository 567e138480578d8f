"""The decomposable fragment of the tensor product of multicategories.

Operations of the fragment are kept in normal form: a tuple of one
component operation per factor together with a twist permutation on the
flat input grid.  Every relation the construction needs (functoriality of
the iterated tensor, interchange) is oriented into that normal form at
construction time; equality goes through a canonical key (see
:class:`DecompOp`) that quotients the identifications the relations
force on normal forms.  Composition outside the grid-aligned fragment
raises :class:`UnsupportedFragmentError` rather than attempting the
general word problem.

The comparison functor ``S`` from a product of free categories into the
free category on the fragment lives here, together with its linearity
constraints, the induced multilinear package of a multifunctor on a
grid source, and :func:`check_s_suite`, the coherence suite of ``S``.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache

from .errors import ComposabilityError, UnsupportedFragmentError
from .free import (
    FreeMorphism,
    FreePermCat,
    free_identity,
    free_on_multifunctor,
    free_on_multinat,
)
from .multicat import (
    Multicat,
    Multifunctor,
    MultiNat,
    identity_multifunctor,
    initial_operad,
    terminal_multicat,
)
from .permcats import (
    NLinearFunctor,
    NLinearNat,
    by_source,
    validate_nlinear,
    window_images,
    window_mors,
)
from .perms import (
    FinMap,
    Permutation,
    Profile,
    all_perms,
    block_perm,
    block_sum,
    grid_indices,
    grid_rank,
    grid_transpose,
    grid_unrank,
    identity_perm,
    perm_act,
    perm_compose,
    perm_grid_product,
    product_map,
    profiles,
    sigma_kgf,
    terminal_map,
)
from .reports import CheckReport


@dataclass(frozen=True, eq=False)
class DecompOp:
    """A decomposable operation ``(tensor of components) . twist``.

    Equality and hashing go through ``key``, the canonical form of the
    operation; the true components and twist are retained for
    composition.  Two collapses of the tensor relations make the raw pair
    too fine:

    - gauge: sliding a symmetric-group action across the tensor,
      ``(tensor of (c_i . s_i)) = (tensor of c_i) . gridproduct(s)``, so
      the key minimizes over all per-factor actions;
    - arity zero: tensoring against a nullary operation forgets the other
      factors except their outputs, and a second nullary anywhere (or a
      nullary elsewhere with the right output) mediates away even the
      first, so the key keeps only what survives.

    The key is computed on first use (``==``, ``hash`` or ``repr``), so an
    ill-typed factor table surfaces when the operation is compared.
    """

    components: tuple
    twist: Permutation
    factors: tuple

    @cached_property
    def key(self) -> tuple:
        """The canonical form: see :func:`canonical_key`."""
        return canonical_key(self.factors, self.components, self.twist)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash((self.key,))

    def __repr__(self):
        return (f"DecompOp(components={self.components!r}, "
                f"twist={self.twist!r}, key={self.key!r})")


def grid_object(factor_profiles: tuple) -> Profile:
    """The flat profile of object tuples, first factor index fastest."""
    sizes = tuple(len(p) for p in factor_profiles)
    return tuple(tuple(p[j - 1] for p, j in zip(factor_profiles, js))
                 for js in grid_indices(sizes))


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple:
    return tuple(all_perms(n))


@lru_cache(maxsize=4096)
def _inverse_grid_products(choices: tuple) -> tuple:
    """``perm_grid_product(s).inverse().images`` for every tuple ``s`` of
    ``itertools.product(*choices)``, in that order."""
    return tuple(perm_grid_product(sigmas).inverse().images
                 for sigmas in itertools.product(*choices))


def canonical_key(Ms: tuple, components: tuple, twist: Permutation) -> tuple:
    """The canonical key of ``(tensor of components) . twist``.

    Over the gauge tuples ``s`` it is the lexicographic minimum of
    ``(tuple(repr(c_i . s_i)), twist images after sliding s off)``, first
    minimum in ``itertools.product`` order.  Each ``repr`` depends on its
    own ``s_i`` only, so each factor is minimised alone and the twist only
    over the product of the per-factor argmin sets.  Gauge-equivalent
    normal forms share it (``q`` is ``p`` acted on by the transposition):

        >>> from permcat.fixtures import swap_operad
        >>> M = swap_operad()
        >>> slid = make_decomp((M, M), ("q", "p"), identity_perm(4))
        >>> slid == make_decomp((M, M), ("p", "p"), Permutation((2, 1, 4, 3)))
        True
        >>> slid == make_decomp((M, M), ("p", "p"), identity_perm(4))
        False
    """
    nullary = tuple(i for i, (M, c) in enumerate(zip(Ms, components))
                    if M.arity_of(c) == 0)
    if nullary:
        outputs = tuple(M.output_of(c) for M, c in zip(Ms, components))
        with_mediator = [i for i, (M, out) in enumerate(zip(Ms, outputs))
                         if M.ops(out, ())]
        if len(nullary) == 1 and with_mediator == list(nullary):
            i0 = nullary[0]
            return ("nullary", i0, components[i0], outputs)
        return ("nullary-class", outputs)
    choices, acted = [], []
    for M, c in zip(Ms, components):
        least = None
        for s in _perms(M.arity_of(c)):
            d = M.act(c, s)
            r = repr(d)
            if least is None or r < least:
                least, sigmas, images = r, [s], [d]
            elif r == least:
                sigmas.append(s)
                images.append(d)
        choices.append(tuple(sigmas))
        acted.append(images)
    best = None
    for comps, inverse in zip(itertools.product(*acted),
                              _inverse_grid_products(tuple(choices))):
        tw = tuple(inverse[t - 1] for t in twist.images)
        if best is None or tw < best[1]:
            best = (comps, tw)
    return best


def make_decomp(Ms: tuple, components: tuple, twist: Permutation) -> DecompOp:
    """Construct a decomposable operation; its canonical key is lazy."""
    return DecompOp(tuple(components), twist, tuple(Ms))


def tensor_op(Ms: tuple, ops: tuple) -> DecompOp:
    """The iterated tensor of one operation per factor: identity twist."""
    sizes = tuple(M.arity_of(op) for M, op in zip(Ms, ops))
    total = 1
    for s in sizes:
        total *= s
    return make_decomp(Ms, tuple(ops), identity_perm(total))


def tensor_op_transposed(Ms: tuple, phi, psi) -> DecompOp:
    """The two-factor tensor in the other nesting order; differs from
    :func:`tensor_op` exactly by the grid transpose twist."""
    m, n = Ms[0].arity_of(phi), Ms[1].arity_of(psi)
    return make_decomp(Ms, (phi, psi), grid_transpose(m, n).inverse())


class TensorGridView(Multicat):
    """The grid fragment of an n-fold tensor product, ``n >= 2``.

    A view caches its units per object tuple and its composites per raw
    normal form of the arguments (components and twists): see the memo
    rule in the README.  Its operations compare through the canonical key,
    so a memo that finds them by ``==`` would merge distinct raw forms."""

    canonical_ops = True

    def __init__(self, factors: tuple):
        self.factors = tuple(factors)
        self.name = "tensor(" + ", ".join(getattr(M, "name", "?") for M in factors) + ")"
        self.max_arity = None
        if all(M.objects is not None for M in self.factors):
            self.objects = tuple(itertools.product(*(M.object_list() for M in self.factors)))
        else:
            self.objects = None
        factors = self.factors
        self.unit = cache(lambda obj: make_decomp(
            factors, tuple(M.unit(c) for M, c in zip(factors, obj)), identity_perm(1)))
        view = weakref.ref(self)    # a dropped view is freed at once, not by the collector
        self._composite = cache(lambda *raw: view()._raw_composite(*raw))

    def output_of(self, op: DecompOp) -> tuple:
        return tuple(M.output_of(c) for M, c in zip(self.factors, op.components))

    def arity_of(self, op: DecompOp) -> int:
        arity = 1
        for M, c in zip(self.factors, op.components):
            arity *= M.arity_of(c)
        return arity

    def profile_of(self, op: DecompOp) -> Profile:
        flat = grid_object(tuple(M.profile_of(c)
                                 for M, c in zip(self.factors, op.components)))
        return perm_act(op.twist, flat)

    def ops(self, target: tuple, profile: Profile) -> tuple:
        out = []
        slot_ops = []
        for M, y in zip(self.factors, target):
            bound = M.max_arity if M.max_arity is not None else len(profile)
            found = []
            for p in profiles(M.object_list(), bound):
                found.extend(M.ops(y, p))
            slot_ops.append(found)
        seen = set()
        for components in itertools.product(*slot_ops):
            arity = 1
            for M, c in zip(self.factors, components):
                arity *= M.arity_of(c)
            if arity != len(profile):
                continue
            flat = grid_object(tuple(M.profile_of(c)
                                     for M, c in zip(self.factors, components)))
            for twist in all_perms(arity):
                if perm_act(twist, flat) == tuple(profile):
                    op = make_decomp(self.factors, components, twist)
                    if op.key not in seen:
                        seen.add(op.key)
                        out.append(op)
        return tuple(out)

    def act(self, op: DecompOp, sigma: Permutation) -> DecompOp:
        if sigma.degree != self.arity_of(op):
            raise ComposabilityError(
                f"degree {sigma.degree} action on arity {self.arity_of(op)}")
        return make_decomp(self.factors, op.components,
                           perm_compose(op.twist, sigma))

    def compose(self, outer: DecompOp, inners: tuple) -> DecompOp:
        """The grid composite.  The construction reads only the raw normal
        forms of the arguments, and whether a composite is grid-aligned at
        all can differ between gauge-equivalent forms."""
        return self._composite(outer.components, outer.twist,
                               tuple((inner.components, inner.twist) for inner in inners))

    def _raw_composite(self, components: tuple, twist: Permutation,
                       inner_forms: tuple) -> DecompOp:
        return self._compose(make_decomp(self.factors, components, twist),
                             tuple(make_decomp(self.factors, *form) for form in inner_forms))

    def _compose(self, outer: DecompOp, inners: tuple) -> DecompOp:
        self.check_composite(outer, inners)
        if not inners:
            return outer

        # untwist the outer: slot m of the tensor core receives the inner
        # sitting at the twisted position
        inv = outer.twist.inverse()
        slot_inners = tuple(inners[inv(m) - 1] for m in range(1, len(inners) + 1))
        sizes = tuple(M.arity_of(c) for M, c in zip(self.factors, outer.components))

        # grid alignment: the untwisted slots must factor through
        # per-factor families of component operations
        families: list[list] = [[None] * s for s in sizes]
        for m, inner in enumerate(slot_inners, start=1):
            ls = grid_unrank(m, sizes)
            for i, l in enumerate(ls):
                candidate = inner.components[i]
                if families[i][l - 1] is None:
                    families[i][l - 1] = candidate
                elif families[i][l - 1] != candidate:
                    raise UnsupportedFragmentError(
                        "inner operations are not grid-aligned: factor "
                        f"{i + 1} differs across the grid")

        composed = tuple(
            M.compose(c, tuple(family))
            for M, c, family in zip(self.factors, outer.components, families))

        # reassemble the twist: per-factor fiber alignment, then the inner
        # twists blockwise, then the outer block permutation
        block_maps = []
        for i, family in enumerate(families):
            arities = [self.factors[i].arity_of(f) for f in family]
            images = tuple(j for j, k in enumerate(arities, start=1) for _ in range(k))
            block_maps.append(FinMap(sum(arities), len(family), images))
        f_all = product_map(tuple(block_maps))
        alignment = sigma_kgf(f_all, terminal_map(f_all.codomain), 1).inverse()
        inner_twists = block_sum(tuple(op.twist for op in slot_inners))
        outer_block = block_perm(outer.twist,
                                 tuple(self.arity_of(op) for op in slot_inners))
        twist = perm_compose(perm_compose(alignment, inner_twists), outer_block)
        return make_decomp(self.factors, composed, twist)


def tensor_grid(Ms: tuple) -> Multicat:
    """The tensor product restricted to the fragment this package models:
    the empty tensor is the initial operad, a single factor is itself."""
    Ms = tuple(Ms)
    if len(Ms) == 0:
        return initial_operad()
    if len(Ms) == 1:
        return Ms[0]
    return TensorGridView(Ms)


def tensor_of_multifunctors(Hs: tuple) -> Multifunctor:
    """The tensor of multifunctors on grid fragments (componentwise on
    normal forms, twist kept)."""
    Hs = tuple(Hs)
    source = tensor_grid(tuple(H.source for H in Hs))
    target = tensor_grid(tuple(H.target for H in Hs))
    if len(Hs) == 1:
        return Hs[0]

    def on_obj(obj):
        return tuple(H.on_obj(c) for H, c in zip(Hs, obj))

    factors = tuple(H.target for H in Hs)

    def on_op(op: DecompOp) -> DecompOp:
        return make_decomp(factors,
                           tuple(H.on_op(c) for H, c in zip(Hs, op.components)),
                           op.twist)

    return Multifunctor(source, target, on_obj, on_op)


def tensor_of_multinats(thetas: tuple) -> MultiNat:
    """Componentwise tensor of multinatural transformations."""
    thetas = tuple(thetas)
    if len(thetas) == 1:
        return thetas[0]
    source = tensor_of_multifunctors(tuple(t.source for t in thetas))
    target = tensor_of_multifunctors(tuple(t.target for t in thetas))

    factors = tuple(t.source.target for t in thetas)

    def component(obj):
        comps = tuple(t.at(c) for t, c in zip(thetas, obj))
        return make_decomp(factors, comps, identity_perm(1))

    return MultiNat(source, target, component)


def braid_multifunctor(M1: Multicat, M2: Multicat) -> Multifunctor:
    """The symmetry of the two-factor tensor, oriented
    ``M2 (x) M1 -> M1 (x) M2`` on normal forms."""
    source = tensor_grid((M2, M1))
    target = tensor_grid((M1, M2))

    def on_op(op: DecompOp) -> DecompOp:
        psi, phi = op.components
        transpose = grid_transpose(M1.arity_of(phi), M2.arity_of(psi))
        return make_decomp((M1, M2), (phi, psi),
                           perm_compose(transpose.inverse(), op.twist))

    return Multifunctor(source, target,
                        lambda obj: (obj[1], obj[0]), on_op)


class SPieces:
    """The small pieces ``S`` builds on the factors ``Ms``, cached per raw
    argument (see the memo rule in the README): object images and the grid's
    unit operations on them by the factor profiles, tensor operations by
    their components, index products by the factor maps, the grid cells of
    a target by its factor lengths, and constraint shuffles by
    ``(b, sizes, hat_b)``.  The
    operations of a grid factor, and only those, are grid operations; each
    is keyed by its components and twist and rebuilt on a miss.  Each part
    of a key is a separate argument, so the call's argument tuple is the
    cache key; a single tuple argument would be wrapped in one more tuple
    per entry.  One instance belongs to one induced functor (see
    :func:`s_functor`).
    """

    def __init__(self, Ms: tuple):
        self.Ms = Ms
        grids = tuple(M.factors if isinstance(M, TensorGridView) else None for M in Ms)
        self.grid = grid = tensor_grid(Ms)
        self._objects = objects = cache(lambda *xs: s_object(Ms, xs))
        self._units = cache(lambda *xs: tuple(map(grid.unit, objects(*xs))))
        self._ops = cache(lambda *raw: tensor_op(Ms, tuple(
            c if factors is None else make_decomp(factors, *c)
            for factors, c in zip(grids, raw))))
        self.product = cache(lambda *maps: product_map(maps))
        self.cells = cache(lambda *sizes: tuple(grid_indices(sizes)))
        self.shuffle = cache(lambda b, sizes, hat_b: s_constraint_map(b, sizes, hat_b))

    def object(self, xs: tuple) -> Profile:
        return self._objects(*map(tuple, xs))

    def units(self, xs: tuple) -> tuple:
        """The grid's unit operations on the object image of ``xs``."""
        return self._units(*map(tuple, xs))

    def tensor_op(self, ops: tuple) -> DecompOp:
        return self._ops(*((c.components, c.twist) if c.__class__ is DecompOp else c
                           for c in ops))


def s_object(Ms: tuple, xs: tuple) -> Profile:
    """The image object: empty tensor gives the empty profile, one factor
    is the identity, otherwise the flat grid of tuples."""
    if len(Ms) == 0:
        return ()
    if len(Ms) == 1:
        return tuple(xs[0])
    return grid_object(tuple(tuple(x) for x in xs))


def s_morphism(pieces: SPieces, mors: tuple) -> FreeMorphism:
    """The image morphism under the ``S`` that owns ``pieces``: the product
    index map with the iterated tensor of the fiber operations (identity
    twists) as entries."""
    if len(pieces.Ms) == 0:
        return free_identity(initial_operad(), ())
    if len(pieces.Ms) == 1:
        return mors[0]
    index = pieces.product(*(m.index_map for m in mors))
    targets = tuple(tuple(m.target) for m in mors)
    t_sizes = tuple(len(t) for t in targets)
    ops = tuple(
        pieces.tensor_op(tuple(m.ops[k - 1] for m, k in zip(mors, ks)))
        for ks in pieces.cells(*t_sizes))
    return FreeMorphism(pieces.object(tuple(m.source for m in mors)),
                        pieces.object(targets), index, ops)


def s_constraint_map(b: int, sizes: tuple, hat_b: int) -> FinMap:
    """The positional shuffle sending the concatenation of two grids to
    the grid with factor ``b`` enlarged."""
    first = 1
    for s in sizes:
        first *= s
    hat_sizes = sizes[:b - 1] + (hat_b,) + sizes[b:]
    second = 1
    for s in hat_sizes:
        second *= s
    merged = sizes[:b - 1] + (sizes[b - 1] + hat_b,) + sizes[b:]
    images = []
    for p in range(1, first + 1):
        js = grid_unrank(p, sizes)
        images.append(grid_rank(js, merged))
    for p in range(1, second + 1):
        js = grid_unrank(p, hat_sizes)
        shifted = js[:b - 1] + (js[b - 1] + sizes[b - 1],) + js[b:]
        images.append(grid_rank(shifted, merged))
    return FinMap(first + second, first + second, tuple(images))


def s_constraint(pieces: SPieces, b: int, xs: tuple, hat_xb: tuple) -> FreeMorphism:
    """The b-th linearity constraint of the ``S`` that owns ``pieces``: a
    permutation of entries with unit operations, determined positionally
    by source and target."""
    n = len(pieces.Ms)
    if not 1 <= b <= n:
        raise ValueError(f"factor index {b} out of range 1..{n}")
    if n == 1:
        merged = tuple(xs[0]) + tuple(hat_xb)
        return free_identity(pieces.Ms[0], merged)
    rho = pieces.shuffle(b, tuple(len(x) for x in xs), len(hat_xb))
    merged_xs = tuple(x if i != b - 1 else tuple(x) + tuple(hat_xb)
                      for i, x in enumerate(xs))
    source = (pieces.object(xs)
              + pieces.object(tuple(x if i != b - 1 else hat_xb
                                    for i, x in enumerate(xs))))
    return FreeMorphism(source, pieces.object(merged_xs), rho, pieces.units(merged_xs))


def s_functor(Ms: tuple) -> NLinearFunctor:
    """``S`` packaged as a strong multilinear functor between the free
    category views.  Its morphism and constraint images are built from its
    one :class:`SPieces` alone, so each object image, tensor operation,
    index product, grid cell list and constraint shuffle is built once per
    raw argument.  It keeps no whole morphism or constraint image:
    :func:`check_s_suite` keeps its window images, and
    :func:`permcat.permcats.validate_nlinear` its constraint components
    (see the memo rule in the README)."""
    pieces = SPieces(tuple(Ms))
    sources = tuple(FreePermCat(M) for M in pieces.Ms)
    target = FreePermCat(pieces.grid)
    return NLinearFunctor(
        sources, target,
        pieces.object,
        lambda fs: s_morphism(pieces, fs),
        (lambda b, X, X2: s_constraint(pieces, b, X, X2)) if pieces.Ms else None)


def f_multi(H: Multifunctor, Ms: tuple) -> NLinearFunctor:
    """The multilinear package of a multifunctor on a grid source: the free
    functor of ``H`` after ``S``, constraints included."""
    S = s_functor(Ms)
    FH = free_on_multifunctor(H)
    constraint = None if S.constraints is None else (
        lambda b, X, X2: FH.on_mor(S.constraint(b, X, X2)))
    return NLinearFunctor(S.sources, FH.target,
                          lambda X: FH.on_obj(S.on_obj(X)),
                          lambda fs: FH.on_mor(S.on_mor(fs)),
                          constraint)


def f_multi_nat(theta: MultiNat, Ms: tuple) -> NLinearNat:
    """The multilinear transformation of a multinatural transformation on
    a grid source: the free transformation of ``theta`` at the image of
    ``S``."""
    F_theta = free_on_multinat(theta)
    return NLinearNat(f_multi(theta.source, Ms), f_multi(theta.target, Ms),
                      lambda X: F_theta.at(s_object(Ms, X)))


def check_s_suite(Ms: tuple, max_len: int) -> CheckReport:
    """The coherence suite of ``S`` on the factors ``Ms``: functoriality and
    strong multilinearity over the length-``max_len`` windows, then
    naturality against identity and collapse multifunctors.  Its one ``S``
    over ``Ms`` keeps the image of each tuple of window morphisms
    (:func:`permcat.permcats.window_images`) for every check; only the
    collapse targets get an ``S`` of their own."""
    report = CheckReport("comparison-functor-suite")
    S = s_functor(Ms)
    windows = [F.enumerate_objects(max_len) for F in S.sources]
    mor_lists = [window_mors(F, w) for F, w in zip(S.sources, windows)]
    S = replace(S, mor_map=window_images(S, mor_lists))

    for xs in itertools.product(*windows):
        ids = tuple(F.identity(x) for F, x in zip(S.sources, xs))
        report.expect("preserves-identities",
                      S.on_mor(ids), S.target.identity(S.on_obj(xs)), ("id", xs))
    afters = [by_source(F.src, ms) for F, ms in zip(S.sources, mor_lists)]
    for fs in itertools.product(*mor_lists):
        for gs in itertools.product(*(after.get(f.target, ()) for after, f in zip(afters, fs))):
            report.evaluate("preserves-composition",
                            lambda: S.on_mor(tuple(F.compose(g, f)
                                                   for F, f, g in zip(S.sources, fs, gs))),
                            lambda: S.target.compose(S.on_mor(gs), S.on_mor(fs)),
                            (fs, gs))
    report.absorb(validate_nlinear(S, objects=windows))

    bound = max((M.max_arity or 2) for M in Ms)
    collapse_target = terminal_multicat(max(bound * len(Ms), 4))
    for label, Hs, S_N in [
            ("identities", tuple(identity_multifunctor(M) for M in Ms), S),
            ("collapses", tuple(
                Multifunctor(M, collapse_target, lambda c: "*",
                             lambda op, M=M: f"i{len(M.profile_of(op))}")
                for M in Ms), s_functor((collapse_target,) * len(Ms)))]:
        F_tensor = free_on_multifunctor(tensor_of_multifunctors(Hs))
        FHs = [free_on_multifunctor(H) for H in Hs]
        for xs in itertools.product(*(w[:6] for w in windows)):
            lhs = S_N.on_obj(tuple(FH.on_obj(x) for FH, x in zip(FHs, xs)))
            report.expect("two-naturality", lhs, F_tensor.on_obj(S.on_obj(xs)), (label, xs))
        for fs in itertools.product(*(ms[:8] for ms in mor_lists)):
            lhs = S_N.on_mor(tuple(FH.on_mor(f) for FH, f in zip(FHs, fs)))
            report.expect("two-naturality", lhs, F_tensor.on_mor(S.on_mor(fs)), (label, fs))
    return report
