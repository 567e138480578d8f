"""Finite multicategories, multifunctors, multinatural transformations.

Every backing shares the :class:`Multicat` interface, which decides the
boundary rules of composition once: :class:`FinMulticat` is table-backed
and total up to its arity bound, :class:`MulticatView` computes operation
sets, actions and composition on demand (endomorphism multicategories are
views), and ``tensor.TensorGridView`` computes the grid fragment of a
tensor product.  Exhaustive validation works uniformly on all of them,
restricted to a finite object window and arity bound.

Operation identity is by value: table operations are opaque labels,
view operations are structured values with value equality.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    BoundExceededError,
    ComposabilityError,
    MalformedStructureError,
)
from .perms import (
    Permutation,
    Profile,
    all_perms,
    block_perm,
    block_sum,
    identity_perm,
    perm_act,
    perm_compose,
    profiles,
)
from .reports import CheckReport


class Multicat:
    """Shared interface of table-backed and computed multicategories.

    The boundary rules of composition are decided here, once for every
    backing: see :meth:`check_composite`."""

    name: str
    objects: "tuple | None"
    max_arity: "int | None"

    def object_list(self) -> tuple:
        if self.objects is None:
            raise MalformedStructureError(
                f"{self.name}: object class not enumerable, pass an explicit window")
        return self.objects

    def ops(self, target, profile: Profile) -> tuple:
        raise NotImplementedError

    def unit(self, obj):
        raise NotImplementedError

    def output_of(self, op):
        raise NotImplementedError

    def profile_of(self, op) -> Profile:
        raise NotImplementedError

    def arity_of(self, op) -> int:
        return len(self.profile_of(op))

    def act(self, op, sigma: Permutation):
        raise NotImplementedError

    def compose(self, outer, inners: tuple):
        raise NotImplementedError

    def check_composite(self, outer, inners: tuple) -> None:
        """One inner operation per input of ``outer``, each with the output
        its slot asks for, and a composite arity within ``max_arity``."""
        profile = self.profile_of(outer)
        if len(inners) != len(profile):
            raise ComposabilityError(
                f"{len(inners)} inner operations for arity {len(profile)}")
        for slot, inner in zip(profile, inners):
            output = self.output_of(inner)
            if output != slot:
                raise ComposabilityError(f"inner output {output!r} != {slot!r}")
        if self.max_arity is not None:
            arity = sum(self.arity_of(i) for i in inners)
            if arity > self.max_arity:
                raise BoundExceededError(f"arity {arity} exceeds bound {self.max_arity}")


@dataclass(frozen=True)
class FinMulticat(Multicat):
    """Arity-truncated multicategory with total lookup tables.

    ``operations`` maps each op label to its ``(output, input profile)``;
    ``sigma`` must be total over all permutations of each op's arity, and
    ``gamma`` total whenever the composite arity is within ``max_arity``.
    """

    name: str
    objects: tuple
    max_arity: int
    operations: Mapping  # op -> (output, profile)
    units: Mapping       # obj -> op
    sigma: Mapping       # (op, perm images) -> op
    gamma: Mapping       # (outer, inners) -> op
    _by_boundary: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for op, (output, profile) in self.operations.items():
            self._by_boundary.setdefault((output, tuple(profile)), []).append(op)

    def ops(self, target, profile: Profile) -> tuple:
        return tuple(self._by_boundary.get((target, tuple(profile)), ()))

    def unit(self, obj):
        try:
            return self.units[obj]
        except KeyError:
            raise MalformedStructureError(f"no unit for object {obj!r}")

    def output_of(self, op):
        return self._info(op)[0]

    def profile_of(self, op) -> Profile:
        return self._info(op)[1]

    def _info(self, op):
        try:
            return self.operations[op]
        except KeyError:
            raise MalformedStructureError(f"unknown operation {op!r}")

    def act(self, op, sigma: Permutation):
        if sigma.degree != self.arity_of(op):
            raise ComposabilityError(f"degree {sigma.degree} action on arity {self.arity_of(op)}")
        try:
            return self.sigma[op, sigma.images]
        except KeyError:
            raise MalformedStructureError(f"missing sigma entry ({op!r}, {sigma.images})")

    def compose(self, outer, inners: tuple):
        inners = tuple(inners)
        self.check_composite(outer, inners)
        if not inners:
            return outer
        try:
            return self.gamma[outer, inners]
        except KeyError:
            raise MalformedStructureError(f"missing gamma entry ({outer!r}, {inners!r})")


@dataclass(frozen=True)
class MulticatView(Multicat):
    """A multicategory whose tables are computed on demand.

    ``objects`` may be ``None`` when the object class is infinite;
    enumeration then requires an explicit window.
    """

    name: str
    objects: tuple | None
    max_arity: int | None
    ops_fn: Callable
    unit_fn: Callable
    output_fn: Callable
    profile_fn: Callable
    act_fn: Callable
    compose_fn: Callable

    def ops(self, target, profile: Profile) -> tuple:
        return tuple(self.ops_fn(target, tuple(profile)))

    def unit(self, obj):
        return self.unit_fn(obj)

    def output_of(self, op):
        return self.output_fn(op)

    def profile_of(self, op) -> Profile:
        return tuple(self.profile_fn(op))

    def act(self, op, sigma: Permutation):
        if sigma.degree != self.arity_of(op):
            raise ComposabilityError(f"degree {sigma.degree} action on arity {self.arity_of(op)}")
        return self.act_fn(op, sigma)

    def compose(self, outer, inners: tuple):
        inners = tuple(inners)
        self.check_composite(outer, inners)
        if not inners:
            return outer
        return self.compose_fn(outer, inners)


def terminal_multicat(max_arity: int) -> FinMulticat:
    """One object, one n-ary operation for each arity within the bound."""
    obj = "*"
    operations = {f"i{n}": (obj, (obj,) * n) for n in range(max_arity + 1)}
    sigma = {}
    for n in range(max_arity + 1):
        for perm in all_perms(n):
            sigma[f"i{n}", perm.images] = f"i{n}"
    gamma = {}
    for n in range(1, max_arity + 1):
        for ks in itertools.product(range(max_arity + 1), repeat=n):
            if sum(ks) <= max_arity:
                gamma[f"i{n}", tuple(f"i{k}" for k in ks)] = f"i{sum(ks)}"
    return FinMulticat("terminal", (obj,), max_arity,
                       operations, {obj: "i1"}, sigma, gamma)


def initial_operad(max_arity: int = 4) -> FinMulticat:
    """One object whose only operation is the unit."""
    obj = "*"
    operations = {"1": (obj, (obj,))}
    sigma = {("1", (1,)): "1"}
    gamma = {("1", ("1",)): "1"}
    return FinMulticat("initial", (obj,), max_arity,
                       operations, {obj: "1"}, sigma, gamma)


@dataclass(frozen=True)
class Multifunctor:
    """An assignment of objects and operations preserving units, actions,
    and composition (validated, not assumed)."""

    source: Multicat
    target: Multicat
    obj_map: Callable
    op_map: Callable

    def on_obj(self, c):
        return self.obj_map(c)

    def on_op(self, op):
        return self.op_map(op)


def identity_multifunctor(M: Multicat) -> Multifunctor:
    return Multifunctor(M, M, lambda c: c, lambda op: op)


def compose_multifunctors(Q: Multifunctor, P: Multifunctor) -> Multifunctor:
    return Multifunctor(P.source, Q.target,
                        lambda c: Q.on_obj(P.on_obj(c)),
                        lambda op: Q.on_op(P.on_op(op)))


@dataclass(frozen=True)
class MultiNat:
    """Components ``c -> unary operation theta_c`` between two parallel
    multifunctors."""

    source: Multifunctor
    target: Multifunctor
    components: Callable

    def at(self, c):
        return self.components(c)


def identity_multinat(P: Multifunctor) -> MultiNat:
    return MultiNat(P, P, lambda c: P.target.unit(P.on_obj(c)))


def multinat_vcomp(beta: MultiNat, theta: MultiNat) -> MultiNat:
    """``(beta theta)_c = gamma(beta_c; theta_c)``.

    Boundary agreement (target of ``theta`` = source of ``beta``) is the
    caller's responsibility; function-backed multifunctors cannot be
    compared for equality.
    """
    N = theta.source.target
    return MultiNat(theta.source, beta.target,
                    lambda c: N.compose(beta.at(c), (theta.at(c),)))


def multinat_hcomp(theta2: MultiNat, theta: MultiNat) -> MultiNat:
    """``(theta2 * theta)_c = gamma(theta2_{Qc}; P2(theta_c))`` for
    ``theta: P -> Q`` and ``theta2: P2 -> Q2``."""
    L = theta2.source.target
    Q = theta.target
    P2 = theta2.source

    def component(c):
        return L.compose(theta2.at(Q.on_obj(c)), (P2.on_op(theta.at(c)),))

    return MultiNat(compose_multifunctors(theta2.source, theta.source),
                    compose_multifunctors(theta2.target, theta.target),
                    component)


def _op_entries(M: Multicat, objects: Sequence, max_arity: int) -> list[tuple]:
    """``(output, profile, op)`` for every operation within the window,
    grouped by boundary in object-then-profile order."""
    return [(target, profile, op)
            for target in objects
            for profile in profiles(objects, max_arity)
            for op in M.ops(target, profile)]


def _window(M: Multicat, max_arity: int | None, objects: Sequence | None) -> tuple:
    """``(bound, objects, entries)`` of a validator: the arity bound is
    ``M``'s own unless given, the object window all of ``M``'s objects
    unless given, and the entries are :func:`_op_entries` within both."""
    A = max_arity if max_arity is not None else M.max_arity
    if A is None:
        raise ValueError("an arity bound is required")
    objs = tuple(objects) if objects is not None else M.object_list()
    return A, objs, _op_entries(M, objs, A)


def _by_output(entries: Iterable[tuple]) -> dict:
    """``output -> [(profile, op), ...]`` over ``(output, profile, op)``
    entries, each list in entry order: the slot index of :func:`_inner_tuples`."""
    by_output = {}
    for target, profile, op in entries:
        by_output.setdefault(target, []).append((profile, op))
    return by_output


def _inner_tuples(by_output: dict, input_profile: Profile, budget: int) -> list[tuple]:
    """All tuples of operations matching the input profile slotwise, with
    total arity at most ``budget``, lexicographic in slot order."""
    tuples = [((), budget)]
    for slot in input_profile:
        tuples = [(ops + (op,), left - len(profile))
                  for ops, left in tuples
                  for profile, op in by_output.get(slot, ())
                  if len(profile) <= left]
    return [ops for ops, _ in tuples]


def validate_multicat(M: Multicat, max_arity: int | None = None,
                      objects: Sequence | None = None) -> CheckReport:
    """Exhaustively check the multicategory axioms within the bound.

    Composition instances that cannot be evaluated within the arity bound,
    or that a view refuses to evaluate (outside its supported fragment),
    are unknown and not counted.  An instance with an ill-typed leg (a
    missing table entry or a boundary mismatch) is a counted violation
    witnessed ``ill-typed``.

    The window operations are numbered once, and each composite and each
    action of them is cached per call under the indices of its operands
    (and the images of the permutation; see the memo rule in the README),
    as the window's own operation with its index when it is one, so the
    next composition or action of a leg is a lookup too.  An operand
    outside the window is composed or acted on by value.  The tuples of
    window operations that fill a slot profile are enumerated once per
    profile and call, for composition typing and associativity alike.
    """
    A, objs, entries = _window(M, max_arity, objects)
    report = CheckReport(getattr(M, "name", "multicat"))
    ops = [op for _, _, op in entries]
    index = {}
    for i, op in enumerate(ops):
        index.setdefault(op, i)
    window = [(op, index[op]) for op in ops]
    by_output = _by_output((target, profile, index[op]) for target, profile, op in entries)
    arity = [len(profile) for _, profile, _ in entries]
    perms = functools.cache(lambda n: list(all_perms(n)))

    def numbered(op) -> tuple:
        """``op`` with its window index: the window's own pair when ``op``
        is a window operation, ``(op, None)`` otherwise."""
        i = index.get(op)
        return (op, None) if i is None else window[i]

    def values(js: tuple) -> tuple:
        return tuple(map(ops.__getitem__, js))

    slot_tuples = functools.cache(
        lambda profile: [(js, values(js)) for js in _inner_tuples(by_output, profile, A)])
    window_composite = functools.cache(lambda i, js: numbered(M.compose(ops[i], values(js))))
    window_action = functools.cache(
        lambda i, images: numbered(M.act(ops[i], Permutation(images))))

    def composite(outer: tuple, js: tuple) -> tuple:
        """The numbered ``outer`` composed with the window operations
        ``js``, numbered."""
        value, i = outer
        if i is None:
            return numbered(M.compose(value, values(js)))
        return window_composite(i, js)

    def compose(outer: tuple, inners: tuple) -> tuple:
        """:func:`composite` with numbered inner operations."""
        js = tuple(j for _, j in inners)
        if None in js:
            return numbered(M.compose(outer[0], tuple(op for op, _ in inners)))
        return composite(outer, js)

    def act(op: tuple, sigma: Permutation) -> tuple:
        """The numbered ``op`` acted on by ``sigma``, numbered."""
        value, i = op
        if i is None:
            return numbered(M.act(value, sigma))
        return window_action(i, sigma.images)

    for c in objs:
        u = M.unit(c)
        report.expect("unit-typing", (M.output_of(u), M.profile_of(u)), (c, (c,)), ("unit", c))

    for (_, profile, _), op in zip(entries, window):
        n = len(profile)
        report.evaluate("symmetry-identity", lambda: act(op, identity_perm(n))[0],
                        lambda: op[0], ("id-action", op[0]))
        for s in perms(n):
            def boundary():
                acted = act(op, s)[0]
                return M.output_of(acted), M.profile_of(acted)

            report.evaluate("symmetry-typing", boundary,
                            lambda: (M.output_of(op[0]), perm_act(s, profile)),
                            ("boundary", op[0], s.images))
            for t in perms(n):
                report.evaluate("symmetry-action",
                                lambda: act(act(op, s), t)[0],
                                lambda: act(op, perm_compose(s, t))[0],
                                (op[0], s.images, t.images))

    for (_, profile, _), op in zip(entries, window):
        target = M.output_of(op[0])
        report.evaluate("left-unity", lambda: compose(numbered(M.unit(target)), (op,))[0],
                        lambda: op[0], ("left", op[0]))
        if profile:
            units = tuple(numbered(M.unit(x)) for x in profile)
            report.evaluate("right-unity", lambda: compose(op, units)[0], lambda: op[0],
                            ("right", op[0]))

    composables = []
    for (_, profile, _), outer in zip(entries, window):
        if not profile:
            continue
        for js, inners in slot_tuples(profile):
            # only composites that could be typed enter the index that the
            # equivariance and associativity checks run over
            def typed_composite():
                result = composite(outer, js)
                boundary = (M.output_of(result[0]), M.profile_of(result[0]))
                composables.append((outer, js, inners, result))
                return boundary

            report.evaluate("composition-typing", typed_composite,
                            lambda: (M.output_of(outer[0]),
                                     tuple(x for op in inners for x in M.profile_of(op))),
                            (outer[0], inners))

    for outer, js, inners, result in composables:
        arities = tuple(M.arity_of(op) for op in inners)
        for s in perms(len(js)):
            report.evaluate("top-equivariance",
                            lambda: composite(act(outer, s), perm_act(s, js))[0],
                            lambda: act(result, block_perm(s, arities))[0],
                            (outer[0], inners, s.images))
        for taus in itertools.product(*(perms(k) for k in arities)):
            report.evaluate("bottom-equivariance",
                            lambda: compose(outer, tuple(
                                act(window[j], t) for j, t in zip(js, taus)))[0],
                            lambda: act(result, block_sum(taus))[0],
                            (outer[0], inners, tuple(t.images for t in taus)))

    for outer, mids, middles, mid_comp in composables:
        flat = tuple(x for m in middles for x in M.profile_of(m))
        ends = tuple(itertools.accumulate(arity[m] for m in mids))
        chunked = tuple(zip(mids, (0,) + ends, ends))
        for leaves, leaf_ops in slot_tuples(flat):
            report.evaluate("associativity",
                            lambda: composite(mid_comp, leaves)[0],
                            lambda: compose(outer, tuple(
                                window_composite(m, leaves[start:end])
                                for m, start, end in chunked))[0],
                            (outer[0], middles, leaf_ops))

    return report


def validate_multifunctor(H: Multifunctor, max_arity: int | None = None,
                          objects: Sequence | None = None) -> CheckReport:
    """Check unit, symmetry and composition preservation within the bound."""
    M, N = H.source, H.target
    A, objs, entries = _window(M, max_arity, objects)
    report = CheckReport("multifunctor")
    by_output = _by_output(entries)
    slot_tuples = functools.cache(lambda profile: _inner_tuples(by_output, profile, A))

    for c in objs:
        report.evaluate("unit-preservation", lambda: H.on_op(M.unit(c)),
                        lambda: N.unit(H.on_obj(c)), ("unit", c))

    all_ops = [(profile, op) for _, profile, op in entries]
    for profile, op in all_ops:
        def image_boundary():
            image = H.on_op(op)
            return (N.output_of(image), N.profile_of(image))

        report.evaluate("boundary-preservation", image_boundary,
                        lambda: (H.on_obj(M.output_of(op)),
                                 tuple(H.on_obj(x) for x in profile)),
                        ("boundary", op))
        for s in all_perms(len(profile)):
            report.evaluate("symmetry-preservation",
                            lambda: H.on_op(M.act(op, s)),
                            lambda: N.act(H.on_op(op), s), (op, s.images))

    for profile, outer in all_ops:
        if not profile:
            continue
        for inners in slot_tuples(profile):
            report.evaluate("composition-preservation",
                            lambda: H.on_op(M.compose(outer, inners)),
                            lambda: N.compose(H.on_op(outer),
                                              tuple(H.on_op(i) for i in inners)),
                            (outer, inners))
    return report


def validate_multinat(theta: MultiNat, max_arity: int | None = None,
                      objects: Sequence | None = None) -> CheckReport:
    """Check the Set-level naturality square of a multinatural
    transformation on every operation within the bound."""
    P, Q = theta.source, theta.target
    M, N = P.source, P.target
    _, objs, entries = _window(M, max_arity, objects)
    report = CheckReport("multinat")

    for c in objs:
        comp = theta.at(c)
        report.expect("component-typing",
                      (N.output_of(comp), N.profile_of(comp)),
                      (Q.on_obj(c), (P.on_obj(c),)), ("component", c))

    for target, profile, op in entries:
        report.evaluate("naturality",
                        lambda: N.compose(theta.at(target), (P.on_op(op),)),
                        lambda: N.compose(Q.on_op(op), tuple(theta.at(x) for x in profile)),
                        ("square", op))
    return report
