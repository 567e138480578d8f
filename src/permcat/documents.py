"""JSON document formats for every finite structure, with canonical
serialization.

Every table of every kind is declared once, as a :class:`Table`: its JSON
field, its key and value columns, the namespace each column resolves in,
the noun naming its rows in messages, and whether it must be total.  One
reader (:func:`_read_table`) turns rows into a dict and one writer
(:func:`_write_table`) turns the dict back into rows; :data:`KINDS` pairs
each kind's reader and writer, which add only the checks that need the
structure itself (composable pairs, sigma, gamma).

Parsing is total-or-error: a document yields a fully resolved structure
with total tables for its declared bounds, or a :class:`DocumentError`.
Each rule is decided once, by one walk in document order that stops at
the first row, cell or key breaking it and names that (syntax with
position, an undeclared or missing field, a repeated id, key or row, an
unresolved reference, a row outside its table's domain, or a missing
table entry, each table's domain walked in its namespaces' order).
Serialization sorts keys and canonically orders every list so identical
structures produce byte-identical documents.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

from .multicat import FinMulticat, gamma_domain
from .permcats import FinPermCat, SymMonFunctor, MonoidalNat, by_source
from .rings import (
    BipermData,
    BraidedRingData,
    EnData,
    NFoldData,
    RingCatData,
    StrictProduct,
)

VERSION = 1


class DocumentError(Exception):
    """A document failed to parse, resolve, or satisfy totality."""


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members, refusing a key that appears twice."""
    table = {}
    for key, value in pairs:
        if key in table:
            raise DocumentError(f"JSON object: duplicate key {key!r}")
        table[key] = value
    return table


def loads(text: str) -> dict:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"syntax error at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}")
    if not isinstance(payload, dict) or "kind" not in payload:
        raise DocumentError("document must be an object with a 'kind' tag")
    if type(payload["kind"]) is not str or payload["kind"] not in KINDS:
        raise DocumentError(f"unknown kind {payload['kind']!r}; "
                            f"expected one of {tuple(KINDS)}")
    version = payload.get("version")
    if type(version) is not int or version != VERSION:
        raise DocumentError(f"unsupported version {version!r}; expected {VERSION}")
    return payload


def _name(payload: dict, default: str, context: str) -> str:
    name = payload.get("name", default)
    if not isinstance(name, str):
        raise DocumentError(f"{context}: name must be a string, not {name!r}")
    return name


# ------------------------------------------------------------------ tables

# The namespaces a column resolves in: the ids a document declares, those of
# a functor's target category, and the product indices 1..n.  NEW marks a
# column of fresh ids, PERM a permutation of the arity of the row's
# operation, and ``(space,)`` a list of ids of ``space``.
OBJ, MOR, OP = "object", "morphism", "operation"
TGT_OBJ, TGT_MOR = "target object", "target morphism"
PRODUCT, PERM, NEW = "product", "permutation", "id"
PLAIN = {OBJ, MOR, OP, TGT_OBJ, TGT_MOR}


@dataclass(frozen=True)
class Table:
    """One table of a document kind.

    ``keys`` and ``values`` are ``(column, namespace)`` pairs.  A table
    without values is a JSON list of fresh ids; one whose key column is
    unnamed is a JSON object ``{key: value}``; any other is a JSON list of
    rows with exactly its columns.  A table whose key column is NEW
    declares the namespace named by its ``noun``.  A ``total`` table has a
    row for every key its key namespaces allow (product indices as pairs
    i < j); a ``per_product`` field holds one such table per product.
    """

    field: str
    noun: str
    keys: tuple
    values: tuple = ()
    total: bool = False
    per_product: bool = False

    @cached_property
    def names(self) -> list:
        """Each column's place in a row, a JSON object's item, or an id's 1-tuple."""
        return [i if name is None else name
                for i, (name, _) in enumerate(self.keys + self.values)]

    @cached_property
    def key_of(self) -> itemgetter:
        return itemgetter(*self.names[:len(self.keys)])

    @cached_property
    def value_of(self):
        """A row's value, ``None`` for a fresh id."""
        return itemgetter(*self.names[len(self.keys):]) if self.values else lambda row: None


PAIR = (("left", OBJ), ("right", OBJ))
MOR_PAIR = (("left", MOR), ("right", MOR))
RESULT, MOR_RESULT, COMPONENT = (("result", OBJ),), (("result", MOR),), (("morphism", MOR),)

OBJECTS = Table("objects", OBJ, ((None, NEW),))
MULTICAT = (
    OBJECTS,
    Table("operations", OP, (("id", NEW),), (("output", OBJ), ("inputs", (OBJ,)))),
    Table("units", "unit row", ((None, OBJ),), ((None, OP),), total=True),
    Table("sigma", "sigma row", (("op", OP), ("perm", PERM)), (("result", OP),)),
    Table("gamma", "gamma row", (("outer", OP), ("inners", (OP,))), (("result", OP),)),
)
PERMCAT = (
    OBJECTS,
    Table("morphisms", MOR, (("id", NEW),), (("src", OBJ), ("tgt", OBJ))),
    Table("identities", "identity row", ((None, OBJ),), ((None, MOR),), total=True),
    Table("composition", "composition row", (("after", MOR), ("before", MOR)),
          MOR_RESULT),
    Table("sum_objects", "sum row", PAIR, RESULT, total=True),
    Table("sum_morphisms", "morphism sum row", MOR_PAIR, MOR_RESULT, total=True),
    Table("symmetries", "symmetry row", PAIR, COMPONENT, total=True),
)
PRODUCT_TABLES = (
    Table("objects", "product object row", PAIR, RESULT, total=True),
    Table("morphisms", "product morphism row", MOR_PAIR, MOR_RESULT, total=True),
)
LEFT = Table("left_factorization", "component row", (("a", OBJ), ("b", OBJ), ("c", OBJ)),
             COMPONENT, total=True)
RIGHT = replace(LEFT, field="right_factorization")
SYMMETRY = Table("multiplicative_symmetry", "component row", PAIR, COMPONENT, total=True)
EXCHANGES = Table("exchanges", "exchange row", (("i", PRODUCT), ("j", PRODUCT)) + tuple(
    (name, OBJ) for name in "abcd"), COMPONENT, total=True)
FUNCTOR = (
    Table("object_map", "object map row", ((None, OBJ),), ((None, TGT_OBJ),), total=True),
    Table("morphism_map", "morphism map row", ((None, MOR),), ((None, TGT_MOR),),
          total=True),
    Table("monoidal_constraint", "component row", PAIR, (("morphism", TGT_MOR),),
          total=True),
)
COMPONENTS = Table("components", "component row", ((None, OBJ),), ((None, TGT_MOR),),
                   total=True)
FLAGS = ("strict", "strictly_unital", "strong")

# ring-family kind -> (category field, product field, tables)
RING_FAMILY = {
    "ring": ("additive", "product", (LEFT, RIGHT)),
    "biperm": ("additive", "product", (LEFT, RIGHT, SYMMETRY)),
    "braided": ("additive", "product", (LEFT, RIGHT, replace(SYMMETRY, field="braiding"))),
    "nfold": ("category", "products", (EXCHANGES,)),
    "en": ("additive", "products", (
        replace(LEFT, field="left_factorizations", per_product=True),
        replace(RIGHT, field="right_factorizations", per_product=True), EXCHANGES)),
}


def _is_id(space, cell, scope: dict, op=None) -> bool:
    """Whether ``cell`` is an id of ``space`` (lists read as tuples); ``op``
    is the row's operation when ``space`` is PERM."""
    if space in PLAIN:
        return type(cell) is str and cell in scope[space]
    if type(space) is tuple:
        return type(cell) is tuple and all(_is_id(space[0], c, scope) for c in cell)
    if space == PERM:
        return type(cell) is tuple and all(type(i) is int for i in cell) \
            and sorted(cell) == list(range(1, len(scope[OP][op][1]) + 1))
    return type(cell) is str if space == NEW else type(cell) is int and cell in scope[PRODUCT]


def _domain(spec: Table, scope: dict):
    """The keys of a total table in its namespaces' order, kept in ``scope``
    for like-keyed tables."""
    if spec.keys not in scope:
        spaces = [scope[space] for _, space in spec.keys]
        scope[spec.keys] = spaces[0].keys() if len(spaces) == 1 else dict.fromkeys(
            pair + key for pair, key in itertools.product(
                itertools.combinations(spaces[0], 2), itertools.product(*spaces[2:]))) \
            if spec.keys[0][1] == PRODUCT else dict.fromkeys(itertools.product(*spaces))
    return scope[spec.keys]


def _read_table(spec: Table, rows, scope: dict, where: str) -> dict:
    """The rows of ``spec`` as a dict from key (a tuple when there are
    several key columns) to value (likewise): every cell resolved in its
    namespace, lists read as tuples, no key twice and, if the table is
    total, every key of its domain present.  One walk in document order
    decides each rule and names the first row, cell or key breaking it."""
    names, key_of, value_of, table = spec.names, spec.key_of, spec.value_of, {}
    columns = [(name, space) for name, (_, space) in zip(names, spec.keys + spec.values)]
    fields = set(names)
    lists = [name for name, space in columns if type(space) is tuple or space == PERM]
    if names[0] == 0:  # a JSON object, or a list of fresh ids
        rows = _typed(rows, dict, where).items() if spec.values \
            else zip(_typed(rows, list, where))
    for row in _typed(rows, list, where) if names[0] != 0 else rows:
        if names[0] != 0:
            for name in lists if type(row) is dict else ():
                if type(row.get(name)) is list:
                    row[name] = tuple(row[name])
            if type(row) is not dict or row.keys() != fields:
                raise DocumentError(f"{where}: {spec.noun} {row!r} must have "
                                    f"exactly the fields {names}")
        for name, space in columns:
            cell = row[name]
            if _is_id(space, cell, scope, row[names[0]]):
                continue
            if space == NEW:
                raise DocumentError(f"{where}: {spec.noun} id must be a string, not {cell!r}")
            if type(space) is tuple and type(cell) is tuple:
                space, cell = space[0], next(c for c in cell if not _is_id(space[0], c, scope))
            elif type(space) is tuple:
                space = f"{space[0]} list"
            raise DocumentError(f"{where}: {spec.noun} references unknown {space} {cell!r}")
        key = key_of(row)
        if key in table:
            raise DocumentError(f"{where}: duplicate {spec.noun} {key!r}")
        table[key] = value_of(row)
    if spec.total:
        domain = _domain(spec, scope)
        for key in table:
            if key not in domain:
                raise _outside_domain(where, spec.noun, key)
        for key in domain:
            if key not in table:
                raise DocumentError(f"{where}: not total: no {spec.noun} for {key!r}")
    if spec.keys[0][1] == NEW:
        scope[spec.noun] = table
    return table


def _outside_domain(where: str, noun: str, key) -> DocumentError:
    return DocumentError(f"{where}: {noun} {key!r} lies outside the table's domain")


def _read_tables(payload: dict, tables: tuple, scope: dict, context: str) -> list:
    out = []
    for spec in tables:
        rows, where = payload[spec.field], f"{context}: {spec.field}"
        if not spec.per_product:
            out.append(_read_table(spec, rows, scope, where))
        elif len(_typed(rows, list, where)) != len(scope[PRODUCT]):
            raise DocumentError(f"{where}: {len(rows)} tables for "
                                f"{len(scope[PRODUCT])} products")
        else:
            out.append(tuple(_read_table(spec, table, scope, f"{where}[{i}]")
                             for i, table in enumerate(rows)))
    return out


def _write_table(spec: Table, table):
    """The JSON form of a table :func:`_read_table` returns, in key order."""
    if spec.per_product:
        return [_write_table(replace(spec, per_product=False), t) for t in table]
    if not spec.values:
        return sorted(table)
    if spec.names[0] == 0:
        return {key: table[key] for key in sorted(table)}
    one_key, one_value = len(spec.keys) == 1, len(spec.values) == 1
    return [dict(zip(spec.names, ((key,) if one_key else key)
                     + ((value,) if one_value else value)))
            for key, value in sorted(table.items())]


def _write_tables(tables: tuple, values) -> dict:
    return {spec.field: _write_table(spec, table) for spec, table in zip(tables, values)}


def _scalar(space: str, payload: dict, field: str, scope: dict, context: str):
    """The id of ``space`` a document's ``field`` holds."""
    if _is_id(space, payload[field], scope):
        return payload[field]
    raise DocumentError(f"{context}: {field} references unknown {space} {payload[field]!r}")


def _typed(value, kind: type, where: str):
    if type(value) is not kind:
        raise DocumentError(f"{where} must be a JSON {kind.__name__}, "
                            f"not {type(value).__name__}")
    return value


def _fields(payload, context: str, tables: tuple, required=(), optional=(),
            kind: str = "") -> dict:
    """``payload`` as a JSON object with every field of ``tables`` and
    ``required``, perhaps the ``optional`` ones and no other; a document of
    ``kind`` nested in another may repeat its ``kind`` and ``version``."""
    declared = [spec.field for spec in tables] + list(required)
    allowed = {*declared, *optional, *(("kind", "version") if kind else ())}
    for field in _typed(payload, dict, context):
        if field not in allowed:
            raise DocumentError(f"{context}: undeclared field {field!r}")
    for field in declared:
        if field not in payload:
            raise DocumentError(f"{context}: missing field {field!r}")
    for field, expected in (("kind", kind), ("version", VERSION)) if kind else ():
        value = payload.get(field, expected)
        if type(value) is not type(expected) or value != expected:
            raise DocumentError(f"{context}: {field} must be {expected!r}, not {value!r}")
    return payload


# ------------------------------------------------------------------- kinds

def _read_multicat(payload, context: str) -> FinMulticat:
    p = _fields(payload, context, MULTICAT, ("max_arity",), ("name",), "multicat")
    max_arity = p["max_arity"]
    if type(max_arity) is not int or max_arity < 0:
        raise DocumentError(f"{context}: max_arity must be an integer >= 0, "
                            f"not {max_arity!r}")
    objects, operations, units, sigma, gamma = _read_tables(p, MULTICAT, {}, context)
    for op, (out, profile) in operations.items():
        if len(profile) > max_arity:
            raise DocumentError(f"{context}: operation {op!r} exceeds "
                                f"the arity bound {max_arity}")
    for op, (out, profile) in operations.items():  # Sigma_n in lexicographic order
        for images in itertools.permutations(range(1, len(profile) + 1)):
            if (op, images) not in sigma:
                raise DocumentError(f"{context}: sigma table not total: "
                                    f"missing ({op!r}, {images})")
    domain = gamma_domain(operations, max_arity)
    for op, inners in domain:
        if (op, inners) not in gamma:
            raise DocumentError(f"{context}: gamma table not total: "
                                f"missing ({op!r}, {inners!r})")
    domain = set(domain)
    for key in gamma:  # a row for inners that do not compose within the bound
        if key not in domain:
            raise _outside_domain(f"{context}: gamma", "gamma row", key)
    return FinMulticat(_name(p, "multicat", context), tuple(objects), max_arity,
                       operations, units, sigma, gamma)


def _write_multicat(M: FinMulticat) -> dict:
    return {"kind": "multicat", "version": VERSION, "name": M.name, "max_arity": M.max_arity,
            **_write_tables(MULTICAT, (M.objects, M.operations, M.units, M.sigma, M.gamma))}


def _read_permcat(payload, context: str) -> FinPermCat:
    p = _fields(payload, context, PERMCAT, ("unit",), ("name",), "permcat")
    scope = {}
    objects, morphisms, identities, composition, sums, mor_sums, symmetries = \
        _read_tables(p, PERMCAT, scope, context)
    after = by_source(lambda g: morphisms[g][0], morphisms)
    for f, (_, tgt) in morphisms.items():
        for g in after.get(tgt, ()):
            if (g, f) not in composition:
                raise DocumentError(f"{context}: composition table not total: "
                                    f"missing ({g!r}, {f!r})")
    for g, f in composition:  # a row for a pair that does not compose
        if morphisms[g][0] != morphisms[f][1]:
            raise _outside_domain(f"{context}: composition", "composition row", (g, f))
    return FinPermCat(_name(p, "permcat", context), tuple(objects),
                      {f: src for f, (src, _) in morphisms.items()},
                      {f: tgt for f, (_, tgt) in morphisms.items()},
                      identities, composition, _scalar(OBJ, p, "unit", scope, context),
                      sums, mor_sums, symmetries)


def _write_permcat(C: FinPermCat, kind: str = "permcat") -> dict:
    return {"version": VERSION, "name": C.name, "unit": C.unit, **_write_tables(PERMCAT, (
        C.objects, {f: (C.mor_src[f], C.mor_tgt[f]) for f in C.mor_src},
        C.identities, C.composition, C.sums, C.mor_sums, C.symmetries)),
        **({"kind": kind} if kind else {})}


def _read_product(payload, scope: dict, context: str) -> StrictProduct:
    p = _fields(payload, context, PRODUCT_TABLES, ("unit",))
    return StrictProduct(_scalar(OBJ, p, "unit", scope, context),
                         *_read_tables(p, PRODUCT_TABLES, scope, context))


def _write_product(P: StrictProduct) -> dict:
    return {"unit": P.unit, **_write_tables(PRODUCT_TABLES, (P.obj_table, P.mor_table))}


def _read_ring_family(payload, context: str, kind: str) -> tuple:
    """``(name, category, product or products, *tables)`` of a document of a
    kind in :data:`RING_FAMILY`."""
    category_field, product_field, tables = RING_FAMILY[kind]
    p = _fields(payload, context, tables, (category_field, product_field), ("name",), kind)
    category = _read_permcat(p[category_field], f"{context}: {category_field}")
    scope = {OBJ: dict.fromkeys(category.objects), MOR: category.mor_src}
    where = f"{context}: {product_field}"
    if product_field == "product":
        products = _read_product(p[product_field], scope, where)
    else:
        products = tuple(_read_product(P, scope, f"{where}[{i}]")
                         for i, P in enumerate(_typed(p[product_field], list, where)))
        scope[PRODUCT] = range(1, len(products) + 1)
    return (_name(p, kind, context), category, products,
            *_read_tables(p, tables, scope, context))


def _write_ring_family(kind: str, name: str, category, products, *tables) -> dict:
    category_field, product_field, specs = RING_FAMILY[kind]
    return {"kind": kind, "version": VERSION, "name": name,
            category_field: _write_permcat(category, ""),
            product_field: _write_product(products) if product_field == "product"
            else [_write_product(P) for P in products], **_write_tables(specs, tables)}


def _read_ring(payload, context: str, kind: str = "ring") -> tuple:
    """The ring of a ``ring``, ``biperm`` or ``braided`` document, then the
    rest of its tables."""
    parts = _read_ring_family(payload, context, kind)
    return RingCatData(*parts[:5]), *parts[5:]


def _ring_parts(R: RingCatData) -> tuple:
    return R.name, R.additive, R.product, R.left_fact, R.right_fact


def _read_functor(payload, context: str) -> SymMonFunctor:
    p = _fields(payload, context, FUNCTOR, ("source", "target", "unit_constraint"),
                ("flags",), "functor")
    source = _read_permcat(p["source"], f"{context}: source")
    target = _read_permcat(p["target"], f"{context}: target")
    scope = {OBJ: dict.fromkeys(source.objects), MOR: source.mor_src,
             TGT_OBJ: dict.fromkeys(target.objects), TGT_MOR: target.mor_src}
    flags = _fields(p.get("flags", {}), f"{context}: flags", (), (), FLAGS)
    for name, value in flags.items():
        if type(value) is not bool:
            raise DocumentError(f"{context}: flag {name!r} must be a boolean, "
                                f"not {value!r}")
    obj_map, mor_map, m2 = _read_tables(p, FUNCTOR, scope, context)
    return SymMonFunctor(source, target, obj_map.__getitem__, mor_map.__getitem__,
                         lambda x, y: m2[x, y],
                         _scalar(TGT_MOR, p, "unit_constraint", scope, context), **flags)


def _write_functor(P: SymMonFunctor) -> dict:
    C = P.source
    return {"kind": "functor", "version": VERSION, "source": _write_permcat(C),
            "target": _write_permcat(P.target), "unit_constraint": P.unit_constraint(),
            "flags": {flag: getattr(P, flag) for flag in FLAGS}, **_write_tables(FUNCTOR, (
                {x: P.on_obj(x) for x in C.objects}, {f: P.on_mor(f) for f in C.mor_src},
                {(x, y): P.monoidal(x, y) for x, y in itertools.product(C.objects, repeat=2)}
            ))}


def _read_multinat(payload, context: str) -> MonoidalNat:
    p = _fields(payload, context, (COMPONENTS,), ("source", "target"), (), "multinat")
    source = _read_functor(p["source"], f"{context}: source")
    target = _read_functor(p["target"], f"{context}: target")
    for end in ("source", "target"):    # the same tables; names may differ
        if replace(getattr(source, end), name="") != replace(getattr(target, end), name=""):
            raise DocumentError(f"{context}: the two functors have different {end} categories")
    scope = {OBJ: dict.fromkeys(source.source.objects), TGT_MOR: source.target.mor_src}
    (components,) = _read_tables(p, (COMPONENTS,), scope, context)
    return MonoidalNat(source, target, components.__getitem__)


def _write_multinat(theta: MonoidalNat) -> dict:
    return {"kind": "multinat", "version": VERSION, "source": _write_functor(theta.source),
            "target": _write_functor(theta.target), **_write_tables((COMPONENTS,), (
                {x: theta.at(x) for x in theta.source.source.objects},))}


# kind -> (reader, writer)
KINDS = {
    "multicat": (_read_multicat, _write_multicat),
    "permcat": (_read_permcat, _write_permcat),
    "ring": (lambda p, context: _read_ring(p, context)[0],
             lambda R: _write_ring_family("ring", *_ring_parts(R))),
    "biperm": (lambda p, context: BipermData(*_read_ring(p, context, "biperm")),
               lambda B: _write_ring_family("biperm", *_ring_parts(B.ring), B.mult_symmetry)),
    "braided": (lambda p, context: BraidedRingData(*_read_ring(p, context, "braided")),
                lambda B: _write_ring_family("braided", *_ring_parts(B.ring), B.braiding)),
    "nfold": (lambda p, context: NFoldData(*_read_ring_family(p, context, "nfold")),
              lambda D: _write_ring_family("nfold", D.name, D.category, D.products,
                                           D.exchanges)),
    "en": (lambda p, context: EnData(*_read_ring_family(p, context, "en")),
           lambda E: _write_ring_family("en", E.name, E.additive, E.products,
                                        E.left_facts, E.right_facts, E.exchanges)),
    "functor": (_read_functor, _write_functor),
    "multinat": (_read_multinat, _write_multinat),
}


def parse_document(text: str):
    """Parse any supported document; returns ``(kind, structure)``."""
    payload = loads(text)
    kind = payload["kind"]
    return kind, KINDS[kind][0](payload, f"{kind} document")


def serialize(kind: str, structure) -> str:
    return dumps(KINDS[kind][1](structure))
