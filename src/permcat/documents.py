"""JSON document formats for every finite structure, with canonical
serialization.

Parsing is total-or-error: a document yields a fully resolved structure
with total tables for its declared bounds, or a :class:`DocumentError`
naming the problem (syntax with position, unresolved reference, or a
missing table entry).  Serialization sorts keys and canonically orders
every list so identical structures produce byte-identical documents.
"""
from __future__ import annotations

import json
from typing import Mapping

from .multicat import FinMulticat, _by_output, _inner_tuples
from .permcats import FinPermCat, SymMonFunctor, MonoidalNat
from .perms import all_perms
from .rings import (
    BipermData,
    BraidedRingData,
    EnData,
    NFoldData,
    RingCatData,
    StrictProduct,
)

VERSION = 1

KINDS = ("multicat", "permcat", "ring", "biperm", "braided", "nfold", "en",
         "functor", "multinat")


class DocumentError(Exception):
    """A document failed to parse, resolve, or satisfy totality."""


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members, refusing a key that appears twice."""
    table = dict(pairs)
    if len(table) < len(pairs):
        seen = {}
        for key, value in pairs:
            _put(seen, key, value, "JSON object", "key")
    return table


def loads(text: str) -> dict:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"syntax error at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}")
    if not isinstance(payload, dict) or "kind" not in payload:
        raise DocumentError("document must be an object with a 'kind' tag")
    if payload["kind"] not in KINDS:
        raise DocumentError(f"unknown kind {payload['kind']!r}; expected one of {KINDS}")
    version = payload.get("version")
    if type(version) is not int or version != VERSION:
        raise DocumentError(f"unsupported version {version!r}; expected {VERSION}")
    return payload


def _need(payload: Mapping, key: str, context: str):
    if key not in payload:
        raise DocumentError(f"{context}: missing field {key!r}")
    return payload[key]


def _put(table: dict, key, value, context: str, what: str) -> None:
    if key in table:
        raise DocumentError(f"{context}: duplicate {what} {key!r}")
    table[key] = value


def _name(payload: Mapping, default: str, context: str) -> str:
    name = payload.get("name", default)
    if not isinstance(name, str):
        raise DocumentError(f"{context}: name must be a string, not {name!r}")
    return name


# ---------------------------------------------------------------- multicat

def multicat_to_doc(M: FinMulticat) -> dict:
    return {
        "kind": "multicat",
        "version": VERSION,
        "name": M.name,
        "max_arity": M.max_arity,
        "objects": sorted(M.objects),
        "operations": sorted(
            ({"id": op, "output": out, "inputs": list(profile)}
             for op, (out, profile) in M.operations.items()),
            key=lambda r: r["id"]),
        "units": {obj: M.units[obj] for obj in sorted(M.units)},
        "sigma": sorted(
            ({"op": op, "perm": list(images), "result": result}
             for (op, images), result in M.sigma.items()),
            key=lambda r: (r["op"], r["perm"])),
        "gamma": sorted(
            ({"outer": outer, "inners": list(inners), "result": result}
             for (outer, inners), result in M.gamma.items()),
            key=lambda r: (r["outer"], r["inners"])),
    }


def multicat_from_doc(payload: Mapping) -> FinMulticat:
    context = "multicat document"
    objects = tuple(_need(payload, "objects", context))
    max_arity = int(_need(payload, "max_arity", context))
    operations = {}
    for record in _need(payload, "operations", context):
        out = record["output"]
        inputs = tuple(record["inputs"])
        for obj in (out,) + inputs:
            if obj not in objects:
                raise DocumentError(f"{context}: operation {record['id']!r} "
                                    f"references unknown object {obj!r}")
        if len(inputs) > max_arity:
            raise DocumentError(f"{context}: operation {record['id']!r} exceeds "
                                f"the arity bound {max_arity}")
        _put(operations, record["id"], (out, inputs), context, "operation")

    def resolve(op, where):
        if op not in operations:
            raise DocumentError(f"{context}: {where} references unknown "
                                f"operation {op!r}")
        return op

    units = {}
    for obj, op in _need(payload, "units", context).items():
        units[obj] = resolve(op, f"unit of {obj!r}")
    for obj in objects:
        if obj not in units:
            raise DocumentError(f"{context}: no unit for object {obj!r}")

    sigma = {}
    for record in _need(payload, "sigma", context):
        op = resolve(record["op"], "sigma row")
        _put(sigma, (op, tuple(record["perm"])), resolve(record["result"], "sigma row"),
             context, "sigma row")
    gamma = {}
    for record in _need(payload, "gamma", context):
        outer = resolve(record["outer"], "gamma row")
        inners = tuple(resolve(i, "gamma row") for i in record["inners"])
        _put(gamma, (outer, inners), resolve(record["result"], "gamma row"),
             context, "gamma row")

    M = FinMulticat(_name(payload, "multicat", context), objects, max_arity,
                    operations, units, sigma, gamma)
    for op, (out, profile) in operations.items():
        for perm in all_perms(len(profile)):
            if (op, perm.images) not in sigma:
                raise DocumentError(f"{context}: sigma table not total: "
                                    f"missing ({op!r}, {perm.images})")
    by_output = _by_output((out, profile, op) for op, (out, profile) in operations.items())
    for op, (out, profile) in operations.items():
        if not profile:
            continue
        for inners in _inner_tuples(by_output, profile, max_arity):
            if (op, inners) not in gamma:
                raise DocumentError(f"{context}: gamma table not total: "
                                    f"missing ({op!r}, {inners!r})")
    return M


# ----------------------------------------------------------------- permcat

def permcat_to_doc(C: FinPermCat, kind: str = "permcat") -> dict:
    return {
        "kind": kind,
        "version": VERSION,
        "name": C.name,
        "objects": sorted(C.objects),
        "morphisms": sorted(
            ({"id": f, "src": C.mor_src[f], "tgt": C.mor_tgt[f]}
             for f in C.mor_src),
            key=lambda r: r["id"]),
        "identities": {x: C.identities[x] for x in sorted(C.identities)},
        "composition": sorted(
            ({"after": g, "before": f, "result": r}
             for (g, f), r in C.composition.items()),
            key=lambda r: (r["after"], r["before"])),
        "unit": C.unit,
        "sum_objects": sorted(
            ({"left": x, "right": y, "result": r} for (x, y), r in C.sums.items()),
            key=lambda r: (r["left"], r["right"])),
        "sum_morphisms": sorted(
            ({"left": f, "right": g, "result": r}
             for (f, g), r in C.mor_sums.items()),
            key=lambda r: (r["left"], r["right"])),
        "symmetries": sorted(
            ({"left": x, "right": y, "morphism": m}
             for (x, y), m in C.symmetries.items()),
            key=lambda r: (r["left"], r["right"])),
    }


def permcat_from_doc(payload: Mapping) -> FinPermCat:
    context = f"{payload.get('kind', 'permcat')} document"
    objects = tuple(_need(payload, "objects", context))
    mor_src = {}
    mor_tgt = {}
    for record in _need(payload, "morphisms", context):
        for obj in (record["src"], record["tgt"]):
            if obj not in objects:
                raise DocumentError(f"{context}: morphism {record['id']!r} "
                                    f"references unknown object {obj!r}")
        _put(mor_src, record["id"], record["src"], context, "morphism")
        mor_tgt[record["id"]] = record["tgt"]

    def resolve_mor(f, where):
        if f not in mor_src:
            raise DocumentError(f"{context}: {where} references unknown "
                                f"morphism {f!r}")
        return f

    def resolve_obj(x, where):
        if x not in objects:
            raise DocumentError(f"{context}: {where} references unknown "
                                f"object {x!r}")
        return x

    identities = {}
    for x, f in _need(payload, "identities", context).items():
        identities[resolve_obj(x, "identity row")] = resolve_mor(f, "identity row")
    for x in objects:
        if x not in identities:
            raise DocumentError(f"{context}: no identity for object {x!r}")

    composition = {}
    for record in _need(payload, "composition", context):
        g = resolve_mor(record["after"], "composition row")
        f = resolve_mor(record["before"], "composition row")
        _put(composition, (g, f), resolve_mor(record["result"], "composition row"),
             context, "composition row")
    for f in mor_src:
        for g in mor_src:
            if mor_tgt[f] == mor_src[g] and (g, f) not in composition:
                raise DocumentError(f"{context}: composition table not total: "
                                    f"missing ({g!r}, {f!r})")

    unit = resolve_obj(_need(payload, "unit", context), "unit")
    sums = {}
    for record in _need(payload, "sum_objects", context):
        _put(sums, (resolve_obj(record["left"], "sum row"),
                    resolve_obj(record["right"], "sum row")),
             resolve_obj(record["result"], "sum row"), context, "sum row")
    mor_sums = {}
    for record in _need(payload, "sum_morphisms", context):
        _put(mor_sums, (resolve_mor(record["left"], "morphism sum row"),
                        resolve_mor(record["right"], "morphism sum row")),
             resolve_mor(record["result"], "morphism sum row"),
             context, "morphism sum row")
    symmetries = {}
    for record in _need(payload, "symmetries", context):
        _put(symmetries, (resolve_obj(record["left"], "symmetry row"),
                          resolve_obj(record["right"], "symmetry row")),
             resolve_mor(record["morphism"], "symmetry row"),
             context, "symmetry row")
    for x in objects:
        for y in objects:
            if (x, y) not in sums:
                raise DocumentError(f"{context}: object sum table not total: "
                                    f"missing ({x!r}, {y!r})")
            if (x, y) not in symmetries:
                raise DocumentError(f"{context}: symmetry table not total: "
                                    f"missing ({x!r}, {y!r})")
    for f in mor_src:
        for g in mor_src:
            if (f, g) not in mor_sums:
                raise DocumentError(f"{context}: morphism sum table not total: "
                                    f"missing ({f!r}, {g!r})")
    return FinPermCat(_name(payload, "permcat", context), objects, mor_src, mor_tgt,
                      identities, composition, unit, sums, mor_sums, symmetries)


# ------------------------------------------------------------------- rings

def _product_to_doc(P: StrictProduct) -> dict:
    return {
        "unit": P.unit,
        "objects": sorted(
            ({"left": x, "right": y, "result": r}
             for (x, y), r in P.obj_table.items()),
            key=lambda r: (r["left"], r["right"])),
        "morphisms": sorted(
            ({"left": f, "right": g, "result": r}
             for (f, g), r in P.mor_table.items()),
            key=lambda r: (r["left"], r["right"])),
    }


def _product_from_doc(payload: Mapping, C: FinPermCat, context: str) -> StrictProduct:
    obj_table = {}
    for record in _need(payload, "objects", context):
        _put(obj_table, (record["left"], record["right"]), record["result"],
             context, "product object row")
    mor_table = {}
    for record in _need(payload, "morphisms", context):
        _put(mor_table, (record["left"], record["right"]), record["result"],
             context, "product morphism row")
    for x in C.objects:
        for y in C.objects:
            if (x, y) not in obj_table:
                raise DocumentError(f"{context}: product object table not total")
    for f in C.morphisms():
        for g in C.morphisms():
            if (f, g) not in mor_table:
                raise DocumentError(f"{context}: product morphism table not total")
    return StrictProduct(_need(payload, "unit", context), obj_table, mor_table)


def _components_to_doc(table: Mapping, names: tuple) -> list:
    out = []
    for key, mor in table.items():
        record = dict(zip(names, key))
        record["morphism"] = mor
        out.append(record)
    return sorted(out, key=lambda r: tuple(str(r[n]) for n in names))


def _components_from_doc(rows, names: tuple, context: str) -> dict:
    table = {}
    for record in rows:
        key = tuple(record[n] for n in names)
        _put(table, key if len(key) > 1 else key[0], record["morphism"],
             context, "component row")
    return table


def ring_to_doc(R: RingCatData, kind: str = "ring") -> dict:
    doc = {
        "kind": kind,
        "version": VERSION,
        "name": R.name,
        "additive": permcat_to_doc(R.additive),
        "product": _product_to_doc(R.product),
        "left_factorization": _components_to_doc(R.left_fact, ("a", "b", "c")),
        "right_factorization": _components_to_doc(R.right_fact, ("a", "b", "c")),
    }
    doc["additive"].pop("kind")
    return doc


def ring_from_doc(payload: Mapping, kind: str = "ring") -> RingCatData:
    context = f"{kind} document"
    additive = permcat_from_doc({**payload["additive"], "kind": "permcat"})
    product = _product_from_doc(_need(payload, "product", context), additive, context)
    left = _components_from_doc(_need(payload, "left_factorization", context),
                                ("a", "b", "c"), context)
    right = _components_from_doc(_need(payload, "right_factorization", context),
                                 ("a", "b", "c"), context)
    for a in additive.objects:
        for b in additive.objects:
            for c in additive.objects:
                if (a, b, c) not in left or (a, b, c) not in right:
                    raise DocumentError(f"{context}: factorization tables not total")
    return RingCatData(_name(payload, kind, context), additive, product, left, right)


def biperm_to_doc(B: BipermData) -> dict:
    doc = ring_to_doc(B.ring, kind="biperm")
    doc["multiplicative_symmetry"] = _components_to_doc(
        B.mult_symmetry, ("left", "right"))
    return doc


def biperm_from_doc(payload: Mapping) -> BipermData:
    ring = ring_from_doc(payload, kind="biperm")
    table = _components_from_doc(payload["multiplicative_symmetry"],
                                 ("left", "right"), "biperm document")
    return BipermData(ring, table)


def braided_to_doc(B: BraidedRingData) -> dict:
    doc = ring_to_doc(B.ring, kind="braided")
    doc["braiding"] = _components_to_doc(B.braiding, ("left", "right"))
    return doc


def braided_from_doc(payload: Mapping) -> BraidedRingData:
    ring = ring_from_doc(payload, kind="braided")
    table = _components_from_doc(payload["braiding"], ("left", "right"),
                                 "braided document")
    return BraidedRingData(ring, table)


def _exchanges_to_doc(exchanges: Mapping) -> list:
    out = []
    for (i, j, a, b, c, d), mor in exchanges.items():
        out.append({"i": i, "j": j, "a": a, "b": b, "c": c, "d": d,
                    "morphism": mor})
    return sorted(out, key=lambda r: (r["i"], r["j"], r["a"], r["b"], r["c"], r["d"]))


def _exchanges_from_doc(rows, context: str) -> dict:
    table = {}
    for r in rows:
        _put(table, (r["i"], r["j"], r["a"], r["b"], r["c"], r["d"]), r["morphism"],
             context, "exchange row")
    return table


def nfold_to_doc(D: NFoldData) -> dict:
    doc = {
        "kind": "nfold",
        "version": VERSION,
        "name": D.name,
        "category": permcat_to_doc(D.category),
        "products": [_product_to_doc(P) for P in D.products],
        "exchanges": _exchanges_to_doc(D.exchanges),
    }
    doc["category"].pop("kind")
    return doc


def nfold_from_doc(payload: Mapping) -> NFoldData:
    context = "nfold document"
    category = permcat_from_doc({**payload["category"], "kind": "permcat"})
    products = tuple(_product_from_doc(p, category, context)
                     for p in _need(payload, "products", context))
    exchanges = _exchanges_from_doc(_need(payload, "exchanges", context), context)
    return NFoldData(_name(payload, "nfold", context), category, products, exchanges)


def en_to_doc(E: EnData) -> dict:
    doc = {
        "kind": "en",
        "version": VERSION,
        "name": E.name,
        "additive": permcat_to_doc(E.additive),
        "products": [_product_to_doc(P) for P in E.products],
        "left_factorizations": [
            _components_to_doc(t, ("a", "b", "c")) for t in E.left_facts],
        "right_factorizations": [
            _components_to_doc(t, ("a", "b", "c")) for t in E.right_facts],
        "exchanges": _exchanges_to_doc(E.exchanges),
    }
    doc["additive"].pop("kind")
    return doc


def en_from_doc(payload: Mapping) -> EnData:
    context = "en document"
    additive = permcat_from_doc({**payload["additive"], "kind": "permcat"})
    products = tuple(_product_from_doc(p, additive, context)
                     for p in _need(payload, "products", context))
    lefts = tuple(_components_from_doc(rows, ("a", "b", "c"), context)
                  for rows in _need(payload, "left_factorizations", context))
    rights = tuple(_components_from_doc(rows, ("a", "b", "c"), context)
                   for rows in _need(payload, "right_factorizations", context))
    exchanges = _exchanges_from_doc(_need(payload, "exchanges", context), context)
    return EnData(_name(payload, "en", context), additive, products, lefts, rights,
                  exchanges)


# ---------------------------------------------------------------- functors

def functor_to_doc(P: SymMonFunctor) -> dict:
    C, D = P.source, P.target
    return {
        "kind": "functor",
        "version": VERSION,
        "source": permcat_to_doc(C),
        "target": permcat_to_doc(D),
        "object_map": {x: P.on_obj(x) for x in sorted(C.objects)},
        "morphism_map": {f: P.on_mor(f) for f in sorted(C.mor_src)},
        "monoidal_constraint": sorted(
            ({"left": x, "right": y, "morphism": P.monoidal(x, y)}
             for x in C.objects for y in C.objects),
            key=lambda r: (r["left"], r["right"])),
        "unit_constraint": P.unit_constraint(),
        "flags": {"strict": P.strict, "strictly_unital": P.strictly_unital,
                  "strong": P.strong},
    }


def functor_from_doc(payload: Mapping) -> SymMonFunctor:
    context = "functor document"
    source = permcat_from_doc(_need(payload, "source", context))
    target = permcat_from_doc(_need(payload, "target", context))
    obj_map = dict(_need(payload, "object_map", context))
    mor_map = dict(_need(payload, "morphism_map", context))
    for x in source.objects:
        if x not in obj_map:
            raise DocumentError(f"{context}: object map not total at {x!r}")
    for f in source.morphisms():
        if f not in mor_map:
            raise DocumentError(f"{context}: morphism map not total at {f!r}")
    m2 = _components_from_doc(_need(payload, "monoidal_constraint", context),
                              ("left", "right"), context)
    flags = payload.get("flags", {})
    return SymMonFunctor(source, target, obj_map, mor_map, m2,
                         _need(payload, "unit_constraint", context),
                         strict=flags.get("strict", False),
                         strictly_unital=flags.get("strictly_unital", False),
                         strong=flags.get("strong", False))


def multinat_to_doc(theta: MonoidalNat) -> dict:
    C = theta.source.source
    return {
        "kind": "multinat",
        "version": VERSION,
        "source": functor_to_doc(theta.source),
        "target": functor_to_doc(theta.target),
        "components": {x: theta.at(x) for x in sorted(C.objects)},
    }


def multinat_from_doc(payload: Mapping) -> MonoidalNat:
    context = "multinat document"
    source = functor_from_doc(_need(payload, "source", context))
    target = functor_from_doc(_need(payload, "target", context))
    components = dict(_need(payload, "components", context))
    for x in source.source.objects:
        if x not in components:
            raise DocumentError(f"{context}: components not total at {x!r}")
    return MonoidalNat(source, target, components)


PARSERS = {
    "multicat": multicat_from_doc,
    "permcat": permcat_from_doc,
    "ring": ring_from_doc,
    "biperm": biperm_from_doc,
    "braided": braided_from_doc,
    "nfold": nfold_from_doc,
    "en": en_from_doc,
    "functor": functor_from_doc,
    "multinat": multinat_from_doc,
}


def parse_document(text: str):
    """Parse any supported document; returns ``(kind, structure)``."""
    payload = loads(text)
    kind = payload["kind"]
    parser = PARSERS[kind]
    if kind == "ring":
        return kind, parser(payload, kind="ring")
    return kind, parser(payload)


def serialize(kind: str, structure) -> str:
    builders = {
        "multicat": multicat_to_doc,
        "permcat": permcat_to_doc,
        "ring": ring_to_doc,
        "biperm": biperm_to_doc,
        "braided": braided_to_doc,
        "nfold": nfold_to_doc,
        "en": en_to_doc,
        "functor": functor_to_doc,
        "multinat": multinat_to_doc,
    }
    return dumps(builders[kind](structure))
