"""Document parsing, canonical serialization, and round trips."""
import contextlib
import hashlib
import io
import json
import pathlib
import re
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcat.cli import run_command
from permcat.documents import (
    DocumentError,
    dumps,
    loads,
    parse_document,
    serialize,
)
from permcat.fixtures import sign_permcat
from permcat.multicat import validate_multicat
from permcat.permcats import validate_permcat
from permcat.rings import validate_en_monoidal
from permcat.shipped import SHIPPED, render

DOCS = pathlib.Path(__file__).resolve().parent.parent / "documents"


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_parse_serialize_is_identity(self, name):
        text = (DOCS / name).read_text(encoding="utf-8")
        kind, structure = parse_document(text)
        assert kind == SHIPPED[name][0]
        assert serialize(kind, structure) == text

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_bytes_match_fixtures(self, name):
        assert (DOCS / name).read_text(encoding="utf-8") == render(name)


class TestParsedStructuresValidate:
    def test_mterm_parses_and_validates(self):
        kind, M = parse_document((DOCS / "mterm3.json").read_text())
        assert validate_multicat(M).passed

    def test_sign_permcat_parses_and_validates(self):
        kind, C = parse_document((DOCS / "sign.json").read_text())
        assert validate_permcat(C).passed
        assert C.objects == sign_permcat().objects

    def test_en_fixture_parses_and_validates(self):
        kind, E = parse_document((DOCS / "sign-e2.json").read_text())
        report = validate_en_monoidal(E)
        assert report.passed, report.summary()

    def test_mutant_parses_but_fails_validation(self):
        kind, E = parse_document((DOCS / "mutant-en-zero-exchange.json").read_text())
        report = validate_en_monoidal(E)
        assert "zero-exchange" in report.violated_axioms()


class TestErrors:
    def test_syntax_error_reports_position(self):
        with pytest.raises(DocumentError, match="line"):
            loads("{\n  broken\n}")

    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="unknown kind"):
            loads('{"kind": "octopus"}')

    @pytest.mark.parametrize("version", [99, 0, "1", 1.5, True, None])
    def test_unsupported_version(self, version):
        with pytest.raises(DocumentError, match="unsupported version"):
            loads(json.dumps({"kind": "permcat", "version": version}))

    def test_missing_version(self):
        with pytest.raises(DocumentError, match="unsupported version None"):
            loads('{"kind": "permcat"}')

    @pytest.mark.parametrize("table, duplicate", [
        ("operations", "operation 'p'"),
        ("sigma", "sigma row ('p', (1, 2))"),
        ("gamma", "gamma row ('p', ('u', 'u'))"),
    ])
    def test_duplicate_row_rejected(self, table, duplicate):
        payload = json.loads((DOCS / "swap-operad.json").read_text())
        payload[table].insert(1, dict(payload[table][0]))
        with pytest.raises(DocumentError, match=re.escape(f"duplicate {duplicate}")):
            parse_document(dumps(payload))

    @pytest.mark.parametrize("name, path, duplicate", [
        ("sign.json", ("morphisms",), "morphism"),
        ("sign.json", ("composition",), "composition row"),
        ("sign.json", ("sum_objects",), "sum row"),
        ("sign.json", ("sum_morphisms",), "morphism sum row"),
        ("sign.json", ("symmetries",), "symmetry row"),
        ("sign-ring.json", ("product", "objects"), "product object row"),
        ("sign-ring.json", ("product", "morphisms"), "product morphism row"),
        ("sign-ring.json", ("left_factorization",), "component row"),
        ("sign-ring.json", ("right_factorization",), "component row"),
        ("sign-biperm.json", ("multiplicative_symmetry",), "component row"),
        ("sign-braided.json", ("braiding",), "component row"),
        ("sign-3fold.json", ("exchanges",), "exchange row"),
        ("sign-e2.json", ("left_factorizations", 0), "component row"),
        ("identity-functor.json", ("monoidal_constraint",), "component row"),
        ("identity-multinat.json", ("source", "monoidal_constraint"),
         "component row"),
        ("sign.json", ("objects",), "object"),
        ("mterm3.json", ("objects",), "object"),
        ("sign-ring.json", ("additive", "objects"), "object"),
        ("sign-e2.json", ("products", 1, "objects"), "product object row"),
    ])
    def test_duplicate_row_rejected_in_every_table(self, name, path, duplicate):
        payload = json.loads((DOCS / name).read_text())
        rows = reduce(getitem, path, payload)
        rows.insert(1, rows[0])
        with pytest.raises(DocumentError, match=f"duplicate {duplicate} [(']"):
            parse_document(dumps(payload))

    @pytest.mark.parametrize("name, path, value, message", [
        ("mterm3.json", ("colour",), "red", "multicat document: undeclared field 'colour'"),
        ("sign-ring.json", ("product", "colour"), "red",
         "ring document: product: undeclared field 'colour'"),
        ("sign.json", ("composition", 0, "colour"), "red",
         "composition row {'after': '0:+', 'before': '0:+', 'colour': 'red', "
         "'result': '0:+'} must have exactly the fields"),
        ("identity-functor.json", ("flag",), {"strict": True},
         "undeclared field 'flag'"),
        ("identity-functor.json", ("flags", "stict"), True, "flags: undeclared field 'stict'"),
        ("identity-functor.json", ("flags", "strict"), 1, "flag 'strict' must be a boolean"),
        ("identity-functor.json", ("name",), "P", "undeclared field 'name'"),
        ("sign.json", ("unit",), None, "missing field 'unit'"),
        ("sign-ring.json", ("additive", "version"), 2, "additive: version must be 1, not 2"),
        ("identity-multinat.json", ("source", "kind"), "permcat",
         "source: kind must be 'functor', not 'permcat'"),
        ("mterm3.json", ("units", "ghost"), "i1", "unit row references unknown object 'ghost'"),
        ("sign.json", ("unit",), "2", "unit references unknown object '2'"),
        ("identity-functor.json", ("object_map", "0"), "7",
         "object map row references unknown target object '7'"),
        ("identity-functor.json", ("unit_constraint",), ["0:+"],
         "unit_constraint references unknown target morphism ['0:+']"),
        ("swap-operad.json", ("sigma", 0, "perm"), [1, 1],
         "sigma row references unknown permutation (1, 1)"),
        ("swap-operad.json", ("sigma", 0, "perm"), [1, 2, 3],
         "sigma row references unknown permutation (1, 2, 3)"),
        ("swap-operad.json", ("objects", 0), 5, "object id must be a string, not 5"),
        ("sign-e2.json", ("products",), {}, "products must be a JSON list, not dict"),
        ("mterm3.json", ("units",), [], "units must be a JSON dict, not list"),
        ("identity-functor.json", ("object_map",), "0", "object_map must be a JSON dict"),
        ("two-object.json", ("gamma", 6), {"outer": "m", "inners": ["ub", "ua"], "result": "mT"},
         "gamma: gamma row ('m', ('ub', 'ua')) lies outside the table's domain"),
        ("sign.json", ("composition", 8), {"after": "0:+", "before": "1:+", "result": "0:-"},
         "composition: composition row ('0:+', '1:+') lies outside the table's domain"),
        ("identity-multinat.json", ("target", "source", "composition", 0, "result"), "0:-",
         "multinat document: the two functors have different source categories"),
    ])
    def test_malformed_document_rejected(self, name, path, value, message):
        # a value of None deletes the field; an index one past the end appends a row
        payload = json.loads((DOCS / name).read_text())
        parent = reduce(getitem, path[:-1], payload)
        if value is None:
            del parent[path[-1]]
        elif type(parent) is list and path[-1] == len(parent):
            parent.append(value)
        else:
            parent[path[-1]] = value
        with pytest.raises(DocumentError, match=re.escape(message)):
            parse_document(dumps(payload))

    @pytest.mark.parametrize("name, path", [
        ("mterm3.json", ()),
        ("sign.json", ()),
        ("sign-ring.json", ()),
        ("sign-ring.json", ("additive",)),
        ("sign-3fold.json", ()),
        ("sign-e2.json", ()),
    ])
    def test_non_string_name_rejected(self, name, path):
        payload = json.loads((DOCS / name).read_text())
        reduce(getitem, path, payload)["name"] = 5
        with pytest.raises(DocumentError, match="name must be a string"):
            parse_document(dumps(payload))

    def test_repeated_object_key_rejected(self):
        # a wrong identity written ahead of the real one must not be dropped
        text = (DOCS / "sign.json").read_text()
        text = text.replace('"identities": {\n', '"identities": {\n    "0": "0:-",\n', 1)
        assert '"0": "0:-",\n    "0": "0:+"' in text
        with pytest.raises(DocumentError, match=re.escape("duplicate key '0'")):
            parse_document(text)

    def test_unresolved_reference(self):
        text = (DOCS / "mutant-unresolved.json").read_text()
        with pytest.raises(DocumentError, match="unknown operation 'ghost'"):
            parse_document(text)

    def test_non_total_sigma_rejected(self):
        text = (DOCS / "swap-operad.json").read_text()
        import json
        payload = json.loads(text)
        payload["sigma"] = payload["sigma"][:-1]
        with pytest.raises(DocumentError, match="sigma table not total"):
            parse_document(dumps(payload))

    def test_non_total_gamma_rejected(self):
        text = (DOCS / "mterm3.json").read_text()
        import json
        payload = json.loads(text)
        payload["gamma"] = payload["gamma"][:-1]
        with pytest.raises(DocumentError, match="gamma table not total"):
            parse_document(dumps(payload))

    def test_non_total_composition_rejected(self):
        text = (DOCS / "sign.json").read_text()
        import json
        payload = json.loads(text)
        payload["composition"] = payload["composition"][:-1]
        with pytest.raises(DocumentError, match="composition table not total"):
            parse_document(dumps(payload))


class TestDeterminism:
    def test_render_is_stable_across_calls(self):
        for name in ("mterm3.json", "sign-e2.json", "identity-multinat.json"):
            assert render(name) == render(name)

    def test_parse_then_serialize_twice_identical(self):
        text = (DOCS / "sign-ring.json").read_text()
        kind, structure = parse_document(text)
        once = serialize(kind, structure)
        kind2, again = parse_document(once)
        assert serialize(kind2, again) == once


def _sites(node, path=()):
    """``("leaf", path)`` for every scalar of a JSON value and ``("row",
    path)`` for every element of a list in it."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _sites(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield "row", path + (i,)
            yield from _sites(value, path + (i,))
    else:
        yield "leaf", path


@st.composite
def corrupted_documents(draw):
    """A shipped document with one corruption: a leaf replaced by another
    id of the same document, an unknown string, an int, ``null`` or a
    list; or a row deleted or duplicated."""
    name = draw(st.sampled_from(sorted(p.name for p in DOCS.glob("*.json"))))
    payload = json.loads((DOCS / name).read_text(encoding="utf-8"))
    kind = payload["kind"]
    sites = list(_sites(payload))
    how = draw(st.sampled_from(["id", "unknown", "int", "null", "list", "delete",
                                "duplicate"]))
    if how in ("delete", "duplicate"):
        path = draw(st.sampled_from([path for site, path in sites if site == "row"]))
        rows = reduce(getitem, path[:-1], payload)
        if how == "delete":
            del rows[path[-1]]
        else:
            rows.insert(path[-1], json.loads(json.dumps(rows[path[-1]])))
    else:
        path = draw(st.sampled_from([path for site, path in sites if site == "leaf"]))
        ids = sorted({reduce(getitem, p, payload) for site, p in sites if site == "leaf"
                      and isinstance(reduce(getitem, p, payload), str)})
        value = {"id": lambda: draw(st.sampled_from(ids)), "unknown": lambda: "ghost",
                 "int": lambda: draw(st.sampled_from([-1, 0, 1, 7])),
                 "null": lambda: None, "list": lambda: []}[how]()
        reduce(getitem, path[:-1], payload)[path[-1]] = value
    return kind, dumps(payload)


class TestCorruptions:
    @settings(derandomize=True, deadline=None, max_examples=1200)
    @given(corrupted_documents())
    def test_one_corruption_is_never_an_internal_error(self, tmp_path_factory, case):
        # exit 1 is a verdict on a parsed structure, so it needs a clean parse;
        # exit 3 would be a defect of permcat
        _, text = case
        path = tmp_path_factory.getbasetemp() / "corrupted.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_command(["validate", str(path)])
        assert code in (0, 1, 2), err.getvalue()
        if code == 1:
            parse_document(text)


# one document of each kind
SWEEP = ("mterm3.json", "sign.json", "sign-ring.json", "sign-biperm.json",
         "sign-braided.json", "sign-3fold.json", "sign-e2.json", "identity-functor.json",
         "identity-multinat.json")
STRIDE = 19
CORRUPTIONS = {"leaf": ("ghost", 7, None, []), "row": ("delete", "duplicate")}


def _sweep():
    """``(document, path, corruption, outcome)`` of every corruption at every
    STRIDE-th site of each SWEEP document, the outcome ``"OK"`` or the
    DocumentError message.  Each corruption is undone before the next."""
    for name in SWEEP:
        payload = json.loads((DOCS / name).read_text(encoding="utf-8"))
        for site, path in list(_sites(payload))[::STRIDE]:
            parent, last = reduce(getitem, path[:-1], payload), path[-1]
            original = parent[last]
            for how in CORRUPTIONS[site]:
                if how == "delete":
                    del parent[last]
                elif how == "duplicate":
                    parent.insert(last, original)
                else:
                    parent[last] = how
                try:
                    parse_document(json.dumps(payload))
                    outcome = "OK"
                except DocumentError as exc:
                    outcome = str(exc)
                if how == "delete":
                    parent.insert(last, original)
                elif how == "duplicate":
                    del parent[last]
                else:
                    parent[last] = original
                yield name, path, how, outcome


class TestMessages:
    def test_corruption_messages_are_pinned(self):
        # the first row, cell or key breaking a rule, named in document order
        text = "".join(f"{case!r}\n" for case in _sweep())
        assert (text.count("\n"), hashlib.sha256(text.encode()).hexdigest()) == (
            1388, "5fc57aed15cd0d5bae08faaefeeec1cbc592f8e14edd3f0307f3b0cfbfcc2f45")
