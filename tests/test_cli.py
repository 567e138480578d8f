"""CLI paths: golden outputs, exit codes, determinism."""
import json
import os
import pathlib
import subprocess
import sys
from functools import reduce
from operator import getitem

import pytest

from permcat.cli import run_command

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ROOT / "documents"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

REGEN = os.environ.get("PERMCAT_REGEN_GOLDEN") == "1"


def doc(name: str) -> str:
    return str(DOCS / name)


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(name: str, text: str):
    path = GOLDEN / name
    if REGEN:
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text


GOLDEN_COMMANDS = {
    "validate-mterm3.txt": ["validate", doc("mterm3.json")],
    "validate-sign.txt": ["validate", doc("sign.json")],
    "validate-swap.txt": ["validate", doc("swap-operad.json")],
    "free-two-object-hom.txt": ["free", doc("two-object.json"),
                                "--hom", "a,b", "a"],
    "free-initial-validate.txt": ["free", doc("initial.json"), "--max-len", "3"],
    "free-mterm4-validate.txt": ["free", doc("mterm4.json"), "--max-len", "3"],
    "endo-sign-ops.txt": ["endo", doc("sign.json"), "--ops", "0", "1,1"],
    "endo-bool-validate.txt": ["endo", doc("bool-or.json"), "--max-arity", "2"],
    "endo-sign-validate.txt": ["endo", doc("sign.json"), "--max-arity", "3"],
    "tensor-s-images.txt": ["tensor-s", doc("sign-operad2.json"),
                            doc("two-object.json"),
                            "--objects", "*,*", "a,b", "--constraint", "1", "*"],
    "check-ring-biperm.txt": ["check-ring", "--level", "biperm",
                              doc("sign-biperm.json")],
    "check-ring-en-mutant.txt": ["check-ring", "--level", "en",
                                 doc("mutant-en-zero-exchange.json")],
    "validate-multicat-mutant.txt": ["validate", doc("mutant-multicat-unity.json")],
}

TENSOR_S = ["tensor-s", doc("sign-operad2.json"), doc("two-object.json")]

EXPECTED_EXIT = {
    "check-ring-en-mutant.txt": 1,
    "validate-multicat-mutant.txt": 1,
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_command_output(self, capsys, name):
        code, out, err = run(capsys, GOLDEN_COMMANDS[name])
        assert code == EXPECTED_EXIT.get(name, 0), err
        assert_golden(name, out)


class TestHeavySuites:
    def test_check_s(self, capsys):
        code, out, err = run(capsys, [
            "check-s", doc("mterm3.json"), doc("two-object.json"),
            "--max-len", "2"])
        assert code == 0, out + err
        assert "preserves-composition" in out
        assert_golden("check-s-mterm-two.txt", out)

    def test_check_adjunction(self, capsys):
        code, out, err = run(capsys, [
            "check-adjunction", doc("two-object.json"), doc("bool-or.json"),
            "--max-len", "3", "--max-arity", "3"])
        assert code == 0, out + err
        assert "counit-after-free-unit" in out
        assert_golden("check-adjunction-two-bool.txt", out)


class TestExitCodes:
    def test_unknown_flag_is_input_error(self, capsys):
        code, out, err = run(capsys, ["validate", "--frobnicate", "x.json"])
        assert code == 2

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, ["transmogrify"])
        assert code == 2

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["validate", "no-such-file.json"])
        assert code == 2
        assert "cannot read" in err

    def test_unresolved_reference(self, capsys):
        code, out, err = run(capsys, ["validate", doc("mutant-unresolved.json")])
        assert code == 2
        assert "unknown operation" in err

    @pytest.mark.parametrize("name", ["identity-functor.json", "identity-multinat.json"])
    def test_validate_functor_and_multinat(self, capsys, name):
        code, out, err = run(capsys, ["validate", doc(name)])
        assert code == 0, out + err
        assert "  source-" in out and "  target-" in out

    def test_validate_functor_with_a_negated_constraint(self, capsys, tmp_path):
        payload = json.loads((DOCS / "identity-functor.json").read_text(encoding="utf-8"))
        for row in payload["monoidal_constraint"]:
            if (row["left"], row["right"]) == ("1", "0"):
                row["morphism"] = "1:-"
        path = tmp_path / "functor-negated.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert "monoidal-unity: 4 instances, FAIL" in out

    def test_unsupported_version(self, capsys, tmp_path):
        payload = json.loads((DOCS / "sign.json").read_text(encoding="utf-8"))
        payload["version"] = 99
        path = tmp_path / "sign-v99.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "unsupported version 99" in err

    def test_duplicate_composition_row(self, capsys, tmp_path):
        payload = json.loads((DOCS / "sign.json").read_text(encoding="utf-8"))
        payload["composition"].append(
            {"after": "0:+", "before": "0:+", "result": "0:-"})
        path = tmp_path / "sign-duplicate.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "duplicate composition row ('0:+', '0:+')" in err

    def test_repeated_object_key(self, capsys, tmp_path):
        text = (DOCS / "sign.json").read_text(encoding="utf-8")
        path = tmp_path / "sign-repeated-identity.json"
        path.write_text(text.replace('"identities": {\n', '"identities": {\n    "0": "0:-",\n', 1),
                        encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "duplicate key '0'" in err

    @pytest.mark.parametrize("field, value, message", [
        ("max_arity", "three", "max_arity must be an integer >= 0, not 'three'"),
        ("max_arity", "3", "max_arity must be an integer >= 0, not '3'"),
        ("max_arity", True, "max_arity must be an integer >= 0, not True"),
        ("max_arity", -1, "max_arity must be an integer >= 0, not -1"),
        ("inputs", 7, "operation references unknown object list 7"),
    ], ids=["max_arity-three", "max_arity-string", "max_arity-bool", "max_arity-negative",
            "inputs-7"])
    def test_field_of_wrong_type(self, capsys, tmp_path, field, value, message):
        payload = json.loads((DOCS / "mterm3.json").read_text(encoding="utf-8"))
        (payload["operations"][0] if field == "inputs" else payload)[field] = value
        path = tmp_path / "mterm3-malformed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("name, path, value, message", [
        ("sign-3fold.json", ("products", 2, "morphisms", 7, "result"), -1,
         "products[2]: morphisms: product morphism row references unknown morphism -1"),
        ("sign-braided.json", ("braiding", 0, "morphism"), "zz",
         "braiding: component row references unknown morphism 'zz'"),
        ("sign-3fold.json", ("exchanges", 0), None,
         "exchanges: not total: no exchange row for (1, 2, '0', '0', '0', '0')"),
        ("sign-3fold.json", ("exchanges", 0, "i"), 7,
         "exchanges: exchange row references unknown product 7"),
        ("sign-e2.json", ("left_factorizations", 0, 0), None,
         "left_factorizations[0]: not total: no component row for ('0', '0', '0')"),
        ("sign-3fold.json", ("products", 2), None,
         "exchanges: exchange row references unknown product 3"),
        ("sign-e2.json", ("products", 1), None,
         "left_factorizations: 2 tables for 1 products"),
        ("sign-e2.json", ("exchanges", 0, "j"), 1,
         "exchanges: exchange row (1, 1, '0', '0', '0', '0') lies outside the "
         "table's domain"),
    ], ids=["product-result", "braiding-morphism", "exchange-missing", "exchange-index",
            "factorization-missing", "product-missing", "factorizations-per-product",
            "exchange-pair"])
    def test_ring_family_reference_is_input_error(self, capsys, tmp_path, name, path,
                                                  value, message):
        # these rows reached the validators unresolved and crashed them (exit 3)
        payload = json.loads((DOCS / name).read_text(encoding="utf-8"))
        parent = reduce(getitem, path[:-1], payload)
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        broken = tmp_path / name
        broken.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(broken)])
        assert code == 2, err
        assert message in err

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("permcat.cli.cmd_validate", broken)
        code, out, err = run(capsys, ["validate", doc("sign.json")])
        assert code == 3
        assert err.startswith("error: internal: ZeroDivisionError: division by zero "
                              "(in broken, test_cli.py:")
        assert err.count("\n") == 1

    def test_kind_mismatch(self, capsys):
        code, out, err = run(capsys, ["check-ring", "--level", "ring",
                                      doc("sign.json")])
        assert code == 2

    @pytest.mark.parametrize("argv, code, message", [
        (["free", doc("mterm4.json"), "--max-len", "-1"], 2,
         "argument --max-len: must be an integer >= 0, not '-1'"),
        (["validate", doc("mterm3.json"), "--max-arity", "-2"], 2,
         "argument --max-arity: must be an integer >= 0, not '-2'"),
        (["check-s", doc("mterm3.json"), doc("two-object.json"), "--max-len", "-1"], 2,
         "argument --max-len: must be an integer >= 0, not '-1'"),
        (TENSOR_S + ["--objects", "*,*", "a,b", "--constraint", "x", "*"], 2,
         "--constraint B must be one of 1, 2, not 'x'"),
        (TENSOR_S + ["--objects", "*,*", "a,b", "--constraint", "5", "*"], 2,
         "--constraint B must be one of 1, 2, not '5'"),
        (TENSOR_S + ["--objects", "*,*", "a,b", "--constraint", "0", "*"], 2,
         "--constraint B must be one of 1, 2, not '0'"),
        (TENSOR_S + ["--constraint", "1", "*"], 2, "--constraint needs --objects"),
        (["endo", doc("sign.json"), "--max-arity", "0"], 0, ""),
        (["free", doc("mterm4.json"), "--hom", "q,q", "*"], 2, "unknown object 'q' in 'q,q'"),
        (["endo", doc("sign.json"), "--ops", "7", "1,1"], 2, "unknown object '7' in '7'"),
        (TENSOR_S + ["--objects", "zz", "a,q"], 2, "unknown object 'zz' in 'zz'"),
        (TENSOR_S + ["--objects", "*,*", "a,b", "--constraint", "1", "a"], 2,
         "unknown object 'a' in 'a'"),
    ], ids=["free-max-len", "validate-max-arity", "check-s-max-len", "constraint-b-text",
            "constraint-b-above", "constraint-b-zero", "constraint-without-objects",
            "endo-max-arity-0", "free-hom-id", "endo-ops-id", "tensor-s-objects-id",
            "tensor-s-hat-id"])
    def test_cli_argument_outside_document_or_bounds(self, capsys, argv, code, message):
        # each of these once passed (exit 0) or crashed (exit 3)
        got, out, err = run(capsys, argv)
        assert got == code, err
        assert message in err
        if code == 2:
            assert out == ""

    def test_bound_exceeded_hom(self, capsys):
        code, out, err = run(capsys, ["free", doc("two-object.json"),
                                      "--hom", "a,a,a", "a"])
        assert code == 2


class TestReports:
    def test_report_file_matches_golden(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, ["validate", doc("sign.json"),
                                  "--report", str(out_path)])
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload["verdict"] == "pass"
        assert_golden("report-validate-sign.json", text)

    def test_reports_byte_identical_across_processes(self, tmp_path):
        # determinism across interpreter runs with different hash seeds
        outputs = []
        for seed in ("0", "42"):
            out_path = tmp_path / f"report-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(ROOT / "src"))
            result = subprocess.run(
                [sys.executable, "-m", "permcat.cli", "check-ring",
                 "--level", "en", doc("sign-e2.json"),
                 "--report", str(out_path)],
                capture_output=True, text=True, env=env, cwd=str(ROOT))
            assert result.returncode == 0, result.stderr
            outputs.append((out_path.read_bytes(), result.stdout))
        assert outputs[0] == outputs[1]


def test_python_dash_m_runs_the_cli_uninstalled():
    result = subprocess.run(
        [sys.executable, "-m", "permcat", "validate", doc("sign.json")],
        capture_output=True, text=True, cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (GOLDEN / "validate-sign.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, code", [
    (["endo", doc("sign.json"), "--max-arity", "3"], 0),
    (["validate", doc("mutant-multicat-unity.json")], 1),
], ids=["endo-pass", "validate-fail"])
def test_a_reader_that_leaves_early_keeps_the_verdict(argv, code):
    """``permcat ... | head -1``: once stdout's reader has gone, the output
    ends quietly and the exit code is still the verdict's."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "permcat.cli", *argv], stdout=writer,
            stderr=subprocess.PIPE, text=True, cwd=str(ROOT),
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    finally:
        os.close(writer)
    assert (result.returncode, result.stderr) == (code, "")
