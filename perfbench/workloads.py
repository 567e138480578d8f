"""The benchmark's workloads and the known answer for every command.

A command's known answer is its exit code, its report verdict and the
list of violated axioms, the witness lines it prints and, for input
errors, a fragment of the error message.  Where a golden file exists
under ``tests/golden`` the whole stdout is compared with it byte for byte.

``defect`` records how a command misbehaves at the commit this benchmark
was written against.  Such a command still counts as failed, but a run
whose only failures match their recorded defect exactly is not marked
incorrect; any other difference is.
"""
from __future__ import annotations

import json
import pathlib

DOCS = "documents"
GOLDEN = pathlib.Path("tests") / "golden"


def doc(name: str) -> str:
    return f"{DOCS}/{name}"


def answer(argv, exit=0, verdict="pass", violated=(), golden=None,
           error=None, defect=None) -> dict:
    return {"argv": list(argv), "exit": exit, "verdict": verdict,
            "violated": list(violated), "golden": golden, "error": error,
            "defect": defect}


# Shipped documents of a kind that ``validate`` accepts, with their answers.
VALIDATED = {
    "bool-en2.json": {},
    "bool-or.json": {},
    "initial.json": {},
    "mterm3.json": {"golden": "validate-mterm3.txt"},
    "mterm4.json": {},
    "mutant-en-zero-exchange.json": {
        # validate dispatches to the E_n validator, so it prints the same
        # report as the golden check-ring run on this document.
        "exit": 1, "verdict": "fail", "golden": "check-ring-en-mutant.txt",
        "violated": ["internal-unity", "external-unity", "internal-associativity",
                     "external-associativity", "zero-exchange",
                     "exchange-factorization"]},
    "mutant-multicat-unity.json": {
        "exit": 1, "verdict": "fail", "golden": "validate-multicat-mutant.txt",
        "violated": ["left-unity", "associativity"]},
    "mutant-unresolved.json": {
        "exit": 2, "verdict": None, "error": "unknown operation 'ghost'"},
    "s3-codiscrete.json": {},
    "sign-3fold.json": {},
    "sign-biperm.json": {},
    "sign-braided.json": {},
    "sign-e2.json": {},
    "sign-operad2.json": {},
    "sign-ring.json": {},
    "sign.json": {"golden": "validate-sign.txt"},
    "super-sign.json": {},
    "swap-operad.json": {"golden": "validate-swap.txt"},
    "two-object.json": {},
    "zmod3.json": {},
}

FREE = [answer(["free", doc("mterm4.json"), "--max-len", "3"])]

ENDO = [answer(["endo", doc("sign.json"), "--max-arity", "3"])]

COMPARISON = [
    answer(["check-s", doc("mterm3.json"), doc("two-object.json"), "--max-len", "2"],
           golden="check-s-mterm-two.txt"),
    answer(["check-adjunction", doc("two-object.json"), doc("bool-or.json"),
            "--max-len", "3", "--max-arity", "3"],
           golden="check-adjunction-two-bool.txt"),
]

# README examples that the three workloads above and ``validate`` do not run.
README_EXAMPLES = [
    answer(["free", doc("mterm4.json"), "--hom", "*,*", "*,*,*"], verdict=None),
    # Documented to exit 0; hom((a,a,a),(a,)) needs arity 3 above the
    # document's bound 2, so it exits 2 with an input error instead.
    answer(["free", doc("two-object.json"), "--max-len", "3"],
           defect={"exit": 2, "error": "needs operations of arity above the bound 2"}),
    answer(["endo", doc("sign.json"), "--ops", "0", "1,1"], verdict=None,
           golden="endo-sign-ops.txt"),
    answer(["tensor-s", doc("sign-operad2.json"), doc("two-object.json"),
            "--objects", "*,*", "a,b", "--constraint", "1", "*"], verdict=None,
           golden="tensor-s-images.txt"),
    answer(["check-ring", "--level", "en", doc("sign-e2.json")]),
    answer(["check-ring", "--level", "en", doc("mutant-en-zero-exchange.json")],
           **VALIDATED["mutant-en-zero-exchange.json"]),
]

CORPUS = ([answer(["validate", doc(name)], **known) for name, known in VALIDATED.items()]
          + README_EXAMPLES)

WORKLOADS = {"free": FREE, "endo": ENDO, "comparison": COMPARISON, "corpus": CORPUS}


def documents_of(commands) -> list[str]:
    """The document paths a list of commands reads, in first-use order."""
    seen = []
    for command in commands:
        for arg in command["argv"]:
            if arg.startswith(DOCS + "/") and arg not in seen:
                seen.append(arg)
    return seen


def observed_answer(report: str | None) -> tuple:
    """The verdict and violated axioms of a ``--report`` file, if any."""
    if not report:
        return None, []
    payload = json.loads(report)
    violated = [c["axiom"] for c in payload.get("checks", []) if c["violations"]]
    return payload.get("verdict"), violated


def mismatches(expected: dict, result: dict, root: pathlib.Path) -> list[str]:
    """How one command's result differs from its known answer."""
    problems = []
    if result["exit"] != expected["exit"]:
        problems.append(f"exit {result['exit']}, expected {expected['exit']}")
    if expected["exit"] == 2:
        if expected["error"] and expected["error"] not in result["stderr"]:
            problems.append(f"stderr lacks {expected['error']!r}")
        return problems
    verdict, violated = observed_answer(result["report"])
    if verdict != expected["verdict"]:
        problems.append(f"verdict {verdict}, expected {expected['verdict']}")
    if violated != expected["violated"]:
        problems.append(f"violated {violated}, expected {expected['violated']}")
    if expected["golden"]:
        golden = (root / GOLDEN / expected["golden"]).read_text(encoding="utf-8")
        if result["stdout"] != golden:
            problems.append(f"stdout differs from {expected['golden']}")
    elif any(line.lstrip().startswith("witness:") for line in result["stdout"].splitlines()):
        problems.append("witness lines printed for a passing command")
    return problems


def matches_defect(expected: dict, result: dict) -> bool:
    defect = expected["defect"]
    return bool(defect) and result["exit"] == defect["exit"] and \
        defect["error"] in result["stderr"]
