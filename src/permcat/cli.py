"""Command line interface.

Subcommands: validate, free, endo, tensor-s, check-s, check-adjunction,
check-ring.  Exit codes: 0 all checks pass, 1 axiom violations, 2 input
error, 3 internal error (an unexpected exception: a defect of permcat, not
of the input).  ``--report`` writes the structured report as canonical
JSON; the summary on stdout is deterministic.
"""
from __future__ import annotations

import argparse
import os
import sys

from .documents import DocumentError, dumps, parse_document
from .endo import basepoint_check, endo_multicat
from .errors import BoundExceededError, MalformedStructureError
from .free import FreePermCat, free_hom
from .multicat import validate_multicat
from .permcats import (
    validate_monoidal_nat_with_ends,
    validate_permcat,
    validate_smf_with_ends,
)
from .perms import Profile
from .reports import CheckReport
from .rings import (
    validate_bipermutative,
    validate_braided_ring,
    validate_en_monoidal,
    validate_nfold_monoidal,
    validate_ring_category,
)
from .tensor import check_s_suite, s_constraint_map, s_object
from .transforms import check_adjunction_suite

RING_VALIDATORS = {
    "ring": validate_ring_category,
    "biperm": validate_bipermutative,
    "braided": validate_braided_ring,
    "nfold": validate_nfold_monoidal,
    "en": validate_en_monoidal,
}


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_document(handle.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: malformed document: {type(exc).__name__}: {exc}")


def _profile(text: str, objects) -> Profile:
    """A comma-separated profile whose every id is one of ``objects``."""
    profile = tuple(part for part in text.split(",") if part != "")
    for x in profile:
        if x not in objects:
            raise DocumentError(f"unknown object {x!r} in {text!r}")
    return profile


def _bound(text: str) -> int:
    """An argparse type: an integer ``>= 0``."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}")
    return int(text)


def _write_report(out_path: str | None, payload) -> None:
    """Write ``payload`` as canonical JSON to ``--report``, if given."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(dumps(payload))


def _say(text: str) -> None:
    """Print ``text``.  Once the reader of stdout has gone, the rest of
    the output goes to ``os.devnull``, so the command still runs to its
    verdict."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report: CheckReport, out_path: str | None) -> int:
    _say(report.summary())
    _write_report(out_path, report.as_json())
    return 0 if report.passed else 1


def _validation(kind: str, structure, max_arity: int = 3) -> CheckReport:
    """The report of ``validate`` on a parsed document."""
    if kind == "multicat":
        return validate_multicat(structure, max_arity=min(max_arity, structure.max_arity))
    if kind == "permcat":
        return validate_permcat(structure)
    if kind in RING_VALIDATORS:
        return RING_VALIDATORS[kind](structure)
    if kind == "functor":
        return validate_smf_with_ends(structure)
    return validate_monoidal_nat_with_ends(structure)    # "multinat", the last of the nine kinds


def _first_invalid(documents) -> CheckReport | None:
    """The ``validate`` report of the first ``(kind, structure)`` that
    fails it, or None when all pass: the comparison suites assume lawful
    inputs."""
    for kind, structure in documents:
        report = _validation(kind, structure)
        if not report.passed:
            return report
    return None


def cmd_validate(args) -> int:
    kind, structure = _read(args.document)
    return _emit(_validation(kind, structure, args.max_arity), args.report)


def cmd_free(args) -> int:
    kind, M = _read(args.document)
    if kind != "multicat":
        raise DocumentError("free needs a multicat document")
    F = FreePermCat(M, partial_homs=False)
    if args.hom:
        src, tgt = (_profile(args.hom[0], M.objects), _profile(args.hom[1], M.objects))
        try:
            morphisms = free_hom(M, src, tgt)
        except BoundExceededError as exc:
            raise DocumentError(str(exc))
        _say(f"hom({','.join(src) or '()'} -> {','.join(tgt) or '()'}): "
             f"{len(morphisms)} morphisms")
        payload = []
        for mor in morphisms:
            payload.append({"index_map": {"domain": mor.index_map.domain,
                                          "codomain": mor.index_map.codomain,
                                          "images": list(mor.index_map.images)},
                            "operations": [str(op) for op in mor.ops]})
            _say(f"  index map {list(mor.index_map.images)} "
                 f"operations {[str(op) for op in mor.ops]}")
        _write_report(args.report, {"hom": payload,
                                     "source": list(src), "target": list(tgt)})
        return 0
    window = F.enumerate_objects(args.max_len)
    small = F.enumerate_objects(min(args.max_len, 2))
    report = validate_permcat(F, objects=window, interchange_objects=small)
    return _emit(report, args.report)


def cmd_endo(args) -> int:
    kind, C = _read(args.document)
    if kind != "permcat":
        raise DocumentError("endo needs a permcat document")
    E = endo_multicat(C)
    if args.ops:
        target, profile = args.ops[0], _profile(args.ops[1], C.objects)
        if _profile(target, C.objects) != (target,):
            raise DocumentError(f"--ops TARGET must be one object, not {target!r}")
        ops = E.ops(target, profile)
        _say(f"operations({target}; {','.join(profile) or '()'}): {len(ops)}")
        for op in ops:
            _say(f"  {op.mor}")
        _write_report(args.report, {"target": target, "profile": list(profile),
                                    "operations": [str(op.mor) for op in ops]})
        return 0
    report = validate_multicat(E, max_arity=args.max_arity)
    report.absorb(basepoint_check(C, max_arity=args.max_arity))
    return _emit(report, args.report)


def _load_factors(paths) -> tuple:
    factors = []
    for path in paths:
        kind, M = _read(path)
        if kind != "multicat":
            raise DocumentError(f"{path}: tensor factors must be multicat documents")
        factors.append(M)
    return tuple(factors)


def cmd_tensor_s(args) -> int:
    Ms = _load_factors(args.documents)
    if args.constraint and not args.objects:
        raise DocumentError("--constraint needs --objects")
    payload = {}
    if args.objects:
        if len(args.objects) != len(Ms):
            raise DocumentError("one --objects profile per factor document is needed")
        xs = tuple(_profile(p, M.objects) for p, M in zip(args.objects, Ms))
        if args.constraint:
            factors = [str(b) for b in range(1, len(Ms) + 1)]
            if args.constraint[0] not in factors:
                raise DocumentError(f"--constraint B must be one of {', '.join(factors)}, "
                                    f"not {args.constraint[0]!r}")
            b = int(args.constraint[0])
            hat = _profile(args.constraint[1], Ms[b - 1].objects)
        image = s_object(Ms, xs)
        _say(f"S{tuple(','.join(x) or '()' for x in xs)} = {list(image)}")
        payload["object_image"] = [list(map(str, cell)) if isinstance(cell, tuple)
                                   else str(cell) for cell in image]
        if args.constraint:
            rho_map = s_constraint_map(b, tuple(len(x) for x in xs), len(hat))
            _say(f"constraint {b} index map: {list(rho_map.images)}")
            payload["constraint_index_map"] = list(rho_map.images)
    _write_report(args.report, payload)
    return 0


def cmd_check_s(args) -> int:
    Ms = _load_factors(args.documents)
    report = _first_invalid(("multicat", M) for M in Ms) or check_s_suite(Ms, args.max_len)
    return _emit(report, args.report)


def cmd_check_adjunction(args) -> int:
    kind_m, M = _read(args.multicat)
    if kind_m != "multicat":
        raise DocumentError("check-adjunction needs a multicat document first")
    kind_c, C = _read(args.permcat)
    if kind_c != "permcat":
        raise DocumentError("check-adjunction needs a permcat document second")
    report = (_first_invalid([(kind_m, M), (kind_c, C)])
              or check_adjunction_suite(M, C, args.max_len, args.max_arity))
    return _emit(report, args.report)


def cmd_check_ring(args) -> int:
    kind, structure = _read(args.document)
    if kind != args.level:
        raise DocumentError(f"--level {args.level} needs a {args.level!r} document, "
                            f"got {kind!r}")
    report = RING_VALIDATORS[args.level](structure)
    return _emit(report, args.report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permcat",
        description="Validate finite multicategories and permutative "
                    "categories, and machine-check the free/endomorphism "
                    "comparison structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure document")
    p.add_argument("document")
    p.add_argument("--max-arity", type=_bound, default=3)
    p.add_argument("--report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("free", help="free permutative category checks and homs")
    p.add_argument("document")
    p.add_argument("--max-len", type=_bound, default=3)
    p.add_argument("--hom", nargs=2, metavar=("SRC", "TGT"),
                   help="comma-separated object profiles; empty for the unit")
    p.add_argument("--report")
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("endo", help="endomorphism multicategory checks")
    p.add_argument("document")
    p.add_argument("--max-arity", type=_bound, default=3)
    p.add_argument("--ops", nargs=2, metavar=("TARGET", "PROFILE"))
    p.add_argument("--report")
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("tensor-s", help="comparison functor images")
    p.add_argument("documents", nargs="+")
    p.add_argument("--objects", nargs="+", metavar="PROFILE")
    p.add_argument("--constraint", nargs=2, metavar=("B", "HAT_PROFILE"))
    p.add_argument("--report")
    p.set_defaults(func=cmd_tensor_s)

    p = sub.add_parser("check-s", help="comparison functor coherence suite")
    p.add_argument("documents", nargs="+")
    p.add_argument("--max-len", type=_bound, default=2)
    p.add_argument("--report")
    p.set_defaults(func=cmd_check_s)

    p = sub.add_parser("check-adjunction", help="unit/counit comparison suite")
    p.add_argument("multicat")
    p.add_argument("permcat")
    p.add_argument("--max-len", type=_bound, default=3)
    p.add_argument("--max-arity", type=_bound, default=3)
    p.add_argument("--report")
    p.set_defaults(func=cmd_check_adjunction)

    p = sub.add_parser("check-ring", help="ring-like structure validation")
    p.add_argument("document")
    p.add_argument("--level", choices=sorted(RING_VALIDATORS), required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_check_ring)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DocumentError, MalformedStructureError, BoundExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # here, not at the top: it adds to every command's start-up

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"error: internal: {type(exc).__name__}: {exc} "
              f"(in {where.name}, {os.path.basename(where.filename)}:{where.lineno})",
              file=sys.stderr)
        return 3


def main() -> None:
    code = run_command(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    sys.exit(code)


if __name__ == "__main__":
    main()
