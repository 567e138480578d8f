"""Acceptance criteria, one test per criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail
lines; every tolerance here is exact equality (the subject is finite
combinatorics, not numerics).
"""
import itertools
import os
import pathlib
import subprocess
import sys
import time

from mutation import gamma_mutant, mutate_field, sigma_mutant
from permcat.endo import endo_multicat
from permcat.fixtures import (
    NEG,
    POS,
    bool_or_permcat,
    sign_bipermutative,
    sign_braided_ring,
    sign_en,
    sign_multiplication,
    sign_nfold,
    sign_operad,
    sign_permcat,
    sign_ring,
    two_object_multicat,
    zmod_permcat,
)
from permcat.free import FreeMorphism, FreePermCat, free_hom, free_on_multifunctor
from permcat.multicat import (
    Multifunctor,
    identity_multifunctor,
    initial_operad,
    terminal_multicat,
    validate_multicat,
    validate_multifunctor,
)
from permcat.permcats import (
    MonoidalNat,
    NLinearFunctor,
    NLinearNat,
    SymMonFunctor,
    identity_smf,
    nlinear_gamma,
    validate_monoidal_nat,
    validate_nlinear,
    validate_nlinear_nat,
    validate_permcat,
    validate_smf,
)
from permcat.perms import FinMap, grid_transpose, perm_act, profiles
from permcat.rings import (
    BipermData,
    BraidedRingData,
    EnData,
    NFoldData,
    RingCatData,
    StrictProduct,
    validate_bipermutative,
    validate_braided_ring,
    validate_en_monoidal,
    validate_nfold_monoidal,
    validate_ring_category,
)
from permcat.tensor import (
    braid_multifunctor,
    check_s_suite,
    f_multi,
    s_functor,
    s_object,
    tensor_grid,
    tensor_op,
)
from permcat.transforms import check_adjunction_suite, check_rho_mark_square, mark_category

ROOT = pathlib.Path(__file__).resolve().parent.parent

SIGN = sign_permcat()
BOOL = bool_or_permcat()
Z3 = zmod_permcat(3)
SIGNS2 = sign_operad(2)
TWO = two_object_multicat()
MTERM2 = terminal_multicat(2)


def verdict(n, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}")
    assert ok, f"criterion {n} failed: {label}"


def suite_verdict(n, label, report, ok=True):
    """:func:`verdict` on a suite report: it passes and checks at least one
    instance of every axiom; otherwise its summary shows the witnesses."""
    ok = ok and report.passed and all(c.instances for c in report.checks)
    if not ok:
        print(report.summary())
    verdict(n, label, ok)


def star(k):
    return ("*",) * k


# ----------------------------------------------------------- criterion 1

def seeded_mutants():
    """(axiom, run) pairs: run() returns the violated-axiom list of the
    validator on a structure with exactly one redirected table entry."""
    cases = []

    def multicat_case(axiom, mutant):
        cases.append((f"multicategory:{axiom}",
                      lambda m=mutant: validate_multicat(m).violated_axioms(),
                      axiom))

    from permcat.fixtures import swap_operad

    multicat_case("left-unity", gamma_mutant(SIGNS2, "+1", ("+2",), "-2"))
    multicat_case("right-unity", gamma_mutant(SIGNS2, "+2", ("+1", "+1"), "-2"))
    multicat_case("associativity", gamma_mutant(SIGNS2, "+2", ("-1", "+1"), "+2"))
    multicat_case("symmetry-identity", sigma_mutant(swap_operad(), "p", (1, 2), "q"))
    multicat_case("symmetry-action", sigma_mutant(swap_operad(), "p", (2, 1), "p"))
    multicat_case("top-equivariance", sigma_mutant(TWO, "m", (2, 1), "m"))
    multicat_case("bottom-equivariance", gamma_mutant(swap_operad(), "u", ("p",), "q"))

    def permcat_case(axiom, mutant):
        cases.append((f"permutative:{axiom}",
                      lambda m=mutant: validate_permcat(m).violated_axioms(),
                      axiom))

    permcat_case("hexagon", mutate_field(SIGN, "symmetries", ("1", "0"), "1:-"))
    permcat_case("symmetry-involution",
                 mutate_field(SIGN, "symmetries", ("1", "0"), "1:-"))
    permcat_case("sum-functoriality",
                 mutate_field(SIGN, "mor_sums", ("1:-", "1:+"), "0:+"))
    permcat_case("sum-associativity",
                 mutate_field(zmod_permcat(4), "sums", ("1", "1"), "3"))
    permcat_case("sum-unity-morphisms",
                 mutate_field(SIGN, "mor_sums", ("0:+", "1:-"), "1:+"))

    def twisted_smf(pair, m0=None):
        def m2(x, y):
            obj = SIGN.sums[x, y]
            return f"{obj}:{NEG if (x, y) == pair else POS}"
        return SymMonFunctor(SIGN, SIGN, lambda x: x, lambda f: f,
                             m2 if pair else None, m0)

    cases.append(("smf:monoidal-associativity",
                  lambda: validate_smf(twisted_smf(("1", "0"))).violated_axioms(),
                  "monoidal-associativity"))
    cases.append(("smf:monoidal-unity",
                  lambda: validate_smf(twisted_smf(None, "0:-")).violated_axioms(),
                  "monoidal-unity"))
    cases.append(("smf:monoidal-symmetry",
                  lambda: validate_smf(twisted_smf(("1", "0"))).violated_axioms(),
                  "monoidal-symmetry"))

    def bad_unit_nat():
        P = identity_smf(SIGN)
        theta = MonoidalNat(P, P, lambda x: f"{x}:{NEG if x == '0' else POS}")
        return validate_monoidal_nat(theta).violated_axioms()

    cases.append(("monoidal-nat:unity", bad_unit_nat, "unity"))
    cases.append(("monoidal-nat:constraint-compatibility", bad_unit_nat,
                  "constraint-compatibility"))

    MULT = sign_multiplication()

    def nlinear_mutant(axiom, key_j, key_X, key_X2):
        def bad_constraint(j, X, X2):
            base = MULT.constraint(j, X, X2)
            if (j, X, X2) == (key_j, key_X, key_X2):
                obj, sign = base.split(":")
                return f"{obj}:{NEG if sign == POS else POS}"
            return base
        P = NLinearFunctor(MULT.sources, MULT.target, MULT.obj_map,
                           MULT.mor_map, bad_constraint)
        cases.append((f"nlinear:{axiom}",
                      lambda P=P: validate_nlinear(P).violated_axioms(), axiom))

    nlinear_mutant("constraint-unity", 1, ("1", "1"), "0")
    nlinear_mutant("constraint-associativity", 1, ("0", "1"), "1")
    nlinear_mutant("constraint-symmetry", 1, ("0", "1"), "1")

    from permcat.fixtures import zmod_sign_multiplication
    cases.append(("nlinear:constraint-2x2",
                  lambda: validate_nlinear(zmod_sign_multiplication(
                      4, {(1, ("1", "2"), "2"): True})).violated_axioms(),
                  "constraint-2x2"))

    def unity_breaking_functor():
        def obj_map(X):
            return "1" if X == ("0", "1") else MULT.on_obj(X)
        P = NLinearFunctor(MULT.sources, MULT.target, obj_map, MULT.mor_map,
                           MULT.constraints)
        return validate_nlinear(P).violated_axioms()

    cases.append(("nlinear:unity", unity_breaking_functor, "unity"))

    def incompatible_nat():
        theta = NLinearNat(sign_multiplication(NEG, POS),
                           sign_multiplication(POS, POS),
                           lambda X: f"{MULT.on_obj(X)}:{POS}")
        return validate_nlinear_nat(theta).violated_axioms()

    def nat_unity_mutant():
        theta = NLinearNat(MULT, MULT,
                           lambda X: f"{MULT.on_obj(X)}:"
                                     f"{NEG if X == ('0', '1') else POS}")
        return validate_nlinear_nat(theta).violated_axioms()

    cases.append(("nlinear-nat:unity", nat_unity_mutant, "unity"))
    cases.append(("nlinear-nat:constraint-compatibility", incompatible_nat,
                  "constraint-compatibility"))

    RING = sign_ring(4)

    def ring_case(axiom, field_name, key, value):
        mutant = mutate_field(RING, field_name, key, value)
        cases.append((f"ring:{axiom}",
                      lambda m=mutant: validate_ring_category(m).violated_axioms(),
                      axiom))

    def neg(obj):
        return f"{obj}:{NEG}"

    ring_case("zero-factorization", "left_fact", ("0", "1", "1"), neg("1"))
    ring_case("unit-factorization", "left_fact", ("2", "3", "1"), neg("1"))
    ring_case("symmetry-factorization", "left_fact", ("2", "3", "2"), neg("2"))
    ring_case("internal-factorization", "left_fact", ("2", "2", "2"), neg("0"))
    ring_case("external-factorization", "left_fact", ("2", "3", "2"), neg("2"))
    ring_case("2x2-factorization", "right_fact", ("2", "2", "3"), neg("2"))

    def mult_zero_case():
        bad = dict(RING.product.mor_table)
        bad[("1:-", "0:+")] = "0:-"
        mutant = RingCatData(RING.name, RING.additive,
                             StrictProduct("1", RING.product.obj_table, bad),
                             RING.left_fact, RING.right_fact)
        return validate_ring_category(mutant).violated_axioms()

    cases.append(("ring:multiplicative-zero", mult_zero_case, "multiplicative-zero"))

    B = sign_bipermutative(4)
    cases.append(("biperm:zero-symmetry",
                  lambda: validate_bipermutative(BipermData(
                      B.ring, {**B.mult_symmetry, ("2", "0"): neg("0")})
                  ).violated_axioms(), "zero-symmetry"))
    cases.append(("biperm:multiplicative-symmetry-factorization",
                  lambda: validate_bipermutative(BipermData(
                      B.ring, {**B.mult_symmetry, ("2", "3"): neg("2")})
                  ).violated_axioms(), "multiplicative-symmetry-factorization"))

    BR = sign_braided_ring(4)
    cases.append(("braided:zero-braiding",
                  lambda: validate_braided_ring(BraidedRingData(
                      BR.ring, {**BR.braiding, ("0", "2"): neg("0")})
                  ).violated_axioms(), "zero-braiding"))
    cases.append(("braided:braiding-factorization",
                  lambda: validate_braided_ring(BraidedRingData(
                      BR.ring, {**BR.braiding, ("2", "3"): neg("2")})
                  ).violated_axioms(), "braiding-factorization"))

    NFOLD = sign_nfold(3, 4)
    P0 = NFOLD.products[0]

    def ex_target(a, b, c, d):
        return P0.on_obj(P0.on_obj(a, b), P0.on_obj(c, d))

    def nfold_case(axiom, key, value):
        bad = {**NFOLD.exchanges, key: value}
        data = NFoldData(NFOLD.name, NFOLD.category, NFOLD.products, bad)
        cases.append((f"nfold:{axiom}",
                      lambda d=data: validate_nfold_monoidal(d).violated_axioms(),
                      axiom))

    nfold_case("internal-unity", (1, 2, "2", "2", "1", "1"), neg("0"))
    nfold_case("external-unity", (1, 2, "2", "1", "2", "1"), neg("0"))
    nfold_case("internal-associativity", (1, 2, "2", "2", "2", "3"),
               neg(ex_target("2", "2", "2", "3")))
    nfold_case("external-associativity", (1, 2, "3", "2", "2", "2"),
               neg(ex_target("3", "2", "2", "2")))
    nfold_case("triple-exchange", (1, 3, "2", "2", "2", "2"),
               neg(ex_target("2", "2", "2", "2")))

    E2 = sign_en(2, 2)
    cases.append(("en:zero-exchange",
                  lambda: validate_en_monoidal(EnData(
                      E2.name, E2.additive, E2.products, E2.left_facts,
                      E2.right_facts,
                      {**E2.exchanges, (1, 2, "0", "1", "1", "1"): "0:-"})
                  ).violated_axioms(), "zero-exchange"))
    E4 = sign_en(2, 4)
    target = E4.products[0].on_obj(E4.products[0].on_obj("2", "3"),
                                   E4.products[0].on_obj("3", "3"))
    cases.append(("en:exchange-factorization",
                  lambda: validate_en_monoidal(EnData(
                      E4.name, E4.additive, E4.products, E4.left_facts,
                      E4.right_facts,
                      {**E4.exchanges, (1, 2, "2", "3", "3", "3"): neg(target)})
                  ).violated_axioms(), "exchange-factorization"))
    return cases


def test_criterion_1_axiom_suite():
    start = time.time()
    ok = True

    for M, bound, label in [
            (terminal_multicat(4), 4, "terminal(A=4)"),
            (initial_operad(), 4, "initial operad"),
    ]:
        report = validate_multicat(M, max_arity=bound)
        ok = ok and report.passed

    for C in (BOOL, Z3, SIGN):
        report = validate_multicat(endo_multicat(C), max_arity=3)
        ok = ok and report.passed

    grid_report = validate_multicat(tensor_grid((SIGNS2, TWO)), max_arity=2)
    ok = ok and grid_report.passed

    failures = []
    for name, run, axiom in seeded_mutants():
        violated = run()
        if axiom not in violated:
            failures.append((name, axiom, violated))
    if failures:
        for f in failures:
            print("  mutant not caught by its axiom:", f)
    ok = ok and not failures

    elapsed = time.time() - start
    print(f"  ({len(seeded_mutants())} seeded mutants, {elapsed:.1f}s)")
    ok = ok and elapsed < 60
    verdict(1, "axiom suite with seeded mutants (< 60 s)", ok)


# ----------------------------------------------------------- criterion 2

def test_criterion_2_free_construction_counts():
    mterm4 = terminal_multicat(4)
    initial = initial_operad()
    ok = True
    for r in range(5):
        for s in range(5):
            got = len(free_hom(mterm4, star(r), star(s)))
            oracle = sum(1 for _ in itertools.product(range(s), repeat=r))
            ok = ok and got == oracle
            got_i = len(free_hom(initial, star(r), star(s)))
            oracle_i = (len(list(itertools.permutations(range(r))))
                        if r == s else 0)
            ok = ok and got_i == oracle_i
    verdict(2, "free hom counts match set-map and permutation oracles", ok)


# ----------------------------------------------------------- criterion 3

def test_criterion_3_composition_coherence():
    F = FreePermCat(MTERM2, partial_homs=True)
    report = validate_permcat(F, objects=list(profiles(("*",), 3)),
                              interchange_objects=list(profiles(("*",), 1)))
    counts = {c.axiom: c.instances for c in report.checks}
    print(f"  ({counts['category-associativity']} associativity triples)")
    suite_verdict(3, "composition coherence on the arity-2 fixture, lengths <= 3", report,
                  counts["category-unity"] == 108
                  and counts["category-associativity"] == 23_198)


# ----------------------------------------------------------- criterion 4

def test_criterion_4_s_suite():
    report = check_s_suite((MTERM2, TWO), 2)
    suite_verdict(4, "comparison functor: functoriality, multilinearity, naturality",
                  report, report.metadata["classification"] == "strong")


# ----------------------------------------------------------- criterion 5

def split_components(flat_op, split_at):
    left = flat_op.components[:split_at]
    right = flat_op.components[split_at:]
    return left, right


def test_criterion_5_cat_multifunctoriality():
    ok = True

    # unit law, n = 1
    P = f_multi(identity_multifunctor(SIGNS2), (SIGNS2,))
    F = FreePermCat(SIGNS2, partial_homs=True)
    window = F.enumerate_objects(2)
    for x in window:
        ok = ok and P.on_obj((x,)) == x
    for a in window:
        for b in window:
            for m in F.hom(a, b):
                ok = ok and P.on_mor((m,)) == m

    # symmetric-action square, sigma in Sigma_2: strict on the
    # transpose-trivial fragment, exact after the canonical transpose
    # cell in general (see the decisions ledger)
    M1, M2 = SIGNS2, TWO
    braid = braid_multifunctor(M1, M2)
    F_braid = free_on_multifunctor(braid)
    F1 = FreePermCat(M1, partial_homs=True)
    F2 = FreePermCat(M2, partial_homs=True)
    w1 = F1.enumerate_objects(2)
    w2 = F2.enumerate_objects(2)
    ms1 = [m for a in w1 for b in w1 for m in F1.hom(a, b)]
    ms2 = [m for a in w2 for b in w2 for m in F2.hom(a, b)]
    F12 = FreePermCat(tensor_grid((M1, M2)))

    def transpose_cell(x1, x2):
        r1, r2 = len(x1), len(x2)
        W = grid_transpose(r1, r2)
        flat12 = s_object((M1, M2), (x1, x2))
        source = perm_act(W.inverse(), flat12)
        view = tensor_grid((M1, M2))
        return FreeMorphism(source, flat12,
                            FinMap(r1 * r2, r1 * r2, W.inverse().images),
                            tuple(view.unit(c) for c in flat12))

    S12, S21 = s_functor((M1, M2)), s_functor((M2, M1))
    trivial = corrected = 0
    for m1 in ms1:
        for m2 in ms2:
            path1 = S12.on_mor((m1, m2))
            path2 = F_braid.on_mor(S21.on_mor((m2, m1)))
            if all(len(p) <= 1 for p in (m1.source, m1.target)) or \
                    all(len(p) <= 1 for p in (m2.source, m2.target)):
                ok = ok and path1 == path2
                trivial += 1
            cell_src = transpose_cell(m1.source, m2.source)
            cell_tgt = transpose_cell(m1.target, m2.target)
            ok = ok and F12.compose(path1, cell_src) == F12.compose(cell_tgt, path2)
            corrected += 1
    print(f"  (sigma square: {trivial} strict instances, "
          f"{corrected} corrected instances)")

    # composition square: outer arity 2, inner arities <= 2
    MA = MB = SIGNS2
    MC = MD = TWO
    H1 = Multifunctor(tensor_grid((MA, MB)), terminal_multicat(4), lambda c: "*",
                      lambda op: f"i{tensor_grid((MA, MB)).arity_of(op)}")
    H2 = Multifunctor(tensor_grid((MC, MD)), terminal_multicat(4), lambda c: "*",
                      lambda op: f"i{tensor_grid((MC, MD)).arity_of(op)}")
    signs8 = terminal_multicat(8)
    inner_target = terminal_multicat(4)
    Hp = Multifunctor(tensor_grid((inner_target, inner_target)), signs8,
                      lambda c: "*",
                      lambda op: f"i{tensor_grid((inner_target, inner_target)).arity_of(op)}")

    flat_factors = (MA, MB, MC, MD)
    flat_grid = tensor_grid(flat_factors)
    pair_grid = tensor_grid((inner_target, inner_target))

    def flat_H(op):
        left, right = op.components[:2], op.components[2:]
        image = Hp.on_op(tensor_op((inner_target, inner_target),
                                   (H1.on_op(tensor_op((MA, MB), left)),
                                    H2.on_op(tensor_op((MC, MD), right)))))
        return signs8.act(image, op.twist)

    composite_H = Multifunctor(
        flat_grid, signs8,
        lambda c: Hp.on_obj((H1.on_obj(c[:2]), H2.on_obj(c[2:]))), flat_H)
    ok = ok and validate_multifunctor(composite_H, max_arity=2).passed

    lhs_pkg = f_multi(composite_H, flat_factors)
    rhs_pkg = nlinear_gamma(f_multi(Hp, (inner_target, inner_target)),
                            (f_multi(H1, (MA, MB)), f_multi(H2, (MC, MD))))
    wins = [FreePermCat(M, partial_homs=True).enumerate_objects(1)
            for M in flat_factors]
    for X in itertools.product(*wins):
        ok = ok and lhs_pkg.on_obj(X) == rhs_pkg.on_obj(X)
    frees = [FreePermCat(M, partial_homs=True) for M in flat_factors]
    mor_windows = [[m for a in w for b in w for m in Fi.hom(a, b)]
                   for Fi, w in zip(frees, wins)]
    for fs in itertools.product(*mor_windows):
        ok = ok and lhs_pkg.on_mor(fs) == rhs_pkg.on_mor(fs)
    verdict(5, "unit law, symmetric-action square, composition square", ok)


# ----------------------------------------------------------- criterion 6

def test_criterion_6_adjunction_fragment():
    suite_verdict(6, "unit validation, unit square, triangles, counit witness "
                     "in both directions", check_adjunction_suite(SIGNS2, Z3, 3, 3))


# ----------------------------------------------------------- criterion 7

def test_criterion_7_marking_suite():
    ok = True
    for C in (SIGN, BOOL, Z3):
        marked = mark_category(C)
        ok = ok and validate_permcat(marked.category).passed
        Cm = marked.category
        ok = ok and Cm.hom(marked.zero, marked.zero) == (Cm.identity(marked.zero),)
        for x in C.objects:
            ok = ok and len(Cm.hom(marked.zero, x)) == len(C.hom(C.unit, x))
            ok = ok and Cm.hom(x, marked.zero) == ()
            for y in C.objects:
                ok = ok and Cm.hom(x, y) == C.hom(x, y)
        ok = ok and Cm.sum_mor(marked.t, marked.t) == marked.t

    def m2(x, y):
        obj = SIGN.sums[x, y]
        return f"{obj}:{NEG if (x, y) == ('1', '1') else POS}"

    one_linear = SymMonFunctor(SIGN, SIGN, lambda x: x, lambda f: f, m2, None,
                               strictly_unital=True)
    ok = ok and validate_smf(one_linear).passed
    ok = ok and check_rho_mark_square(one_linear).passed
    verdict(7, "marked categories, hom table, zigzag square", ok)


# ----------------------------------------------------------- criterion 8

def test_criterion_8_determinism():
    outputs = []
    for seed in ("1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "permcat.cli", "check-ring", "--level",
             "biperm", str(ROOT / "documents" / "sign-biperm.json"),
             "--report", "/dev/stdout"],
            capture_output=True, text=True, env=env, cwd=str(ROOT))
        outputs.append((result.returncode, result.stdout))
        result2 = subprocess.run(
            [sys.executable, "-m", "permcat.cli", "validate",
             str(ROOT / "documents" / "two-object.json"),
             "--report", "/dev/stdout"],
            capture_output=True, text=True, env=env, cwd=str(ROOT))
        outputs.append((result2.returncode, result2.stdout))
    ok = outputs[0] == outputs[2] and outputs[1] == outputs[3]
    ok = ok and outputs[0][0] == 0 and outputs[1][0] == 0
    verdict(8, "byte-identical reports across runs and hash seeds", ok)
