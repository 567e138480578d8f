"""Ring, bipermutative, braided, n-fold and E_n structure validators."""
import pytest

from mutation import mutate_field
from permcat import rings
from permcat.errors import ComposabilityError
from permcat.fixtures import (
    NEG,
    bool_en,
    bool_ring,
    sign_bipermutative,
    sign_braided_ring,
    sign_en,
    sign_nfold,
    sign_ring,
)
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

RING = sign_ring(4)
C4 = RING.additive


def neg(obj: str) -> str:
    return f"{obj}:{NEG}"


def ring_with(field_name, key, value) -> RingCatData:
    return mutate_field(RING, field_name, key, value)


class TestRingCategory:
    def test_bool_ring_passes_tight(self):
        report = validate_ring_category(bool_ring())
        assert report.passed, report.summary()
        assert report.metadata["tight"]

    def test_sign_ring_passes_tight(self):
        report = validate_ring_category(RING)
        assert report.passed, report.summary()
        assert report.metadata["tight"]

    def test_zero_factorization_mutant(self):
        mutant = ring_with("left_fact", ("0", "1", "1"), neg("1"))
        report = validate_ring_category(mutant)
        assert "zero-factorization" in report.violated_axioms()

    def test_unit_factorization_mutant(self):
        mutant = ring_with("left_fact", ("2", "3", "1"), neg("1"))
        report = validate_ring_category(mutant)
        assert "unit-factorization" in report.violated_axioms()

    def test_symmetry_factorization_mutant(self):
        mutant = ring_with("left_fact", ("2", "3", "2"), neg("2"))
        report = validate_ring_category(mutant)
        assert "symmetry-factorization" in report.violated_axioms()

    def test_internal_factorization_mutant(self):
        mutant = ring_with("left_fact", ("2", "2", "2"), neg("0"))
        report = validate_ring_category(mutant)
        assert "internal-factorization" in report.violated_axioms()

    def test_external_factorization_mutant(self):
        mutant = ring_with("left_fact", ("2", "3", "2"), neg("2"))
        report = validate_ring_category(mutant)
        assert "external-factorization" in report.violated_axioms()

    def test_2x2_factorization_mutant(self):
        mutant = ring_with("right_fact", ("2", "2", "3"), neg("2"))
        report = validate_ring_category(mutant)
        assert "2x2-factorization" in report.violated_axioms()

    def test_multiplicative_zero_mutant(self):
        bad = dict(RING.product.mor_table)
        bad[("1:-", "0:+")] = "0:-"
        mutant = RingCatData(RING.name, RING.additive,
                             StrictProduct("1", RING.product.obj_table, bad),
                             RING.left_fact, RING.right_fact)
        report = validate_ring_category(mutant)
        assert "multiplicative-zero" in report.violated_axioms()

    def test_factorization_naturality_mutant(self):
        # a non-identity component where naturality forces identity
        mutant = ring_with("left_fact", ("2", "2", "3"), neg("0"))
        report = validate_ring_category(mutant)
        assert "factorization-naturality" in report.violated_axioms() or \
            "internal-factorization" in report.violated_axioms()

    def test_missing_component_is_violation(self):
        table = dict(RING.left_fact)
        del table[("1", "1", "1")]
        mutant = RingCatData(RING.name, RING.additive, RING.product,
                             table, RING.right_fact)
        with pytest.raises(KeyError):
            validate_ring_category(mutant)


class TestBipermutative:
    def test_bool_biperm(self):
        ring = bool_ring()
        C = ring.additive
        symmetry = {(a, b): C.identity(ring.product.on_obj(a, b))
                    for a in C.objects for b in C.objects}
        report = validate_bipermutative(BipermData(ring, symmetry))
        assert report.passed, report.summary()

    def test_sign_biperm(self):
        report = validate_bipermutative(sign_bipermutative(4))
        assert report.passed, report.summary()

    def test_zero_symmetry_mutant(self):
        B = sign_bipermutative(4)
        mutant = BipermData(B.ring, mutate_field(
            B, "mult_symmetry", ("2", "0"), neg("0")).mult_symmetry)
        report = validate_bipermutative(mutant)
        assert "zero-symmetry" in report.violated_axioms()

    def test_symmetry_factorization_mutant(self):
        B = sign_bipermutative(4)
        mutant = BipermData(B.ring, mutate_field(
            B, "mult_symmetry", ("2", "3"), neg("2")).mult_symmetry)
        report = validate_bipermutative(mutant)
        assert "multiplicative-symmetry-factorization" in report.violated_axioms()

    def test_noncommutative_product_fails_permutativity(self):
        # symmetry components between distinct objects cannot exist in a
        # discrete category with a noncommutative product: typing fails
        ring = bool_ring()
        C = ring.additive
        obj_table = {("0", "0"): "0", ("0", "1"): "0",
                     ("1", "0"): "1", ("1", "1"): "1"}   # left projection
        mor_table = {(C.identity(x), C.identity(y)): C.identity(obj_table[x, y])
                     for x in C.objects for y in C.objects}
        P = StrictProduct("1", obj_table, mor_table)
        symmetry = {(a, b): C.identity(obj_table[a, b])
                    for a in C.objects for b in C.objects}
        from permcat.fixtures import _identity_facts
        left, right = _identity_facts(C, P)
        data = BipermData(RingCatData("proj", C, P, left, right), symmetry)
        report = validate_bipermutative(data)
        assert not report.passed


class TestBraidedRing:
    def test_bipermutative_fixture_is_braided(self):
        report = validate_braided_ring(sign_braided_ring(4))
        assert report.passed, report.summary()

    def test_identity_braiding_on_bool(self):
        ring = bool_ring()
        C = ring.additive
        braiding = {(a, b): C.identity(ring.product.on_obj(a, b))
                    for a in C.objects for b in C.objects}
        report = validate_braided_ring(BraidedRingData(ring, braiding))
        assert report.passed, report.summary()

    def test_zero_braiding_mutant(self):
        B = sign_braided_ring(4)
        bad = dict(B.braiding)
        bad[("0", "2")] = neg("0")
        report = validate_braided_ring(BraidedRingData(B.ring, bad))
        assert "zero-braiding" in report.violated_axioms()

    def test_braiding_factorization_mutant(self):
        B = sign_braided_ring(4)
        bad = dict(B.braiding)
        bad[("2", "3")] = neg("2")
        report = validate_braided_ring(BraidedRingData(B.ring, bad))
        assert "braiding-factorization" in report.violated_axioms()

    def test_unknown_invertibility_is_not_a_violation(self, monkeypatch):
        monkeypatch.setattr(rings, "_is_invertible", lambda C, f: None)
        report = validate_braided_ring(sign_braided_ring())
        assert report.passed, report.summary()
        assert "braiding-invertible" not in {c.axiom for c in report.checks}

    def test_raising_invertibility_is_a_counted_violation(self, monkeypatch):
        def withheld(C, f):
            raise ComposabilityError("composite withheld")

        monkeypatch.setattr(rings, "_is_invertible", withheld)
        report = validate_braided_ring(sign_braided_ring())
        assert {"braiding-invertible", "factorization-invertibility"} <= set(
            report.violated_axioms())
        assert "tight" in report.metadata


class TestTightness:
    """``tight`` is true only when every inverse search found an inverse,
    false when one found none, and null when none found none but one was
    undecided."""

    def test_undecided_search_is_not_tight(self, monkeypatch):
        monkeypatch.setattr(rings, "_is_invertible", lambda C, f: None)
        assert validate_ring_category(bool_ring()).metadata["tight"] is None
        assert validate_en_monoidal(bool_en(2)).metadata["tight"] is None

    def test_raising_search_is_not_tight(self, monkeypatch):
        def withheld(C, f):
            raise ComposabilityError("composite withheld")

        monkeypatch.setattr(rings, "_is_invertible", withheld)
        report = validate_ring_category(bool_ring())
        assert "factorization-invertibility" in report.violated_axioms()
        assert report.metadata["tight"] is None
        assert validate_en_monoidal(bool_en(2)).metadata["tight"] is None


NFOLD = sign_nfold(3, 4)


class TestNFold:
    def test_n1_reduces_to_strict_monoidal(self):
        D = sign_nfold(1, 2)
        report = validate_nfold_monoidal(D)
        assert report.passed, report.summary()
        assert all(c.axiom.startswith(("product1-", "shared-unit"))
                   or c.instances == 0 for c in report.checks)

    def test_sign_threefold_passes(self):
        report = validate_nfold_monoidal(sign_nfold(3, 2))
        assert report.passed, report.summary()

    def test_internal_unity_mutant(self):
        bad = dict(NFOLD.exchanges)
        bad[(1, 2, "2", "2", "1", "1")] = neg("0")
        report = validate_nfold_monoidal(NFoldData(
            NFOLD.name, NFOLD.category, NFOLD.products, bad))
        assert "internal-unity" in report.violated_axioms()

    def test_external_unity_mutant(self):
        bad = dict(NFOLD.exchanges)
        bad[(1, 2, "2", "1", "2", "1")] = neg("0")
        report = validate_nfold_monoidal(NFoldData(
            NFOLD.name, NFOLD.category, NFOLD.products, bad))
        assert "external-unity" in report.violated_axioms()

    def test_internal_associativity_mutant(self):
        bad = dict(NFOLD.exchanges)
        bad[(1, 2, "2", "2", "2", "3")] = neg(_exchange_target(1, 2, "2", "2", "2", "3"))
        report = validate_nfold_monoidal(NFoldData(
            NFOLD.name, NFOLD.category, NFOLD.products, bad))
        assert "internal-associativity" in report.violated_axioms()

    def test_external_associativity_mutant(self):
        bad = dict(NFOLD.exchanges)
        bad[(1, 2, "3", "2", "2", "2")] = neg(_exchange_target(1, 2, "3", "2", "2", "2"))
        report = validate_nfold_monoidal(NFoldData(
            NFOLD.name, NFOLD.category, NFOLD.products, bad))
        assert "external-associativity" in report.violated_axioms()

    def test_triple_exchange_mutant(self):
        bad = dict(NFOLD.exchanges)
        bad[(1, 3, "2", "2", "2", "2")] = neg(_exchange_target(1, 3, "2", "2", "2", "2"))
        report = validate_nfold_monoidal(NFoldData(
            NFOLD.name, NFOLD.category, NFOLD.products, bad))
        assert "triple-exchange" in report.violated_axioms()


def _exchange_target(i, j, a, b, c, d):
    P = NFOLD.products[0]
    return P.on_obj(P.on_obj(a, b), P.on_obj(c, d))


class TestEnMonoidal:
    def test_bool_en_passes_tight(self):
        report = validate_en_monoidal(bool_en(2))
        assert report.passed, report.summary()
        assert report.metadata["tight"]

    def test_sign_e2_passes(self):
        report = validate_en_monoidal(sign_en(2, 2))
        assert report.passed, report.summary()

    def test_zero_exchange_mutant(self):
        E = sign_en(2, 2)
        bad = dict(E.exchanges)
        bad[(1, 2, "0", "1", "1", "1")] = neg("0")
        report = validate_en_monoidal(EnData(
            E.name, E.additive, E.products, E.left_facts, E.right_facts, bad))
        assert "zero-exchange" in report.violated_axioms()

    def test_exchange_factorization_mutant(self):
        E = sign_en(2, 4)
        bad = dict(E.exchanges)
        key = (1, 2, "2", "3", "3", "3")
        bad[key] = neg(_en_exchange_target(E, *key))
        report = validate_en_monoidal(EnData(
            E.name, E.additive, E.products, E.left_facts, E.right_facts, bad))
        assert "exchange-factorization" in report.violated_axioms()

    def test_n1_agrees_with_ring_verdict(self):
        E = sign_en(1, 2)
        report = validate_en_monoidal(E)
        ring = RingCatData("r", E.additive, E.products[0],
                           E.left_facts[0], E.right_facts[0])
        assert report.passed == validate_ring_category(ring).passed


def _en_exchange_target(E, i, j, a, b, c, d):
    P = E.products[0]
    return P.on_obj(P.on_obj(a, b), P.on_obj(c, d))


class TestHierarchy:
    def test_bipermutative_passes_braided_with_symmetry_as_braiding(self):
        B = sign_bipermutative(4)
        report = validate_braided_ring(BraidedRingData(B.ring, B.mult_symmetry))
        assert report.passed, report.summary()

    def test_bipermutative_underlying_ring_passes(self):
        B = sign_bipermutative(4)
        assert validate_ring_category(B.ring).passed
