"""Instance-stream digests: each validator checks the same instances, in
the same order, with the same witnesses.

The stream of a run is every :meth:`CheckReport.expect` call, every
counted position of a :meth:`CheckReport.evaluate_row` row and every
ill-typed violation, in order, as ``(axiom, rendered witness)``.  Instance
counts alone cannot tell a reordered or substituted enumeration from the
original; a digest of the stream can.
"""
import hashlib
from dataclasses import replace

import pytest

from mutation import gamma_mutant
from permcat.endo import endo_multicat
from permcat.fixtures import (
    sign_en,
    sign_multiplication,
    sign_permcat,
    sign_ring,
    swap_operad,
    two_object_multicat,
)
from permcat.free import FreePermCat, free_on_multifunctor
from permcat.multicat import identity_multifunctor, terminal_multicat, validate_multicat
from permcat.permcats import (
    identity_monoidal_nat,
    identity_nlinear_nat,
    identity_smf,
    validate_monoidal_nat,
    validate_nlinear,
    validate_nlinear_nat,
    validate_permcat,
    validate_smf,
)
from permcat.reports import CheckReport, render
from permcat.rings import validate_en_monoidal, validate_ring_category
from permcat.tensor import check_s_suite
from permcat.transforms import check_triangles

SIGN = sign_permcat()
TWO = two_object_multicat()
FREE_TWO = FreePermCat(TWO)


def sign_without_a_composite():
    """``sign`` with the composite of its first two composable
    non-identities deleted: every instance that needs it is ill-typed."""
    identities = set(SIGN.identities.values())
    key = next(k for k in SIGN.composition if not identities & set(k))
    composition = {k: v for k, v in SIGN.composition.items() if k != key}
    return replace(SIGN, composition=composition)


CASES = {
    "permcat-sign": lambda: validate_permcat(SIGN),
    "permcat-free-two": lambda: validate_permcat(
        FREE_TWO, objects=FREE_TWO.enumerate_objects(2)),
    # the split window of the ``free`` command: interchange over a shorter one
    "permcat-free-two-split": lambda: validate_permcat(
        FREE_TWO, objects=FREE_TWO.enumerate_objects(2),
        interchange_objects=FREE_TWO.enumerate_objects(1)),
    "ill-typed": lambda: validate_permcat(sign_without_a_composite()),
    "smf-identity-sign": lambda: validate_smf(identity_smf(SIGN)),
    "smf-free-two": lambda: validate_smf(free_on_multifunctor(identity_multifunctor(TWO)),
                                         objects=FREE_TWO.enumerate_objects(2)),
    "monoidal-nat": lambda: validate_monoidal_nat(identity_monoidal_nat(identity_smf(SIGN))),
    "nlinear": lambda: validate_nlinear(sign_multiplication()),
    "nlinear-nat": lambda: validate_nlinear_nat(identity_nlinear_nat(sign_multiplication())),
    "check-s": lambda: check_s_suite((swap_operad(), TWO), 1),
    "triangles": lambda: check_triangles(TWO, SIGN, max_len=3, max_arity=3),
    "ring": lambda: validate_ring_category(sign_ring()),
    "en": lambda: validate_en_monoidal(sign_en(2, 2)),
    "multicat-endo-sign": lambda: validate_multicat(endo_multicat(SIGN), max_arity=2),
    "multicat-gamma-mutant": lambda: validate_multicat(
        gamma_mutant(terminal_multicat(4), "i1", ("i2",), "i3")),
}

# (stream length, SHA-256 of the stream) per case
DIGESTS = {
    "check-s": (342, "4b6a97c0fefe91606e900c644bff97401b8154852614a950d633ebfc0afd6a88"),
    "en": (2293, "0bb4caef534414c253eb6e1d169c19151b47f82c7f454a5963ad008e4d52063d"),
    "ill-typed": (230, "3d3049c17ad3cfdb0d324db8ad8e4f838200af9564db73d89f789feb488ea9a1"),
    "monoidal-nat": (11, "81568260462efdc73fb19cabcb4ee824eb7d3aea26868f0ebe6fda80456e3c28"),
    "multicat-endo-sign": (3006, "16644e6487074d90f47361edb6f26d660bf22e926f542817ccfccba3532f1b37"),
    "multicat-gamma-mutant": (8393, "251ce53fccd5ff241ba6f108fd9b77af69052c13135e8fcdf8c26939ab202acd"),
    "nlinear": (362, "5932c11ffde6b5c14410bd5c8537ecd0117c0a80f43da6fa393e82db5ca43bd0"),
    "nlinear-nat": (39, "6a9ef5c1696849c0b484ba5db65954e1581231f61a7dc3ef90aaf3fdc5a280a4"),
    "permcat-free-two": (4129, "2b47403027a10b9397aca4de0da6c1d852780ceb0f09767eebff5c0790dd7a95"),
    "permcat-free-two-split": (1343, "7a08f90313e4c6a53996b754a3c4ddb55dbed343210485f8dd177ddf2274ba63"),
    "permcat-sign": (230, "d637dc9839cb7a1df82d73f0e6a2853707faaf1601cc7dae4da01656deb52c03"),
    "ring": (5060, "ce3349d0abf13702f5c2bef8de7e3731c338144ae0a1e4574f60039f24022b68"),
    "smf-free-two": (770, "3df14cad1a29e136633312b96d6ac2831003404e9ea42a6cfb783cc7244db4d4"),
    "smf-identity-sign": (61, "fb9b47db8e8b03a75c4e7cb437dca4d1645e4eb24a5071407854b856c4d3d880"),
    "triangles": (136, "6c088e415fbd553b2dbd3dae917c3bc8514d9a02fe59d45dbe73185e2e376541"),
}


@pytest.fixture
def stream(monkeypatch):
    events = []
    expect, evaluate_row, violation = (
        CheckReport.expect, CheckReport.evaluate_row, CheckReport.violation)

    def recording_expect(self, axiom, lhs, rhs, witness):
        events.append((axiom, render(witness)))
        return expect(self, axiom, lhs, rhs, witness)

    def recording_row(self, axiom, lhs, rhs, row, witness):
        # one position at a time, so that each counted position is an event
        for x in row:
            counted, recorded = self.total_instances(), len(events)
            evaluate_row(self, axiom, lhs, rhs, (x,), witness)
            if self.total_instances() > counted and len(events) == recorded:
                events.append((axiom, render(witness(x))))

    def recording_violation(self, axiom, witness):
        rendered = render(witness)
        if rendered.startswith("(ill-typed, "):
            events.append((axiom, rendered))
        violation(self, axiom, witness)

    monkeypatch.setattr(CheckReport, "expect", recording_expect)
    monkeypatch.setattr(CheckReport, "evaluate_row", recording_row)
    monkeypatch.setattr(CheckReport, "violation", recording_violation)
    return events


@pytest.mark.parametrize("case", sorted(CASES))
def test_instance_stream_is_pinned(case, stream):
    CASES[case]()
    text = "\n".join(f"{axiom}\t{witness}" for axiom, witness in stream)
    assert (len(stream), hashlib.sha256(text.encode()).hexdigest()) == DIGESTS[case]
