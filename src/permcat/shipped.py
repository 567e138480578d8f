"""The example documents shipped in the repository's documents/ directory.

Each entry names a fixture and its document kind; regenerating the files
from here is deterministic, and a test asserts the shipped bytes match.
Mutant documents (single redirected entries, used by the CLI golden tests
to exercise exit code 1) are derived from the clean ones.
"""
from __future__ import annotations

from . import documents as docs
from .fixtures import (
    bool_en,
    bool_or_permcat,
    s3_codiscrete_permcat,
    sign_bipermutative,
    sign_braided_ring,
    sign_en,
    sign_nfold,
    sign_operad,
    sign_permcat,
    sign_ring,
    super_sign_permcat,
    swap_operad,
    two_object_multicat,
    zmod_permcat,
)
from .multicat import initial_operad, terminal_multicat
from .permcats import identity_monoidal_nat, identity_smf

SHIPPED = {
    "mterm3.json": ("multicat", lambda: terminal_multicat(3)),
    "mterm4.json": ("multicat", lambda: terminal_multicat(4)),
    "initial.json": ("multicat", lambda: initial_operad(4)),
    "sign-operad2.json": ("multicat", lambda: sign_operad(2)),
    "two-object.json": ("multicat", two_object_multicat),
    "swap-operad.json": ("multicat", swap_operad),
    "bool-or.json": ("permcat", bool_or_permcat),
    "zmod3.json": ("permcat", lambda: zmod_permcat(3)),
    "sign.json": ("permcat", sign_permcat),
    "super-sign.json": ("permcat", super_sign_permcat),
    "s3-codiscrete.json": ("permcat", s3_codiscrete_permcat),
    "sign-ring.json": ("ring", sign_ring),
    "sign-biperm.json": ("biperm", sign_bipermutative),
    "sign-braided.json": ("braided", sign_braided_ring),
    "sign-3fold.json": ("nfold", lambda: sign_nfold(3, 2)),
    "sign-e2.json": ("en", lambda: sign_en(2, 2)),
    "bool-en2.json": ("en", lambda: bool_en(2)),
    "identity-functor.json": ("functor", lambda: identity_smf(sign_permcat())),
    "identity-multinat.json": (
        "multinat", lambda: identity_monoidal_nat(identity_smf(sign_permcat()))),
}


def render(name: str) -> str:
    kind, builder = SHIPPED[name]
    return docs.serialize(kind, builder())


def mutant_en_zero_exchange() -> str:
    """The E_2 sign fixture with one zero-exchange component negated."""
    E = sign_en(2, 2)
    exchanges = dict(E.exchanges)
    exchanges[(1, 2, "0", "1", "1", "1")] = "0:-"
    from .rings import EnData
    return docs.serialize("en", EnData(E.name, E.additive, E.products,
                                       E.left_facts, E.right_facts, exchanges))


def mutant_multicat_unity() -> str:
    """The sign operad with a left-unity entry redirected."""
    M = sign_operad(2)
    gamma = dict(M.gamma)
    gamma[("+1", ("+2",))] = "-2"
    from .multicat import FinMulticat
    broken = FinMulticat(M.name, M.objects, M.max_arity, M.operations,
                         M.units, M.sigma, gamma)
    return docs.serialize("multicat", broken)


UNRESOLVED = """{
  "kind": "multicat",
  "version": 1,
  "name": "broken",
  "max_arity": 1,
  "objects": ["*"],
  "operations": [{"id": "u", "output": "*", "inputs": ["*"]}],
  "units": {"*": "u"},
  "sigma": [{"op": "u", "perm": [1], "result": "u"}],
  "gamma": [{"outer": "u", "inners": ["ghost"], "result": "u"}]
}
"""

MUTANTS = {
    "mutant-en-zero-exchange.json": mutant_en_zero_exchange,
    "mutant-multicat-unity.json": mutant_multicat_unity,
    "mutant-unresolved.json": lambda: UNRESOLVED,
}

