"""The benchmark tracer's targets resolve against the package, so a
refactor of ``src/`` cannot silently break ``perfbench/run.py --trace 1``.

The tracer module is only loaded, never installed."""
import dataclasses
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from permcat import endo, tensor
from permcat.endo import endo_multicat
from permcat.fixtures import POS, sign_multiplication, sign_permcat, two_object_multicat
from permcat.free import free_identity
from permcat.multicat import identity_multifunctor, terminal_multicat
from permcat.perms import Permutation, identity_perm

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves_as_install_looks_it_up():
    """A module global, or an attribute in the owning class's ``__dict__``."""
    unresolved = []
    for module_name, path, _, _ in _targets():
        owner = importlib.import_module(f"permcat.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            unresolved.append(f"{module_name}.{path}")
    assert unresolved == []


def test_endo_views_have_a_replaceable_compose():
    view = endo_multicat(sign_permcat())
    assert dataclasses.is_dataclass(view)
    assert "compose_fn" in {f.name for f in dataclasses.fields(view)}


def test_induced_functors_reach_the_module_s_morphism(monkeypatch):
    """``S`` and the induced multilinear functors call ``s_morphism``
    through the module global, so a wrapper installed there counts them."""
    calls = []
    original = tensor.s_morphism

    def counting(*args):
        calls.append(args[0].Ms)
        return original(*args)

    monkeypatch.setattr(tensor, "s_morphism", counting)
    Ms = (terminal_multicat(2), two_object_multicat())
    mors = (free_identity(Ms[0], ("*",)), free_identity(Ms[1], ("a", "b")))
    tensor.s_functor(Ms).on_mor(mors)
    grid = tensor.tensor_grid(Ms)
    tensor.f_multi(identity_multifunctor(grid), Ms).on_mor(mors)
    assert calls == [Ms, Ms]


def test_cached_functors_reach_the_module_kernels_once_per_raw_key(monkeypatch):
    """The actions of ``decomposable_endo_multifunctor`` and the tensor
    operations of ``S`` are cached per functor, and each miss calls
    ``endo_action`` or ``tensor_op`` through the module global, so a wrapper
    installed there before the functor is built counts every raw key once."""
    actions, tensors = Counter(), Counter()
    endo_action, tensor_op = endo.endo_action, tensor.tensor_op

    def counting_action(P, components):
        actions[components] += 1
        return endo_action(P, components)

    def counting_tensor(Ms, ops):
        tensors[ops] += 1
        return tensor_op(Ms, ops)

    P = sign_multiplication(POS, POS)
    E = endo_multicat(P.sources[0])
    binary, unary = E.ops("0", ("1", "1"))[1], E.ops("1", ("1",))[1]
    monkeypatch.setattr(endo, "endo_action", counting_action)
    monkeypatch.setattr(tensor, "tensor_op", counting_tensor)

    F = endo.decomposable_endo_multifunctor(P)
    grid_ops = [tensor.make_decomp(F.source.factors, components, twist)
                for components, twist in [((binary, unary), identity_perm(2)),
                                          ((binary, unary), Permutation((2, 1))),
                                          ((unary, unary), identity_perm(1))]]
    for _ in range(2):
        for op in grid_ops:
            F.on_op(op)
    # one action per raw key: the two twists of one pair of components differ
    assert actions == {(binary, unary): 2, (unary, unary): 1}

    Ms = (terminal_multicat(2), two_object_multicat())
    mors = (free_identity(Ms[0], ("*",)), free_identity(Ms[1], ("a", "b")))
    for S in (tensor.s_functor(Ms), tensor.s_functor(Ms)):
        for _ in range(2):
            S.on_mor(mors)
    # one tensor operation per grid entry and functor
    assert len(tensors) == 2 and set(tensors.values()) == {2}
