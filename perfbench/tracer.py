"""Per-layer counters, self time and spans for permcat, installed from outside.

``install`` wraps the public functions of each layer and rebinds every
name that refers to them: ``from .perms import sigma_kgf`` copies the
function into the importing module, so each copy is replaced, and so are
values of module-level dicts such as ``cli.RING_VALIDATORS``.

Every wrapped function keeps a call count and its self time: its wall time
minus the time spent in wrapped functions it called.  Hot kernels keep
only these aggregates.  Coarse boundaries (command, validator, parse,
dumps) also record a span with its parent's id; spans stay in memory and
are written out when the pass ends.
"""
from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from contextlib import contextmanager

from permcat.errors import UnsupportedFragmentError


class Stat:
    __slots__ = ("calls", "self_s", "raised", "extra", "keys", "depth", "keepalive")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.extra = 0
        self.keys = set()
        self.depth = 0
        self.keepalive = []


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._child_time = [0.0]
        self._open_spans = [0]

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _open(self, name: str, **attrs) -> dict:
        record = {"id": len(self.spans) + 1, "parent": self._open_spans[-1],
                  "name": name, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open_spans.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._open_spans.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, such as one command."""
        record = self._open(name, **attrs)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, fn, name: str, *, span: bool = False, key=None, extra=None,
             raised: type = Exception, outermost: bool = False):
        """``fn`` counted under ``name``.

        ``key(args, kwargs, stat)`` adds the call's argument key to a set for
        ``distinct_frac``; ``extra(result)`` is added to ``Stat.extra``
        (only at the outermost level when ``outermost``); calls that raise
        ``raised`` are counted.
        """
        stat = self.stat(name)
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                stat.keys.add(key(args, kwargs, stat))
            record = self._open(name) if span else None
            stat.depth += 1
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except raised:
                stat.raised += 1
                raise
            else:
                if extra is not None and not (outermost and stat.depth > 1):
                    stat.extra += extra(result)
                return result
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - child_time.pop()
                child_time[-1] += elapsed
                stat.calls += 1
                stat.depth -= 1
                if record is not None:
                    self._close(record)

        wrapper.__wrapped__ = fn
        return wrapper


def by_value(args, kwargs, stat):
    return args + tuple(sorted(kwargs.items()))


def decomp_key(args, kwargs, stat):
    """``make_decomp(Ms, components, twist)``: multicategories by identity."""
    Ms = args[0]
    stat.keepalive.append(Ms)  # keeps ids unique while the set lives
    return (tuple(id(M) for M in Ms),) + tuple(args[1:])


def instances(report) -> int:
    return report.total_instances()


# (module, attribute path, stat name, wrap options)
TARGETS = [
    ("perms", "sigma_kgf", "perms.sigma_kgf",
     {"key": by_value, "extra": lambda p: p.is_identity()}),
    ("perms", "FinMap.preimage", "perms.FinMap.preimage", {"key": by_value}),
    ("perms", "finmap_compose", "perms.finmap_compose", {}),
    ("perms", "Permutation.__post_init__", "perms.Permutation.new", {}),
    ("multicat", "FinMulticat.compose", "multicat.compose", {}),
    ("multicat", "MulticatView.compose", "multicat.compose", {}),
    ("multicat", "FinMulticat.act", "multicat.act", {}),
    ("multicat", "MulticatView.act", "multicat.act", {}),
    ("multicat", "FinMulticat.ops", "multicat.ops", {}),
    ("multicat", "MulticatView.ops", "multicat.ops", {}),
    ("multicat", "validate_multicat", "multicat.validate_multicat",
     {"span": True, "extra": instances}),
    ("permcats", "validate_permcat", "permcats.validate_permcat",
     {"span": True, "extra": instances}),
    ("permcats", "validate_nlinear", "permcats.validate_nlinear",
     {"span": True, "extra": instances}),
    ("permcats", "FinPermCat.hom", "permcats.FinPermCat.hom", {}),
    ("permcats", "SymMonFunctor.on_mor", "permcats.SymMonFunctor.on_mor", {}),
    ("permcats", "sum_mors", "permcats.sum_mors", {}),
    ("free", "free_compose", "free.free_compose", {}),
    ("free", "free_hom", "free.free_hom", {"extra": len}),
    ("endo", "endo_action", "endo.endo_action", {}),
    ("endo", "basepoint_check", "endo.basepoint_check", {"span": True}),
    ("tensor", "make_decomp", "tensor.make_decomp", {"key": decomp_key}),
    ("tensor", "TensorGridView.compose", "tensor.TensorGridView.compose",
     {"raised": UnsupportedFragmentError}),
    ("tensor", "s_morphism", "tensor.s_morphism", {}),
    ("transforms", "check_triangles", "transforms.check_triangles", {"span": True}),
    ("transforms", "check_eta_square", "transforms.check_eta_square", {"span": True}),
    ("transforms", "check_rho_mark_square", "transforms.check_rho_mark_square",
     {"span": True}),
    ("transforms", "mark_category", "transforms.mark_category", {"span": True}),
    *[("rings", validator, "rings.validate",
       {"span": True, "extra": instances, "outermost": True})
      for validator in ("validate_ring_category", "validate_bipermutative",
                        "validate_braided_ring", "validate_nfold_monoidal",
                        "validate_en_monoidal")],
    ("documents", "parse_document", "documents.parse_document", {"span": True}),
    ("documents", "dumps", "documents.dumps",
     {"span": True, "extra": lambda text: len(text.encode("utf-8"))}),
    ("reports", "CheckReport.expect", "reports.CheckReport.expect", {}),
    ("reports", "CheckReport.check", "reports.CheckReport.check", {}),
    ("reports", "render", "reports.render", {}),
    *[("cli", command, "cli.command", {"span": True})
      for command in ("cmd_validate", "cmd_free", "cmd_endo", "cmd_tensor_s",
                      "cmd_check_s", "cmd_check_adjunction", "cmd_check_ring")],
]


def _rebind(original, replacement) -> None:
    """Point every permcat module global and module-level dict value that
    refers to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("permcat"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every target and the compose of views built by ``endo_multicat``."""
    for module_name, path, stat_name, options in TARGETS:
        module = importlib.import_module(f"permcat.{module_name}")
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = tracer.wrap(original, stat_name, **options)
        if owner is module:
            _rebind(original, wrapped)
        else:
            setattr(owner, attr, wrapped)

    endo = importlib.import_module("permcat.endo")
    original = endo.endo_multicat

    def endo_multicat(C):
        view = original(C)
        return dataclasses.replace(
            view, compose_fn=tracer.wrap(view.compose_fn, "endo.view_compose"))

    _rebind(original, endo_multicat)


def metric_value(tracer: Tracer, metric: str) -> float:
    """The value of a per-layer metric named ``<stat>.<measure>``."""
    stat_name, measure = metric.rsplit(".", 1)
    stat = tracer.stats.get(stat_name) or Stat()
    if measure == "calls":
        return stat.calls
    if measure == "self_s":
        return stat.self_s
    per_call = stat.calls or 1
    if measure == "distinct_frac":
        return len(stat.keys) / per_call
    if measure in ("error_frac", "unsupported_frac"):
        return stat.raised / per_call
    if measure == "identity_frac":
        return stat.extra / per_call
    if measure in ("instances", "morphisms", "bytes"):
        return stat.extra
    raise KeyError(metric)
