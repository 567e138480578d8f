"""The metrics the benchmark reports, and where each layer should show.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.
"""
from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's median by
# which a later change may worsen the metric.
END_TO_END = [
    ("verdict_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("doc_verdict_p50_ms", "ms", "lower", 0.24),
    ("doc_verdict_p90_ms", "ms", "lower", 0.24),
]

_UNITS = {"calls": "count", "self_s": "s", "instances": "count",
          "morphisms": "count", "bytes": "B"}
_BETTER_HIGHER = {"distinct_frac"}

LAYER_METRICS = [
    "perms.sigma_kgf.calls", "perms.sigma_kgf.self_s",
    "perms.sigma_kgf.distinct_frac", "perms.sigma_kgf.identity_frac",
    "perms.FinMap.preimage.calls", "perms.FinMap.preimage.distinct_frac",
    "perms.finmap_compose.calls",
    "perms.Permutation.new.calls",
    "multicat.compose.calls", "multicat.compose.self_s", "multicat.compose.error_frac",
    "multicat.act.calls", "multicat.ops.calls",
    "multicat.validate_multicat.self_s", "multicat.validate_multicat.instances",
    "permcats.validate_permcat.self_s", "permcats.validate_permcat.instances",
    "permcats.validate_nlinear.self_s", "permcats.validate_nlinear.instances",
    "permcats.FinPermCat.hom.calls", "permcats.SymMonFunctor.on_mor.calls",
    "permcats.sum_mors.calls",
    "free.free_compose.calls", "free.free_compose.self_s",
    "free.free_hom.calls", "free.free_hom.self_s", "free.free_hom.morphisms",
    "endo.view_compose.calls",
    "endo.endo_action.calls", "endo.endo_action.self_s",
    "endo.basepoint_check.self_s",
    "tensor.make_decomp.calls", "tensor.make_decomp.self_s",
    "tensor.make_decomp.distinct_frac",
    "tensor.TensorGridView.compose.calls", "tensor.TensorGridView.compose.self_s",
    "tensor.TensorGridView.compose.unsupported_frac",
    "tensor.s_morphism.calls",
    "transforms.check_triangles.self_s", "transforms.check_eta_square.self_s",
    "transforms.check_rho_mark_square.self_s", "transforms.mark_category.self_s",
    "rings.validate.self_s", "rings.validate.instances",
    "documents.parse_document.calls", "documents.parse_document.self_s",
    "documents.dumps.self_s", "documents.dumps.bytes",
    "reports.CheckReport.expect.calls", "reports.CheckReport.check.calls",
    "reports.render.calls",
    "cli.command.self_s",
]

# Measured by the traced run itself rather than by a wrapped function.
RUN_METRICS = [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("report.instances", "count", "lower"),
    ("report.violations", "count", "lower"),
]


def _layer_entry(metric: str) -> tuple:
    measure = metric.rsplit(".", 1)[1]
    unit = _UNITS.get(measure, "ratio")
    return metric, unit, "higher" if measure in _BETTER_HIGHER else "lower"


PER_LAYER = [_layer_entry(m) for m in LAYER_METRICS] + RUN_METRICS

# The workload on which each counter must be non-zero in a traced run.
MAIN_WORKLOAD = {
    "perms": "free", "multicat": "endo", "free": "free", "endo": "endo",
    "tensor": "comparison", "transforms": "comparison", "rings": "corpus",
    "documents": "corpus", "reports": "endo", "cli": "comparison",
    "permcats": "comparison",
}
MAIN_WORKLOAD_OVERRIDES = {
    "endo.endo_action.calls": "comparison",
    "endo.endo_action.self_s": "comparison",
    "reports.render.calls": "corpus",  # witnesses are rendered only on failures
}
# Layers whose every counter must be zero on these workloads.
ZERO_ON = {"tensor": ("free", "endo")}


def prediction_failures(workload: str, values: dict) -> list[str]:
    """The per-layer predictions a traced run's values break."""
    failures = []
    for metric in LAYER_METRICS:
        layer, measure = metric.split(".", 1)[0], metric.rsplit(".", 1)[1]
        main = MAIN_WORKLOAD_OVERRIDES.get(metric, MAIN_WORKLOAD[layer])
        counter = measure in ("calls", "self_s", "instances", "morphisms", "bytes")
        if counter and workload == main and not values[metric] > 0:
            failures.append(f"{metric} is 0 on {workload}")
        if workload in ZERO_ON.get(layer, ()) and values[metric] != 0:
            failures.append(f"{metric} is {values[metric]} on {workload}, expected 0")
    return failures
