"""Layers of smallq, what the tracer wraps, and the per-layer metrics.

Each layer is a module of the package (``report`` belongs to ``cli``).
BENCHMARK.json names each per-layer metric with its unit and direction.
``SOURCES`` says, for each of those names, how it is read from a traced run
and which end-to-end metric on which workload it is expected to move; the
self-test checks that every name has an entry.
"""

from __future__ import annotations

LAYER_OF = {
    "scalars": "scalars",
    "linalg": "linalg",
    "rootdata": "rootdata",
    "repcore": "repcore",
    "frobenius": "frobenius",
    "hopfcore": "hopfcore",
    "blocks": "blocks",
    "cli": "cli",
    "report": "cli",
}

# Public functions called 100k+ times in one workload: counted, not spanned.
COUNT_ONLY = (
    "scalars.CycloField.from_int",
    "scalars.LaurentPoly.eval_zeta",
    "linalg.RowBasis.reduce",
)

# Hot scalar dunders: count-only wrappers. An alias bound in the class body
# (``__rmul__ = __mul__``) shares the wrapper and its counter.
DUNDERS = (
    "scalars.CycloElem.__mul__",
    "scalars.CycloElem.__bool__",
    "scalars.LaurentPoly.__mul__",
)


def _module_dim(tracer, args, result):
    tracer.probe_max("repcore.max_module_dim", args[0].dim)


def _rowbasis_add(tracer, args, result):
    tracer.probe_max("linalg.max_dim", len(args[1]))
    if result:
        tracer.probe_add("linalg.rowbasis_add.accepted", 1)


PROBES = {
    "linalg.RowBasis.add": _rowbasis_add,
    "repcore.submodule_closure": _module_dim,
    "repcore.composition_factors": _module_dim,
    "repcore.relation_check": _module_dim,
}

_A1 = "wall_s on a1-linkage"
_FROB = "wall_s on frob-catalog"
_TRIPLE = "wall_s on triple-verify"
_SMALL = "a small share everywhere; shows work shifted into this layer"

# name -> (source, moves)
#   source: ("layer", layer)   summed self time of the layer's spans
#           ("calls", fn)      calls of a wrapped function
#           ("self", fn)       summed self time of a function's spans
#           ("incl", fn)       summed duration of its outermost spans
#           ("probe", key)     a probe value (summed or maxed, see MAXED)
#           ("ratio", key, fn) probe value / calls of fn
#           ("report_bytes",) / ("overhead",)
SOURCES = {
    "scalars.self_s": (("layer", "scalars"),
        f"{_TRIPLE} and {_A1}, not {_FROB}; a memo shows in peak_rss_mb/setup_s"),
    "scalars.cyclo_mul.calls": (("calls", "scalars.CycloElem.__mul__"), f"{_TRIPLE} and {_A1}"),
    "scalars.cyclo_bool.calls": (("calls", "scalars.CycloElem.__bool__"), f"{_TRIPLE} and {_A1}"),
    "scalars.cyclo_inverse.calls": (("calls", "scalars.CycloElem.inverse"), f"{_TRIPLE} and {_A1}"),
    "scalars.cyclo_inverse.self_s": (("self", "scalars.CycloElem.inverse"), f"{_TRIPLE} and {_A1}"),
    "scalars.laurent_mul.calls": (("calls", "scalars.LaurentPoly.__mul__"),
        f"{_FROB}; small on a1-linkage"),
    "scalars.laurent_exact_div.calls": (("calls", "scalars.LaurentPoly.exact_div"),
        f"{_FROB}; small on a1-linkage"),
    "scalars.laurent_exact_div.self_s": (("self", "scalars.LaurentPoly.exact_div"),
        f"{_FROB}; small on a1-linkage"),
    "scalars.eval_zeta.calls": (("calls", "scalars.LaurentPoly.eval_zeta"),
        f"{_FROB}; small on a1-linkage"),
    "linalg.self_s": (("layer", "linalg"), f"{_TRIPLE}, and {_A1}"),
    "linalg.rowbasis_add.calls": (("calls", "linalg.RowBasis.add"), f"{_TRIPLE}, and {_A1}"),
    "linalg.rowbasis_add.accepted": (("probe", "linalg.rowbasis_add.accepted"),
        f"{_TRIPLE}, and {_A1}"),
    "linalg.rowbasis_add.accept_ratio": (
        ("ratio", "linalg.rowbasis_add.accepted", "linalg.RowBasis.add"), f"{_TRIPLE}, and {_A1}"),
    "linalg.rowbasis_add.self_s": (("self", "linalg.RowBasis.add"), f"{_TRIPLE}, and {_A1}"),
    "linalg.nullspace.calls": (("calls", "linalg.nullspace"), f"{_TRIPLE}, and {_A1}"),
    "linalg.intertwiner_space.calls": (("calls", "linalg.intertwiner_space"),
        f"{_TRIPLE}, and {_A1}"),
    "linalg.max_dim": (("probe", "linalg.max_dim"), f"{_TRIPLE}, and {_A1}"),
    "linalg.mat_mul.calls": (("calls", "linalg.mat_mul"), _FROB),
    "linalg.mat_mul.self_s": (("self", "linalg.mat_mul"), _FROB),
    "repcore.self_s": (("layer", "repcore"), f"{_A1} only"),
    "repcore.submodule_closure.calls": (("calls", "repcore.submodule_closure"), f"{_A1} only"),
    "repcore.submodule_closure.self_s": (("self", "repcore.submodule_closure"), f"{_A1} only"),
    "repcore.composition_factors.s": (("incl", "repcore.composition_factors"), f"{_A1} only"),
    "repcore.max_module_dim": (("probe", "repcore.max_module_dim"), f"{_A1} only"),
    "repcore.weyl_module.s": (("incl", "repcore.weyl_module"), _FROB),
    "repcore.tensor_product.s": (("incl", "repcore.tensor_product"), _FROB),
    "repcore.relation_check.s": (("incl", "repcore.relation_check"), _FROB),
    "frobenius.self_s": (("layer", "frobenius"), _FROB),
    "frobenius.verify_commutator_identity.s": (
        ("incl", "frobenius.verify_commutator_identity"), _FROB),
    "frobenius.build_hecke_structure.s": (("incl", "frobenius.build_hecke_structure"), _FROB),
    "hopfcore.self_s": (("layer", "hopfcore"), f"{_TRIPLE} only"),
    "hopfcore.check_conditions.s": (("incl", "hopfcore.check_conditions"), f"{_TRIPLE} only"),
    "hopfcore.verify_equivalence.s": (("incl", "hopfcore.verify_equivalence"),
        f"{_TRIPLE} only"),
    "hopfcore.comodule_hom_space.calls": (("calls", "hopfcore.comodule_hom_space"),
        f"{_TRIPLE} only"),
    "hopfcore.find_iso.calls": (("calls", "hopfcore.find_iso"), f"{_TRIPLE} only"),
    "blocks.self_s": (("layer", "blocks"), _SMALL),
    "blocks.observed_blocks_A1.s": (("incl", "blocks.observed_blocks_A1"), _SMALL),
    "blocks.finite_block_bijection.s": (("incl", "blocks.finite_block_bijection"), _SMALL),
    "rootdata.self_s": (("layer", "rootdata"), _SMALL),
    "rootdata.orbit_key.calls": (("calls", "rootdata.DotOrbits.orbit_key"), _SMALL),
    "cli.self_s": (("layer", "cli"), _SMALL),
    "cli.report_bytes": (("report_bytes",), _SMALL),
    "trace.overhead_ratio": (("overhead",),
        "traced wall time / untraced wall_s; no end-to-end effect"),
}

MAXED = {"linalg.max_dim", "repcore.max_module_dim"}


def raw_metrics(summary, probes, report_bytes):
    """The summable/maxable raw values of one traced invocation.

    Ratios and the tracing overhead are left out; ``combine`` forms them.
    """
    by_name, by_layer = summary["by_name"], summary["by_layer"]
    out = {}
    for name, (source, _) in SOURCES.items():
        kind = source[0]
        if kind == "layer":
            out[name] = by_layer.get(source[1], 0.0)
        elif kind in ("calls", "self", "incl"):
            field = {"calls": "calls", "self": "self_s", "incl": "incl_s"}[kind]
            out[name] = by_name.get(source[1], {}).get(field, 0)
        elif kind == "probe":
            out[name] = probes.get(source[1], 0)
        elif kind == "report_bytes":
            out[name] = report_bytes
    for source, _ in SOURCES.values():
        if source[0] == "ratio":
            out[source[1]] = probes.get(source[1], 0)
            out["calls:" + source[2]] = by_name.get(source[2], {}).get("calls", 0)
    return out


def combine(raws, overhead_ratio):
    """Per-layer metrics of one round: raw values summed (or maxed) over the
    round's invocations, then ratios formed."""
    total = {}
    for raw in raws:
        for key, val in raw.items():
            if key in MAXED:
                total[key] = max(total.get(key, 0), val)
            else:
                total[key] = total.get(key, 0) + val
    out = {}
    for name, (source, _) in SOURCES.items():
        if source[0] == "ratio":
            calls = total.get("calls:" + source[2], 0)
            out[name] = total.get(source[1], 0) / calls if calls else 0.0
        elif source[0] == "overhead":
            out[name] = overhead_ratio
        else:
            out[name] = total.get(name, 0)
    return out
