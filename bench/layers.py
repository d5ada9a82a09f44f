"""The layer inventory of the traced run and the per-layer metrics built from it.

Layers are the modules of ``src/mixspec``.  ``TIMED`` lists the public
functions whose calls the traced run wraps in spans, each with the layer
metric its self time feeds (a span's self time is its duration minus the time
its child spans cover, so self times add up without double counting).  The
``verify`` checks are the exception: ``verify.<check>_s`` is each check's
whole duration.  Generator functions are timed only inside their ``next()``
calls.  Private helpers are not wrapped; their time lands in the public
caller's self time.
"""

from __future__ import annotations

import statistics

VERIFY_CHECKS = (
    "check_complete_graphs", "check_bicliques", "check_paths", "check_cycles",
    "check_cycle_closed_form", "check_sum_identities", "check_gf_against_pmfs",
    "check_gf_counts", "check_asymptotic_model", "check_clt_increments",
    "check_bound_moments", "check_alpha_pairs", "check_specialized_bounds",
    "check_extremal_inequalities", "check_propp",
)

_GRAPH_BUILDERS = ("build_graph", "path_graph", "cycle_graph", "complete_graph",
                   "biclique_graph", "petersen_graph", "cube_graph", "induced_subgraph",
                   "neighborhood_stats")

TIMED: dict[str, str | None] = {
    "graph.parse_edge_list": "graph.parse_s",
    **{f"graph.{f}": "graph.build_s" for f in _GRAPH_BUILDERS},
    "enumeration.enumerate_integrated": "enumeration.search_s",
    "enumeration.mix_histogram": "enumeration.histogram_s",
    "enumeration.max_cut": "enumeration.max_cut_s",
    "enumeration.propp_local_search": "enumeration.local_search_s",
    "families.sample_path": None,
    "families.sample_cycle": None,
    "families.path_pmf": "families.pmf_s",
    "families.cycle_pmf": "families.pmf_s",
    "genfunc.path_gf_coeffs": "genfunc.rows_s",
    "genfunc.cycle_gf_coeffs": "genfunc.rows_s",
    "genfunc.path_gf_coeff": "genfunc.rows_s",
    "genfunc.cycle_gf_coeff": "genfunc.rows_s",
    "genfunc.clt_diagnostics": "genfunc.clt_s",
    "bounds.bound_general": "bounds.general_s",
    "bounds.bound_specialized": "bounds.specialized_s",
    "bounds.alpha": "bounds.alpha_s",
    "bounds.semirandom_oracle": "bounds.oracle_s",
    "bounds.pair_joint_moments": "bounds.pair_moments_s",
    "corpus.family_corpus": "corpus.build_s",
    "corpus.random_corpus": "corpus.build_s",
    **{f"verify.{c}": None for c in VERIFY_CHECKS},
}

GENERATORS = ("enumeration.enumerate_integrated", "families.sample_path", "families.sample_cycle")
SAMPLERS = ("families.sample_path", "families.sample_cycle")
ROOT = "cli.main"

# Work counts the traced child computes from captured arguments and results,
# with the layer metric each one feeds.
COUNTS = {
    "edges_parsed": "graph.edges_parsed",
    "rows": "genfunc.rows",
    "coeff_bits": "genfunc.coeff_bits",
    "vpp_pairs": "bounds.vpp_pairs",
    "dependent_pairs": "bounds.dependent_pairs",
    "oracle_assignments": "bounds.oracle_assignments",
    "max_cut_masks": "enumeration.max_cut_masks",
}

# Every per-layer metric, in report order, with its unit.
PER_LAYER: dict[str, str] = {
    "cli.import_s": "s",
    "cli.stdout_bytes": "B",
    "cli.write_s": "s",
    "graph.parse_s": "s",
    "graph.edges_parsed": "count",
    "graph.build_s": "s",
    "enumeration.search_s": "s",
    "enumeration.colorings": "count",
    "enumeration.colorings_per_s": "1/s",
    "enumeration.histogram_s": "s",
    "enumeration.max_cut_s": "s",
    "enumeration.max_cut_masks": "count",
    "enumeration.local_search_s": "s",
    "families.sampler_setup_s": "s",
    "families.draw_s_p50": "s",
    "families.draws": "count",
    "families.pmf_s": "s",
    "genfunc.rows_s": "s",
    "genfunc.rows": "count",
    "genfunc.coeff_bits": "bit",
    "genfunc.clt_s": "s",
    "bounds.general_s": "s",
    "bounds.specialized_s": "s",
    "bounds.alpha_calls": "count",
    "bounds.alpha_s": "s",
    "bounds.vpp_pairs": "count",
    "bounds.dependent_pairs": "count",
    "bounds.dependent_pair_share": "1",
    "bounds.oracle_s": "s",
    "bounds.oracle_assignments": "count",
    "bounds.pair_moments_s": "s",
    **{f"verify.{c}_s": "s" for c in VERIFY_CHECKS},
    "corpus.build_s": "s",
    "trace.overhead_ratio": "1",
}

# Layer metrics that must record work on each workload.  A metric listed here
# that reads zero means its spans went missing, e.g. after a refactor renamed
# or inlined the function the traced run wraps.
_EVERYWHERE = ["cli.import_s", "cli.stdout_bytes", "cli.write_s", "graph.build_s"]
EXPECTED: dict[str, list[str]] = {
    "exhaustive": _EVERYWHERE + [
        "graph.parse_s", "graph.edges_parsed", "enumeration.search_s",
        "enumeration.colorings", "enumeration.histogram_s", "bounds.general_s"],
    "large_n": _EVERYWHERE + [
        "graph.parse_s", "graph.edges_parsed", "families.sampler_setup_s",
        "families.draw_s_p50", "families.draws", "families.pmf_s", "genfunc.rows_s",
        "genfunc.rows", "genfunc.coeff_bits", "genfunc.clt_s", "bounds.general_s",
        "bounds.specialized_s", "bounds.alpha_calls", "bounds.alpha_s",
        "bounds.vpp_pairs", "bounds.dependent_pairs"],
    "crosscheck": _EVERYWHERE + [
        "enumeration.search_s", "enumeration.colorings", "enumeration.histogram_s",
        "enumeration.max_cut_s", "enumeration.max_cut_masks", "enumeration.local_search_s",
        "genfunc.rows_s", "genfunc.rows", "genfunc.coeff_bits", "genfunc.clt_s",
        "bounds.general_s", "bounds.specialized_s", "bounds.alpha_calls", "bounds.alpha_s",
        "bounds.vpp_pairs", "bounds.dependent_pairs", "bounds.oracle_s",
        "bounds.oracle_assignments", "bounds.pair_moments_s", "corpus.build_s",
    ] + [f"verify.{c}_s" for c in VERIFY_CHECKS],
}


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the per-request summaries
    that ``trace_child.py`` writes (``trace.overhead_ratio`` is added by the
    caller, which also times the untraced pass)."""
    m = dict.fromkeys(PER_LAYER, 0)
    m.pop("trace.overhead_ratio")
    draws: list[float] = []
    for s in summaries:
        for key, seconds in s["self_s"].items():
            metric = TIMED.get(key)
            if metric is not None:
                m[metric] += seconds
        for check in VERIFY_CHECKS:
            m[f"verify.{check}_s"] += s["incl_s"].get(f"verify.{check}", 0.0)
        m["cli.stdout_bytes"] += s["stdout_bytes"]
        m["cli.write_s"] += s["write_s"]
        m["enumeration.colorings"] += s["yields"].get("enumeration.enumerate_integrated", 0)
        m["bounds.alpha_calls"] += s["calls"].get("bounds.alpha", 0)
        for count, metric in COUNTS.items():
            m[metric] += s["counts"][count]
        for durations in s["draws"]:
            # The first next() builds the sampler tables and makes one draw.
            later = durations[1:]
            m["families.sampler_setup_s"] += durations[0] - (statistics.median(later) if later else 0.0)
            m["families.draws"] += len(durations)
            draws += later
    m["cli.import_s"] = statistics.median(s["import_s"] for s in summaries)
    if draws:
        m["families.draw_s_p50"] = statistics.median(draws)
    if m["enumeration.search_s"]:
        m["enumeration.colorings_per_s"] = m["enumeration.colorings"] / m["enumeration.search_s"]
    if m["bounds.vpp_pairs"]:
        m["bounds.dependent_pair_share"] = m["bounds.dependent_pairs"] / m["bounds.vpp_pairs"]
    return m
