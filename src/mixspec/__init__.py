"""Exact enumeration, distributions, samplers, and bounds for integrated
two-colorings of finite simple graphs."""

from .bounds import (
    BoundReport,
    ExtremalBounds,
    InapplicableError,
    OracleMoments,
    alpha,
    bound_general,
    bound_specialized,
    extremal_bounds,
    pair_joint_moments,
    semirandom_oracle,
)
from .enumeration import (
    DEFAULT_VERTEX_CAP,
    CapExceededError,
    MixHistogram,
    enumerate_integrated,
    max_cut,
    mix_histogram,
    propp_local_search,
)
from .families import (
    cycle_count_closed_form,
    cycle_pmf,
    ic_biclique,
    ic_complete,
    ic_cycle,
    ic_path,
    necklace_enumerate,
    path_pmf,
    sample_cycle,
    sample_path,
)
from .genfunc import (
    CltReport,
    ModelCheckReport,
    UPoly,
    asymptotic_model_check,
    clt_diagnostics,
    cycle_gf_coeff,
    cycle_gf_coeffs,
    normal_cdf,
    path_gf_coeff,
    path_gf_coeffs,
    pgf_moments,
)
from .graph import (
    BLACK,
    WHITE,
    Coloring,
    Graph,
    NeighborhoodStats,
    SrgParams,
    build_graph,
    coloring_from_string,
    coloring_to_string,
    detect_srg,
    is_integrated,
    mix_of_coloring,
    mix_of_vertex,
    neighborhood_stats,
    parse_edge_list,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
