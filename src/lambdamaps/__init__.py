"""Bijections between planar linear normal lambda terms and rooted planar
maps, with exhaustive desk-scale enumeration oracles."""

from .bijections import (
    DegreeTreeStats,
    SkeletonStats,
    degree_tree_stats,
    phi,
    phi_inv,
    psi,
    psi_inv,
    skeleton_stats,
)
from .connectivity import (
    ConnectivityClass,
    check_family,
    check_reduced,
    edge_connectivity_class,
    reduce_skeleton,
    unreduce,
)
from .enumeration import (
    compare_stat_multisets,
    count_table,
    gen_maps,
    gen_skeletons,
    gen_trees,
)
from .labeled_trees import (
    LabeledTree,
    parse_labeled_tree,
    render_labeled_tree,
    validate_degree_tree,
    validate_vtree,
)
from .lambda_core import (
    Abs,
    App,
    Binary,
    Diagram,
    LEAF,
    Leaf,
    Skeleton,
    Unary,
    Var,
    alpha_equal,
    diagram_of,
    is_normal,
    parse_skeleton,
    parse_term,
    planar_match,
    render_skeleton,
    render_term,
    skeleton_of,
    term_of_skeleton,
)
from .planar_maps import (
    EMPTY_MAP,
    MapStats,
    RootedMap,
    attach_root_edge,
    canonical_form,
    canonical_map,
    decompose,
    map_stats,
    parse_map,
    pi,
    render_map,
    rho,
    rho_direct,
    rho_inv,
    validate_map,
)
from .series import (
    TruncatedSeries,
    check_gf_relation,
    f_bipartite,
    limit_pmf,
    pmf_diagnostics,
    solve_zu,
)

__all__ = [name for name in dir() if not name.startswith("_")]
