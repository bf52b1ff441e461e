"""Exact solvers and checkable witnesses for the domination chain (domination,
total, paired, upper) together with packings, on graphs built from product
constructions."""

from .claims import (
    SUITE_ORDER,
    ClaimReport,
    appended_path_paired_witness,
    ratio_scan,
    run_suite,
)
from .families import (
    FamilySpec,
    build_family,
    canonical_spec,
    cayleypop,
    complete,
    cycle,
    lollipop,
    parse_family_spec,
    path,
    pendant_pairs,
    random_graph,
    random_tree,
    rook2xn,
    star,
    subdivided_star,
)
from .graphs import (
    DomainError,
    FormatError,
    Graph,
    ResourceError,
    VertexSet,
    connected_components,
    distance_power_conflict_graph,
    induced_subgraph,
    read_graph_text,
    write_graph_text,
)
from .matching import has_perfect_matching
from .products import (
    ProductIndexMap,
    cartesian_product,
    direct_product,
    implicit_direct_domination_check,
    implicit_direct_total_check,
    multiway_direct_complete,
    product_pair_adjacent,
    product_pairing_is_valid,
)
from .solvers import (
    Budget,
    Certificate,
    domination_number,
    independence_number,
    is_dominating,
    is_k_packing,
    is_minimal_dominating,
    is_paired_dominating,
    is_total_dominating,
    minimal_total_dominating_sizes,
    packing_number,
    paired_domination_number,
    pairing_is_valid,
    private_neighbors,
    total_domination_number,
    upper_domination_exhaustive,
    upper_domination_number,
)

__version__ = "0.1.0"
