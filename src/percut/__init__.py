"""Percolation, minimal cutsets, killed walks, and free fields on finite graphs.

A horizon vertex set stands in for infinity: clusters, cutsets, walks,
and fields all treat it as absorbing.  Everything exact is solved or
enumerated at desk scale; everything sampled carries seeds and
confidence intervals.
"""

from .errors import (
    CapExceededError,
    GraphStructureError,
    NumericalError,
    ParseError,
    PercutError,
    PreconditionError,
    TheoremViolationError,
)
from .graph_core import (
    FAMILY_BUILDERS,
    HORIZON,
    Graph,
    Multigraph,
    SubdivisionMap,
    box3d_graph,
    contract_subdivision,
    cycle_graph,
    dump_graph,
    euler_circuit,
    eulerian_from_two_trees,
    grid_graph,
    iso_profile,
    load_graph,
    path_graph,
    star_graph,
    subdivide,
)
from .cutsets import (
    Cutset,
    CutsetDecomposition,
    KargerResult,
    QnTable,
    decompose,
    enumerate_minimal_cutsets_bruteforce,
    enumerate_minimal_cutsets_by_components,
    exposed_boundary,
    is_minimal_cutset,
    karger_count_min_cuts,
    verified_cutset,
)
from .frontier import count_minimal_cutsets
from .percolation import (
    ClusterReport,
    EventProbability,
    PercConfig,
    boundary_census_exact,
    boundary_census_mc,
    boundary_hit_probability,
    cluster_report,
    peierls_bound,
    theta,
)
from .fkg_chain import (
    ChainedSequence,
    ConnectivityOracle,
    build_chain,
    fkg_lower_bound,
    theorem1_lower_bound_check,
    verify_full_connectivity,
)
from .cover_lemma import (
    SubStochasticMatrix,
    covering_sum_bruteforce,
    covering_sum_exact,
    covering_sum_mc,
    delta_bound,
    gamma_sequences,
    is_gamma_sequence,
    load_matrix_file,
    min_cut,
    sample_h_graphs,
)
from .rw_cutsets import (
    CrossingMatrix,
    RwCensus,
    crossing_matrix,
    escape_constant,
    escape_probabilities,
    qn_census_rw,
    subdivision_escape_check,
)
from .gff import (
    GaussianField,
    GreenMatrix,
    domination_endpoint_check,
    excursion_cluster,
    green,
    markov_check,
    sample_field,
    section8_pipeline,
    sign_bound_check,
)

__version__ = "0.1.0"
