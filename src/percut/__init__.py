"""Percolation, minimal cutsets, killed walks, and free fields on finite graphs.

A horizon vertex set stands in for infinity: clusters, cutsets, walks,
and fields all treat it as absorbing.  Everything exact is solved or
enumerated at desk scale; everything sampled carries seeds and
confidence intervals.

The public names below load their home module on first access (PEP 562),
so ``import percut`` and each command line run import only what they use.
"""

# Public name -> the module that defines it.
_HOMES = {
    name: module
    for module, names in {
        "errors": (
            "CapExceededError", "GraphStructureError", "NumericalError", "ParseError",
            "PercutError", "PreconditionError", "TheoremViolationError",
        ),
        "graph_core": (
            "FAMILY_BUILDERS", "Graph", "SubdivisionMap", "box3d_graph",
            "cycle_graph", "grid_graph", "load_graph", "path_graph", "star_graph", "subdivide",
        ),
        "cutsets": (
            "Cutset", "CutsetDecomposition", "KargerResult", "QnTable", "decompose",
            "enumerate_minimal_cutsets_bruteforce", "exposed_boundary", "is_minimal_cutset",
            "karger_count_min_cuts", "verified_cutset",
        ),
        "frontier": ("count_minimal_cutsets",),
        "_util": ("EventProbability",),
        "percolation": ("boundary_census_exact", "boundary_census_mc", "peierls_bound", "theta"),
        "fkg_chain": ("ChainedSequence", "ConnectivityOracle", "build_chain", "fkg_lower_bound"),
        "cover_lemma": (
            "SubStochasticMatrix", "covering_sum_exact", "covering_sum_mc", "delta_bound",
            "load_matrix_file", "min_cut",
        ),
        "rw_cutsets": (
            "CrossingMatrix", "RwCensus", "crossing_matrix", "escape_constant",
            "escape_probabilities", "qn_census_rw",
        ),
        "gff": ("GreenMatrix", "green", "section8_pipeline"),
    }.items()
    for name in names
}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
