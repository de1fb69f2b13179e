"""The package's public surface: one public path to each result."""

import barcomb
from barcomb import barcode, lattice, polytope

PUBLIC = [
    # barcomb.barcode
    "Bar",
    "Barcode",
    "affine_transform",
    "crossing_number",
    "generate_barcode",
    "has_containing_bar",
    "is_k_strict",
    "read_barcode",
    # barcomb.distances
    "Alignment",
    "BoundReport",
    "Matching",
    "align",
    "bottleneck",
    "check_convergence_bounds",
    "perturb_preserving_invariant",
    "wasserstein",
    # barcomb.lattice
    "DEFAULT_POSITION_CAP",
    "HasseDiagram",
    "IdealReport",
    "LatticeSpec",
    "enumerate_lattice",
    "join",
    "meet",
    "rank_vector",
    "top_element",
    "verify_ideal_isomorphism",
    # barcomb.multiperm
    "Multipermutation",
    "canonicalize",
    "delta_k",
    "f_k",
    "g_k",
    "inversion_multiset",
    "iota",
    "newman_leq",
    "phi",
    "prec",
    "rank",
    "relabel",
    "second_occurrence_subword",
    # barcomb.polytope
    "VertexSet",
    "affine_dimension",
    "dimension_report",
    "pi_partition_blocks",
    "vertices",
    "SplitMix64",
    "__version__",
]


def test_public_names_are_pinned_and_the_removed_ones_gone():
    assert barcomb.__all__ == PUBLIC
    assert all(hasattr(barcomb, name) for name in PUBLIC)
    # list views and second paths to a result that another call gives:
    # the interval graph's edges are the pairs of crossing number >= 1,
    # the sample points are read by require_k_strict, vertex row i is
    # element i, bars[i - 1] is bar i, json.loads(to_json()) is the JSON
    # dict, and joining the vertex writers' chunks gives their text
    removed = {
        barcode: ["IntervalGraph", "interval_graph", "sample_points"],
        polytope: ["word_from_vector", "format_vertices_csv", "format_vertices_json"],
        barcode.Barcode: ["bar"],
        lattice.HasseDiagram: ["to_json_dict"],
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), name
            assert not hasattr(barcomb, name), name
