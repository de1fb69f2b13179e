"""Combinatorial invariants, lattices, and polytopes of persistence barcodes.

A barcode (a finite list of real intervals) maps at each level k to a
multipermutation: the bar labels of its sorted level-k sample points.
Canonicalized, these words are invariants of the barcode up to relabeling
and rescaling; they carry a graded lattice order whose rank counts bar
crossings, embed as principal ideals in multinomial Newman lattices, realize
convex polytopes of dimension n(2^k + 1) - 2, and bound the bottleneck and
q-Wasserstein distances between affinely aligned barcodes.
"""

from .barcode import (
    Bar,
    Barcode,
    affine_transform,
    crossing_number,
    generate_barcode,
    has_containing_bar,
    is_k_strict,
    read_barcode,
)
from .distances import (
    Alignment,
    BoundReport,
    Matching,
    align,
    bottleneck,
    check_convergence_bounds,
    perturb_preserving_invariant,
    wasserstein,
)
from .lattice import (
    DEFAULT_POSITION_CAP,
    HasseDiagram,
    IdealReport,
    LatticeSpec,
    enumerate_lattice,
    join,
    meet,
    rank_vector,
    top_element,
    verify_ideal_isomorphism,
)
from .multiperm import (
    Multipermutation,
    canonicalize,
    delta_k,
    f_k,
    g_k,
    inversion_multiset,
    iota,
    newman_leq,
    phi,
    prec,
    rank,
    relabel,
    second_occurrence_subword,
)
from .polytope import (
    VertexSet,
    affine_dimension,
    dimension_report,
    pi_partition_blocks,
    vertices,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "Bar",
    "Barcode",
    "affine_transform",
    "crossing_number",
    "generate_barcode",
    "has_containing_bar",
    "is_k_strict",
    "read_barcode",
    "Alignment",
    "BoundReport",
    "Matching",
    "align",
    "bottleneck",
    "check_convergence_bounds",
    "perturb_preserving_invariant",
    "wasserstein",
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
    "VertexSet",
    "affine_dimension",
    "dimension_report",
    "pi_partition_blocks",
    "vertices",
    "SplitMix64",
    "__version__",
]
