"""Exact spectra of k-uniform hypergraphs.

Characteristic polynomials via the Macaulay resultant of the eigenvalue
system, generalized traces for leading coefficients, and floating-point
spectral bounds with verification helpers.
"""

from .errors import EdgeListFormatError, GuardError
from .hypergraphs import (
    Hypergraph,
    cartesian_product,
    complete,
    complete_cylinder,
    disjoint_union,
    from_edge_list,
    is_subgraph,
    single_edge,
    tetra_minus_face,
    to_edge_list,
    ultracube,
)
from .macaulay import CharPolyResult, MacaulayMatrix, build_macaulay, charpoly
from .traces import (
    coefficients_via_traces,
    count_closed_arrangements,
    count_simplices,
    generalized_trace,
)
from .polynomials import (
    RootSet,
    UniPoly,
    enumerate_monomials,
    numeric_roots,
    poly_residual,
    square_free_decomposition,
)
from .spectral import (
    ColoringReport,
    Eigenpair,
    FamilySpectrum,
    LambdaMaxReport,
    cartesian_eigenpair,
    complete3_spectrum,
    cylinder_spectrum,
    degree_bounds_check,
    greedy_color,
    lambda_max,
    root_of_unity_symmetry,
    single_edge_charpoly,
    subgraph_monotonicity_check,
    ultracube_sporadic,
    verify_eigenpair,
)

__version__ = "0.1.0"
