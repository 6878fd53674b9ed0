"""Approximate GCD of univariate polynomials given by values at nodes.

The pipeline never converts to monomial coefficients: roots come from a
companion pencil built directly on the node/value data or, from degree 64
up on real nodes, from Aberth's iteration on its barycentric sums; nearby
roots are clustered into multiple roots, the two clustered root sets are
matched in a bipartite graph, and the GCD plus nearby polynomial pair are
assembled in root form and re-sampled wherever needed.
"""

from .agcd import (
    AgcdResult,
    approximate_gcd,
    assemble_gcd,
    certify_distance,
    reconstruct,
)
from .cluster import (
    ClusterParams,
    Strategy,
    cluster,
    cluster_dnc,
    cluster_heuristic,
)
from .errors import (
    DegenerateInputError,
    DuplicateNodesError,
    EigensolveFailureError,
    InsufficientNodesError,
    InvalidParameterError,
    LagGcdError,
    LengthMismatchError,
    ProblemFileError,
    ZeroPolynomialError,
)
from .lagpoly import (
    LagrangePoly,
    RootList,
    barycentric_weights,
    evaluate,
    from_roots,
)
from .matching import (
    Edge,
    MatchGraph,
    Matching,
    build_graph,
    exact_mwm,
    greedy_mwm,
)
from .metric import root_pseudometric
from .rootfind import (
    RootfindReport,
    build_pencil,
    pencil_determinant,
    roots,
)

__version__ = "0.1.0"

__all__ = [
    "AgcdResult",
    "ClusterParams",
    "DegenerateInputError",
    "DuplicateNodesError",
    "Edge",
    "EigensolveFailureError",
    "InsufficientNodesError",
    "InvalidParameterError",
    "LagGcdError",
    "LagrangePoly",
    "LengthMismatchError",
    "MatchGraph",
    "Matching",
    "ProblemFileError",
    "RootList",
    "RootfindReport",
    "Strategy",
    "ZeroPolynomialError",
    "approximate_gcd",
    "assemble_gcd",
    "barycentric_weights",
    "build_graph",
    "build_pencil",
    "certify_distance",
    "cluster",
    "cluster_dnc",
    "cluster_heuristic",
    "evaluate",
    "exact_mwm",
    "from_roots",
    "greedy_mwm",
    "pencil_determinant",
    "reconstruct",
    "root_pseudometric",
    "roots",
]
