"""Exact classification toolkit for toric rings of integral cyclic polytopes.

Construct an instance from a dimension and strictly increasing integer
parameters, then classify the two associated semigroup rings: the one
generated by all lattice points of the homogenised polytope and the one
generated by its vertices alone.  Every classification route has an
independent exact cross-check, and disagreements surface as findings.
"""

from .core import (
    CycloParams,
    DeltaTable,
    InvalidParameters,
    MomentMatrix,
    TransformedMatrix,
    build_params,
    canonical_form,
    moment_matrix,
    reverse_negate,
    transform,
    translate,
    vertex,
)
from .divdiff import (
    bvec,
    cone_coefficients,
    facet_chain_basis,
    facet_lattice_index,
    r1_witness,
    support_form,
)
from .faces import (
    FaceType,
    NotAFacet,
    SubsetDecomposition,
    decompose,
    face_type,
    facet_hyperplane,
    facets,
    is_face,
)
from .kp import (
    GorensteinOracle,
    NoWitnessExpected,
    RingReportKP,
    WitnessReport,
    classify_kp,
    gorenstein_oracle,
    gorenstein_theorem,
    gorenstein_witnesses,
    is_normal_kp,
)
from .kq import (
    GeneratorLattice,
    KernelBinomial,
    RingReportKQ,
    classify_kq,
    divisibility_test,
    generator_lattice,
    is_normal_kq_bruteforce,
    kernel_binomial,
)
from .lattice import (
    BudgetExceeded,
    HStarVector,
    enumerate_points,
    h_star,
    interior_count,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CycloParams",
    "DeltaTable",
    "FaceType",
    "GeneratorLattice",
    "GorensteinOracle",
    "HStarVector",
    "InvalidParameters",
    "KernelBinomial",
    "MomentMatrix",
    "NoWitnessExpected",
    "NotAFacet",
    "RingReportKP",
    "RingReportKQ",
    "SubsetDecomposition",
    "TransformedMatrix",
    "WitnessReport",
    "build_params",
    "bvec",
    "canonical_form",
    "classify_kp",
    "classify_kq",
    "cone_coefficients",
    "decompose",
    "divisibility_test",
    "enumerate_points",
    "face_type",
    "facet_chain_basis",
    "facet_hyperplane",
    "facet_lattice_index",
    "facets",
    "generator_lattice",
    "gorenstein_oracle",
    "gorenstein_theorem",
    "gorenstein_witnesses",
    "h_star",
    "interior_count",
    "is_face",
    "is_normal_kp",
    "is_normal_kq_bruteforce",
    "kernel_binomial",
    "moment_matrix",
    "r1_witness",
    "reverse_negate",
    "support_form",
    "transform",
    "translate",
    "vertex",
]
