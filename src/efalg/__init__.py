"""Toolkit for finite effect algebras: structure analysis, triple
representation, isomorphism testing, and exhaustive enumeration."""

from .core import (
    UNDEFINED,
    AxiomViolationError,
    FiniteEffectAlgebra,
    FiniteGeneralizedEffectAlgebra,
    MalformedTableError,
    PartialOpTable,
    Verdict,
    Violation,
    verify_effect_algebra,
    verify_generalized,
)
from .structure import (
    HypothesisError,
    SharpBounds,
    StructureReport,
    are_compatible,
    blocks,
    central_elements,
    decompose,
    element_order,
    hypermeager_elements,
    is_archimedean,
    is_homogeneous,
    is_internally_compatible,
    is_lattice,
    is_sharply_dominating,
    has_rdp,
    meager_elements,
    principal_elements,
    sharp_bounds,
    sharp_elements,
    sigma_closure,
    structure_report,
    vartheta,
)
from .triple import (
    ReconstructionError,
    TeaAlgebra,
    TripleRep,
    extract_triple,
    reconstruct_tea,
    verify_roundtrip,
)
from .iso import canonical_form, find_isomorphism
from .catalog import (
    CatalogEntry,
    direct_product,
    enumerate_all,
    horizontal_sum,
    make_boolean,
    make_chain,
    named_catalog,
    random_algebra,
)
from .fileformat import ParseError, parse, serialize

__version__ = "0.1.0"
