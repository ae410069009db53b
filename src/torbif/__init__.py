"""Exact equivariant bifurcation invariants on the 2-torus.

The package computes, in exact rational arithmetic, the Euler-ring
invariants that detect and classify global families of periodic solutions
of circle-symmetric second-order systems.  The ring of the 2-torus is
implemented with its star product on generators indexed by closed
subgroups, degrees of -Id on orthogonal representations reduce to that
product, and per-level bifurcation indices come with machine-checked
nontriviality certificates and a noncompactness classification.

The value types (`TorusSubgroup`, the two Euler-ring elements, the two
representations, `SpectralDatum`, `AssumptionReport`,
`CriticalPointProblem`, `BifurcationLevel` and `BifurcationReport`) are
immutable plain classes.  They compare, hash and print by their fields,
refuse assignment and survive `pickle` and `copy`.  They are not
dataclasses, so `dataclasses.replace`, `fields` and `asdict` do not apply
to them: a changed value is built with its constructor.
"""

from .bifurcation import (
    BifurcationReport,
    Certificate,
    Classification,
    any_zero_sum_subset,
    bif_index,
    build_report,
    certify_nontrivial,
    classify_noncompact,
    example_problem,
    exists_zero_sum_subset,
)
from .euler import (
    EulerElementS1,
    EulerElementT2,
    embed_s1_to_t2,
    format_element,
)
from .grammar import ElementParseError, parse_element
from .problem_io import (
    ProblemFormatError,
    load_problem,
    parse_problem,
    problem_to_text,
    write_problem,
)
from .representations import (
    S1Representation,
    T2Representation,
    deg_minus_id_t2,
    loop_decompose,
)
from .spectral import (
    AssumptionReport,
    BifurcationLevel,
    CriticalPointProblem,
    InvalidLevel,
    SpectralDatum,
    lambda_set,
    level_from_lambda_sq,
    negative_space,
    resonant_pairs,
    resonant_space,
    validate,
)
from .subgroups import TorusSubgroup, normalize_character

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "BifurcationLevel",
    "BifurcationReport",
    "Certificate",
    "Classification",
    "CriticalPointProblem",
    "ElementParseError",
    "EulerElementS1",
    "EulerElementT2",
    "InvalidLevel",
    "ProblemFormatError",
    "S1Representation",
    "SpectralDatum",
    "T2Representation",
    "TorusSubgroup",
    "any_zero_sum_subset",
    "bif_index",
    "build_report",
    "certify_nontrivial",
    "classify_noncompact",
    "deg_minus_id_t2",
    "embed_s1_to_t2",
    "example_problem",
    "exists_zero_sum_subset",
    "format_element",
    "lambda_set",
    "level_from_lambda_sq",
    "load_problem",
    "loop_decompose",
    "negative_space",
    "normalize_character",
    "parse_element",
    "parse_problem",
    "problem_to_text",
    "resonant_pairs",
    "resonant_space",
    "validate",
    "write_problem",
]
