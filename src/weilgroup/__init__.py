"""Groups of rational points on abelian varieties of dimension <= 3.

Classifies the possible l-primary groups of rational points across an
isogeny class, given its characteristic polynomial of Frobenius, by exact
Newton/Hodge polygon dominance and Horn/Smith-invariant feasibility, with
independent brute-force oracles (tableau counting and exhaustive matrix
sweeps) validating every step.
"""

# The re-exports load classify, weil, smith, reduce, horn, polygon and
# oracle eagerly on purpose: nothing in the package needs them, but a
# service that imports the package at start-up then does not pay those
# imports inside its first request.  No request path uses ``verify`` (the
# paper-table verification, the heaviest module), so ``verify_paper_lists``
# loads it on first use through the module ``__getattr__`` below.
from .classify import Classification, classify_all
from .horn import (
    HornTriple,
    complement_triple,
    enumerate_T,
    enumerate_T_st,
    enumerate_U,
    eval_inequality,
    lambda_of,
)
from .oracle import (
    lr_coefficient,
    matrix_cokernel_oracle,
    operator_group_oracle,
    smith_invariants,
)
from .polygon import (
    LatticePolygon,
    hodge_polygon,
    newton_polygon,
    np_dominates_hp,
    transform_one_minus_t,
)
from .reduce import reduce_system
from .smith import enumerate_cokernels, feasible_triple, inequality_system
from .weil import (
    FactoredShape,
    WeilPolynomial,
    factor_weil,
    group_order,
    parse_and_validate,
    root_valuations,
    shape_of,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "verify_paper_lists":
        from .verify import verify_paper_lists

        return verify_paper_lists
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Classification",
    "FactoredShape",
    "HornTriple",
    "LatticePolygon",
    "WeilPolynomial",
    "classify_all",
    "complement_triple",
    "enumerate_T",
    "enumerate_T_st",
    "enumerate_U",
    "enumerate_cokernels",
    "eval_inequality",
    "factor_weil",
    "feasible_triple",
    "group_order",
    "hodge_polygon",
    "inequality_system",
    "lambda_of",
    "lr_coefficient",
    "matrix_cokernel_oracle",
    "newton_polygon",
    "np_dominates_hp",
    "operator_group_oracle",
    "parse_and_validate",
    "reduce_system",
    "root_valuations",
    "shape_of",
    "smith_invariants",
    "transform_one_minus_t",
    "verify_paper_lists",
]
