"""Groups of rational points on abelian varieties of dimension <= 3.

Classifies the possible l-primary groups of rational points across an
isogeny class, given its characteristic polynomial of Frobenius, by exact
Newton/Hodge polygon dominance and Horn/Smith-invariant feasibility, with
independent brute-force oracles (tableau counting and exhaustive matrix
sweeps) validating every step.
"""

# The eager imports are exactly what a classify request executes (classify,
# weil, polygon, smith, horn, partitions), so a service that imports the
# package at start-up does not pay them inside its first request.  No request
# runs reduce, linprog, oracle or verify: their names load on first use
# through the module ``__getattr__`` below, once per name.
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
from .polygon import (
    LatticePolygon,
    hodge_polygon,
    newton_polygon,
    np_dominates_hp,
    transform_one_minus_t,
)
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


_LAZY = {
    "reduce_system": "reduce",
    "lr_coefficient": "oracle",
    "matrix_cokernel_oracle": "oracle",
    "operator_group_oracle": "oracle",
    "smith_invariants": "oracle",
    "verify_paper_lists": "verify",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return globals().setdefault(name, getattr(import_module(f".{_LAZY[name]}", __name__), name))


def __dir__():
    return sorted({*globals(), *__all__})


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
