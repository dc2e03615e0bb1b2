"""Groups of rational points on abelian varieties of dimension <= 3.

Classifies the possible l-primary groups of rational points across an
isogeny class, given its characteristic polynomial of Frobenius, by exact
Newton/Hodge polygon dominance and Horn/Smith-invariant feasibility, with
independent brute-force oracles (tableau counting and exhaustive matrix
sweeps) validating every step.

The package exports the question only: ``parse_and_validate`` and
``classify_all``, their records ``WeilPolynomial`` and ``Classification``,
and ``WeilError``, the error family a caller catches (``.code`` names the
case).  Everything else is imported from its own module.
"""

# These imports load exactly what a classify request executes (classify
# itself imports weil, polygon, smith, horn and partitions), so a service that
# imports the package at start-up does not pay them inside its first request.
from .classify import Classification, classify_all
from .weil import WeilError, WeilPolynomial, parse_and_validate

__version__ = "0.1.0"

__all__ = ["Classification", "WeilError", "WeilPolynomial", "classify_all", "parse_and_validate"]
