#!/usr/bin/env python3
"""Classify every sextic class over q = 2, 3 and print the table.

Takes the degree-6 part of ``weilgroup.weil.weil_polynomials`` at q = 2
and q = 3 (892 classes, 12 of them of an unsupported shape) and prints the
admissible group types per prime.  A final consistency pass re-checks
every emitted tuple against the polygon dominance bound.
"""

import argparse
import sys

from weilgroup.classify import classify_all
from weilgroup.polygon import (
    hodge_polygon,
    newton_polygon,
    np_dominates_hp,
    transform_one_minus_t,
    valuation,
)
from weilgroup.weil import (
    UnsupportedShapeError,
    group_order,
    parse_and_validate,
    weil_polynomials,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=None,
                        help="classify only the first N classes")
    args = parser.parse_args()
    corpus = [parse_and_validate(f, q) for q in (2, 3) for f in weil_polynomials(q) if len(f) == 7]
    if args.limit:
        corpus = corpus[: args.limit]
    classified = skipped = checked = 0
    for weil in corpus:
        try:
            result = classify_all(weil)
        except UnsupportedShapeError:
            skipped += 1
            continue
        classified += 1
        poly_txt = ",".join(map(str, weil.coeffs))
        print(f"q={weil.q}  f={poly_txt}  shape={result.plan.tag}  "
              f"#X={group_order(weil)}")
        transformed = transform_one_minus_t(weil.coeffs)
        order = group_order(weil)
        for l in sorted(result.groups):
            npoly = newton_polygon(transformed, l)
            for c in result.groups[l]:
                assert sum(c) == valuation(order, l)
                assert np_dominates_hp(npoly, hodge_polygon(c, 6))
                checked += 1
            groups_txt = "; ".join(
                ",".join(map(str, c)) for c in result.groups[l]
            )
            print(f"    l={l}: {groups_txt}")
        for note in result.notices:
            print(f"    note: {note}")
    print(f"\nclassified {classified} classes ({skipped} unsupported shapes); "
          f"{checked} group tuples re-checked against polygon dominance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
