#!/usr/bin/env python3
"""Classify a corpus of sextic classes over small fields and print the table.

Builds every product of three distinct Weil quadratics and every squared
quadratic times a coprime one over q in {2, 3} (every trace a has
a^2 < 4q, so each product is a Weil polynomial and must validate), and
prints the admissible group types per prime.  A final consistency pass
re-checks every emitted tuple against the polygon dominance bound.
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
    poly_mul,
)


def build_corpus():
    quads = {2: [(1, a, 2) for a in range(-2, 3)],
             3: [(1, a, 3) for a in range(-3, 4)]}
    seen = set()
    corpus = []
    for q, qs in quads.items():
        candidates = []
        for i, p1 in enumerate(qs):
            for p2 in qs[i + 1 :]:
                for p3 in qs[qs.index(p2) + 1 :]:
                    candidates.append(poly_mul(poly_mul(p1, p2), p3))
        for p1 in qs:
            for p2 in qs:
                if p1 != p2:
                    candidates.append(poly_mul(poly_mul(p1, p1), p2))
        for coeffs in candidates:
            if (coeffs, q) in seen:
                continue
            seen.add((coeffs, q))
            corpus.append(parse_and_validate(coeffs, q))
    return corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=None,
                        help="classify only the first N classes")
    args = parser.parse_args()
    corpus = build_corpus()
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
        print(f"q={weil.q}  f={poly_txt}  shape={result.shape.tag}  "
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
