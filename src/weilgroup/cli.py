"""Command line front end.

Subcommands:

    horn triples --n N --p P [--st S,T --mode tilde|strict]
    horn reduce --s S --t T [--mode smith|full] [--scalar-b]
    smith check --a A --b B --c C
    smith enumerate --a A --b B
    oracle lr --mu MU --nu NU --lambda LAM
    oracle matrix --a A --b B --l L
    oracle operator --slopes S1,S2 --l L --prec N
    classify --q Q --poly C0,..,Cn [--l L] [--sign plus|minus]
    verify paper-lists

Partitions and polynomial coefficients are comma-separated integers,
polynomials highest degree first.  Global flag: --json for machine
output.  ``horn triples`` refuses n above the desk scale of
:mod:`weilgroup.horn` (10) and ``horn reduce`` s + t above that of
:mod:`weilgroup.smith` (6), each with exit 1.  The oracle sweeps print one
invariant tuple per line (a JSON list of lists under --json) and refuse a
sweep above their limit (exit 1).

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import horn
from .classify import classify_all
from .smith import enumerate_cokernels, feasible_triple
from .weil import WeilError, parse_and_validate


def _ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _fractions(text: str) -> tuple[Fraction, ...]:
    from fractions import Fraction  # only here: no other command builds a Fraction

    try:
        return tuple(Fraction(x) for x in text.strip().split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilgroup",
        description="groups of rational points on abelian varieties of dimension <= 3",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    horn_p = sub.add_parser("horn", help="Horn triple sets and reductions")
    horn_sub = horn_p.add_subparsers(dest="horn_command", required=True)
    triples = horn_sub.add_parser("triples", help="enumerate T^n_p")
    triples.add_argument("--n", type=int, required=True)
    triples.add_argument("--p", type=int, required=True)
    triples.add_argument("--st", type=_ints, default=None, metavar="S,T",
                         help="restrict to the block sizes (S, T)")
    triples.add_argument("--mode", choices=("tilde", "strict"), default="strict")
    triples.set_defaults(run=_cmd_horn_triples)
    red = horn_sub.add_parser("reduce", help="minimal inequality system")
    red.add_argument("--s", type=int, required=True)
    red.add_argument("--t", type=int, required=True)
    red.add_argument("--mode", choices=("smith", "full"), default="smith")
    red.add_argument("--scalar-b", action="store_true",
                     help="identify all b's (scalar second block)")
    red.set_defaults(run=_cmd_horn_reduce)

    smith_p = sub.add_parser("smith", help="Smith invariant feasibility")
    smith_sub = smith_p.add_subparsers(dest="smith_command", required=True)
    check = smith_sub.add_parser("check", help="decide one triple")
    check.add_argument("--a", type=_ints, required=True)
    check.add_argument("--b", type=_ints, required=True)
    check.add_argument("--c", type=_ints, required=True)
    check.set_defaults(run=_cmd_smith_check)
    enum = smith_sub.add_parser("enumerate", help="all feasible c for (a, b)")
    enum.add_argument("--a", type=_ints, required=True)
    enum.add_argument("--b", type=_ints, required=True)
    enum.set_defaults(run=_cmd_smith_enumerate)

    oracle_p = sub.add_parser("oracle", help="brute-force oracles")
    oracle_sub = oracle_p.add_subparsers(dest="oracle_command", required=True)
    lr = oracle_sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    lr.add_argument("--mu", type=_ints, required=True)
    lr.add_argument("--nu", type=_ints, required=True)
    lr.add_argument("--lambda", dest="lam", type=_ints, required=True)
    lr.set_defaults(run=_cmd_oracle_lr)
    mat = oracle_sub.add_parser("matrix", help="block triangular sweep")
    mat.add_argument("--a", type=_ints, required=True)
    mat.add_argument("--b", type=_ints, required=True)
    mat.add_argument("--l", type=int, required=True)
    mat.set_defaults(run=_cmd_oracle_matrix)
    op = oracle_sub.add_parser("operator", help="2x2 operator sweep by polygon")
    op.add_argument("--slopes", type=_fractions, required=True, metavar="S1,S2")
    op.add_argument("--l", type=int, required=True)
    op.add_argument("--prec", type=int, required=True)
    op.set_defaults(run=_cmd_oracle_operator)

    cls = sub.add_parser("classify", help="admissible group types per prime")
    cls.add_argument("--q", type=int, required=True)
    cls.add_argument("--poly", type=_ints, required=True,
                     help="coefficients, highest degree first")
    cls.add_argument("--l", type=int, default=None)
    cls.add_argument("--sign", choices=("plus", "minus"), default=None,
                     help="expected sign in (t +- sqrt q); checked against the factorization")
    cls.set_defaults(run=_cmd_classify)

    ver = sub.add_parser("verify", help="verification harnesses")
    ver_sub = ver.add_subparsers(dest="verify_command", required=True)
    ver_sub.add_parser(
        "paper-lists", help="re-derive the published inequality tables"
    ).set_defaults(run=_cmd_verify)

    return parser


def _emit(args, payload, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _triple_json(t: horn.HornTriple) -> list[list[int]]:
    return [list(t.I), list(t.J), list(t.K)]


def _emit_tuples(args, tuples) -> None:
    _emit(args, [list(c) for c in tuples], [",".join(map(str, c)) for c in tuples])


def _cmd_horn_triples(args) -> int:
    if args.st is not None:
        if len(args.st) != 2:
            raise ValueError("--st wants two sizes, e.g. --st 4,2")
        s, t = args.st
        if s + t != args.n:
            raise ValueError(f"--st {s},{t} does not match --n {args.n}")
        triples = horn.enumerate_T_st(s, t, args.p, args.mode)
    else:
        triples = horn.enumerate_T(args.n, args.p)
    _emit(
        args,
        [_triple_json(t) for t in triples],
        [f"I={t.I} J={t.J} K={t.K}" for t in triples]
        + [f"total: {len(triples)}"],
    )
    return 0


def _cmd_horn_reduce(args) -> int:
    from .reduce import reduce_system  # loaded on demand, like the oracles and verify
    result = reduce_system(args.s, args.t, args.mode, scalar_b=args.scalar_b)
    payload = {
        "mode": result.mode,
        "kept": [result._pretty(iq) for iq in result.kept],
        "removed_structural": [result._pretty(iq) for iq in result.removed_structural],
        "removed_implied": [result._pretty(iq) for iq in result.removed_implied],
    }
    _emit(args, payload, result.pretty_lines())
    return 0


def _cmd_smith_check(args) -> int:
    ok = feasible_triple(args.a, args.b, args.c)
    _emit(args, {"feasible": ok}, ["feasible" if ok else "infeasible"])
    return 0


def _cmd_smith_enumerate(args) -> int:
    _emit_tuples(args, enumerate_cokernels(args.a, args.b))
    return 0


def _cmd_oracle_lr(args) -> int:
    from .oracle import lr_coefficient
    coeff = lr_coefficient(args.mu, args.nu, args.lam)
    _emit(args, {"coefficient": coeff}, [str(coeff)])
    return 0


def _cmd_oracle_matrix(args) -> int:
    from .oracle import matrix_cokernel_oracle
    found = matrix_cokernel_oracle(args.a, args.b, args.l)
    _emit_tuples(args, sorted(found, reverse=True))
    return 0


def _cmd_oracle_operator(args) -> int:
    from .oracle import operator_group_oracle
    found = operator_group_oracle(args.slopes, args.l, args.prec)
    _emit_tuples(args, sorted(found, reverse=True))
    return 0


def _cmd_classify(args) -> int:
    weil = parse_and_validate(args.poly, args.q)
    result = classify_all(weil, only_l=args.l)
    if args.sign is not None and result.plan.sign not in (None, args.sign):
        raise ValueError(
            f"--sign {args.sign} contradicts the factored sign {result.plan.sign}"
        )
    if args.l is not None:
        groups = result.groups.get(args.l, ())
        payload = [list(c) for c in groups]
        lines = [",".join(map(str, c)) for c in groups]
        lines += [f"note: {n}" for n in result.notices]
        _emit(args, payload, lines)
        return 0
    payload = {
        "q": weil.q,
        "poly": list(weil.coeffs),
        "shape": result.plan.tag,
        "groups": {str(l): [list(c) for c in cs] for l, cs in result.groups.items()},
        "notices": list(result.notices),
    }
    lines = [f"shape: {result.plan.tag}"]
    for l in sorted(result.groups):
        for c in result.groups[l]:
            lines.append(f"l={l}: {','.join(map(str, c))}")
    lines += [f"note: {n}" for n in result.notices]
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    from .verify import verify_paper_lists  # loaded on demand, like reduce and the oracles

    report = verify_paper_lists()
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.to_text())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except WeilError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
