import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import weilgroup.linprog
import weilgroup.reduce
from weilgroup.horn import HornTable, enumerate_T
from weilgroup.linprog import Cone, _combine, is_implied, linprog
from weilgroup.reduce import (
    _base_rows,
    _functional,
    _scalar_base,
    _scalarize_b,
    reduce_system,
    redundant_members_full,
)

EXPECTED_REDUCE = Path(__file__).parents[1] / "perfbench" / "expected_reduce.json"
FULL6_CERTIFICATES = Path(__file__).with_name("data") / "full6_certificates.json"


def _verdict_cases():
    return [
        is_implied(Cone([(1, 1), (1, 0), (0, 1)]), 0),
        is_implied(Cone([(1, -1), (1, 0), (0, 1)]), 0),
        is_implied(Cone([(1, 0, -1), (1, -1, 0), (0, 1, -1)]), 0),
        is_implied(Cone([(0, 0, 1), (1, -1, 0), (0, 1, -1)]), 0),
    ]


def test_is_implied_basics():
    # x1 >= 0 and x2 >= 0 imply x1 + x2 >= 0
    assert is_implied(Cone([(1, 1), (1, 0), (0, 1)]), 0)
    # ... but not x1 - x2 >= 0
    assert not is_implied(Cone([(1, -1), (1, 0), (0, 1)]), 0)
    assert _verdict_cases() == [True, False, True, False]


def test_is_implied_needs_combination():
    # x1 >= x2 and x2 >= x3 imply x1 >= x3
    rows = [(1, -1, 0), (0, 1, -1)]
    assert is_implied(Cone([(1, 0, -1), *rows]), 0)
    assert not is_implied(Cone([(0, 0, 1), *rows]), 0)


def test_identical_rows_first_dropped_second_kept():
    cone = Cone([(1, 0), (1, 0), (0, 1)])
    assert is_implied(cone, 0)
    cone.drop(0)
    assert not is_implied(cone, 1)
    # a positive multiple defines the same facet too
    assert is_implied(Cone([(2, 0), (1, 0), (0, 1)]), 0)


def test_implicit_equalities():
    # x >= 0, -x >= 0 and 2x >= 0 pin x = 0: each of them is tight on the
    # whole cone, the half-line x = 0, y >= 0
    cone = Cone([(1, 0), (-1, 0), (2, 0), (0, 1)])
    assert is_implied(cone, 0)  # 2x >= 0 gives x >= 0
    cone.drop(0)
    assert not is_implied(cone, 1)  # 2x >= 0 alone does not give x <= 0
    assert not is_implied(cone, 2)  # nor -x >= 0 alone 2x >= 0
    # x >= y >= 0 and x <= 0 leave only 0: x >= y and y >= 0 give x >= 0,
    # but x >= y and x <= 0 do not give y >= 0
    assert is_implied(Cone([(1, 0), (1, -1), (0, 1), (-1, 0)]), 0)
    assert not is_implied(Cone([(0, 1), (1, -1), (-1, 0)]), 0)


def test_double_description_with_lineality():
    # x1 >= x2 >= x3 in R^3: the line through (1, 1, 1) and two rays, each
    # tight on one of the two rows
    rows = [(1, -1, 0), (0, 1, -1)]
    rays, lineality, masks = linprog(rows, 3)
    assert lineality in ([(1, 1, 1)], [(-1, -1, -1)])
    assert sorted(tuple(_dot(g, r) == 0 for g in rows) for r in rays) == [
        (False, True),
        (True, False),
    ]
    assert all(_dot(g, r) >= 0 for g in rows for r in rays)
    assert masks == _zero_sets(rows, rays)
    assert linprog([], 2) == ([], [(1, 0), (0, 1)], [])
    # on that cone x1 >= 0 is not implied, x1 >= x3 is
    assert not is_implied(Cone([(1, 0, 0), *rows]), 0)
    assert is_implied(Cone([(1, 0, -1), *rows]), 0)


def _scan_linprog(rows, dim):
    """The double description with adjacency decided by a scan over every
    other ray: the reference for the packed test in ``linprog``."""
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []
    for bit, g in enumerate(rows):
        mask = 1 << bit
        k = next((k for k, v in enumerate(lineality) if _dot(g, v)), None)
        if k is not None:
            pivot = lineality.pop(k)
            gp = _dot(g, pivot)
            if gp < 0:
                gp, pivot = -gp, tuple(-x for x in pivot)
            lineality = [_combine(gp, v, -_dot(g, v), pivot) for v in lineality]
            rays = [(_combine(gp, r, -_dot(g, r), pivot), z | mask) for r, z in rays]
            rays.append((pivot, mask - 1))
            continue
        values = [_dot(g, r) for r, _ in rays]
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        need = dim - len(lineality) - 2
        new = [(r, z | mask if v == 0 else z) for (r, z), v in zip(rays, values) if v >= 0]
        for p in pos:
            rp, zp = rays[p]
            for q in neg:
                rq, zq = rays[q]
                common = zp & zq
                if common.bit_count() < need or any(
                    z & common == common for k, (_, z) in enumerate(rays) if k != p and k != q
                ):
                    continue
                new.append((_combine(values[p], rq, -values[q], rp), common | mask))
        rays = new
    return [r for r, _ in rays], lineality


def _zero_sets(rows, rays):
    """Per ray, the bitmask of the rows it is tight on, by dot products."""
    return [sum(1 << k for k, g in enumerate(rows) if not _dot(g, r)) for r in rays]


def test_packed_adjacency_matches_scan_on_block_systems(monkeypatch):
    # every double description a reduction runs: each block system's sorted
    # cone rows and each implicit-equality sub-system
    inputs = []
    packed = weilgroup.linprog.linprog

    def recorded(rows, dim):
        inputs.append((list(rows), dim))
        return packed(rows, dim)

    monkeypatch.setattr(weilgroup.linprog, "linprog", recorded)
    for n in range(2, 7):
        for s in range(1, n):
            for scalar_b in (False, True):
                reduce_system(s, n - s, scalar_b=scalar_b, table=HornTable())
    assert len(inputs) > 2 * 15  # one cone per system, plus the equality runs
    for rows, dim in inputs:
        rays, lineality, masks = packed(rows, dim)
        assert (rays, lineality) == _scan_linprog(rows, dim), (rows, dim)
        assert masks == _zero_sets(rows, rays), (rows, dim)


def test_packed_adjacency_matches_scan_on_random_cones():
    rng = random.Random(15)
    with_lineality = 0
    for _ in range(1500):
        dim = rng.randint(1, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 18))]
        if rng.random() < 0.5:  # a pointed cone: add x_i >= 0 for every coordinate
            rows += [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
            rng.shuffle(rows)
        rays, lineality, masks = linprog(rows, dim)
        with_lineality += bool(lineality)
        assert (rays, lineality) == _scan_linprog(rows, dim), (rows, dim)
        assert masks == _zero_sets(rows, rays), (rows, dim)
    assert 100 < with_lineality < 1400


def _solve(gens, phi):
    """The unique mu with sum mu_j gens_j = phi, in Fractions, or None."""
    k = len(gens)
    eqs = [[Fraction(g[c]) for g in gens] + [Fraction(phi[c])] for c in range(len(phi))]
    for col in range(k):
        piv = next((r for r in range(col, len(eqs)) if eqs[r][col]), None)
        if piv is None:
            return None  # dependent generators: no unique solution
        eqs[col], eqs[piv] = eqs[piv], eqs[col]
        eqs[col] = [v / eqs[col][col] for v in eqs[col]]
        for r in range(len(eqs)):
            if r != col and eqs[r][col]:
                eqs[r] = [v - eqs[r][col] * w for v, w in zip(eqs[r], eqs[col])]
    if any(eq[-1] for eq in eqs[k:]):
        return None
    return [eqs[r][-1] for r in range(k)]


def _in_cone(phi, gens):
    """Farkas and Caratheodory: phi is implied by gens . x >= 0 iff it is a
    nonnegative combination of at most dim linearly independent gens."""
    return any(
        mu is not None and min(mu, default=0) >= 0
        for k in range(len(phi) + 1)
        for subset in combinations(gens, k)
        for mu in [_solve(subset, phi)]
    )


def _others(cone, i):
    """The active rows of the cone other than row i, in index order."""
    return [r for j, r in enumerate(cone.rows) if cone.active[j] and j != i]


def test_sequential_verdicts_match_farkas_on_random_cones():
    # small random systems, many of them lower-dimensional or with a
    # lineality space, reduced as reduce_system does
    rng = random.Random(11)
    for _ in range(300):
        dim = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 6))]
        rows += rng.choices(rows, k=rng.randint(0, 2))  # repeated rows
        cone = Cone(rows)
        for k in range(len(rows)):
            implied = is_implied(cone, k)
            assert implied == _in_cone(rows[k], _others(cone, k)), (rows, k)
            if implied or rng.random() < 0.3:
                cone.drop(k)


def test_derivation_set_matches_expected_counts():
    expected = json.loads(EXPECTED_REDUCE.read_text())
    blocks = [(s, t) for s in range(1, 5) for t in range(1, 5) if s + t <= 5] + [(4, 2)]
    for s, t in blocks:
        for scalar_b, suffix in ((False, "smith"), (True, "smith_scalar_b")):
            result = reduce_system(s, t, scalar_b=scalar_b, table=HornTable())
            counts = [len(result.kept), len(result.removed_structural), len(result.removed_implied)]
            assert counts == expected["reduce_system"][f"{s}x{t}.{suffix}"], (s, t, scalar_b)
    for n in range(1, 6):
        members = redundant_members_full(n, table=HornTable())
        got = [[list(part) for part in tri] for tri in members]
        assert got == expected["redundant_members_full"][f"n{n}"], n


def _replay_against_fresh(monkeypatch, run):
    """Run with every shared-cone verdict compared to a freshly built cone."""
    verdicts = []
    shared = weilgroup.linprog.is_implied

    def checked(cone, k):
        verdict = shared(cone, k)
        assert verdict == shared(Cone([cone.rows[k], *_others(cone, k)]), 0)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(weilgroup.reduce, "is_implied", checked)
    run()
    return verdicts


def test_shared_cone_agrees_with_fresh_cones(monkeypatch):
    # (1, 3) and (1, 4) with scalar_b hold most implicit-equality verdicts
    for s, t, scalar_b in ((2, 2, False), (2, 2, True), (1, 3, True), (1, 4, True)):
        verdicts = _replay_against_fresh(
            monkeypatch, lambda: reduce_system(s, t, scalar_b=scalar_b, table=HornTable())
        )
        assert True in verdicts and False in verdicts


def test_freed_row_is_restored_and_dropped_row_is_freed():
    cone = Cone([(1, -1), (1, 0), (0, 1)])  # x1 >= x2, x1 >= 0, x2 >= 0
    assert not is_implied(cone, 0)
    # x1 >= 0 follows from x1 >= x2 >= 0 only if row 0 constrains again
    assert is_implied(cone, 1)
    cone.drop(0)
    assert not is_implied(cone, 1)


def test_reduce_path_avoids_scipy_linprog():
    """No redundancy verdict loads scipy or numpy."""
    script = (
        "import sys\n"
        "from weilgroup.reduce import reduce_system, redundant_members_full\n"
        "from weilgroup.verify import verify_paper_lists\n"
        "reduce_system(4, 2)\n"
        "reduce_system(4, 2, scalar_b=True)\n"
        "assert len(redundant_members_full(6)) == 1\n"
        "verify_paper_lists()\n"
        "print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _section(row, n):
    """A full-mode row on the section a_n = b_n = 0, which meets the
    2-dimensional lineality space of the system in 0."""
    return tuple(v for j, v in enumerate(row) if j not in (n - 1, 2 * n - 1))


def test_full_mode_lr_rule_matches_double_description():
    # non-sequential referee: one double description per system; a row is
    # redundant iff its face is not a facet or another row defines it too
    for n in range(2, 6):
        cands = [tri for p in range(1, n) for tri in enumerate_T(n, p)]
        rows = [_section(_functional(*tri, (n, n, n)), n) for tri in cands]
        base = [_section(r, n) for r in _base_rows((n, n, n), False)]
        rays, lineality, _ = linprog(
            sorted(base, reverse=True) + sorted(rows, reverse=True), 3 * n - 3
        )
        assert not lineality
        # extreme rays of a pointed cone: no ray's tight rows lie inside another's
        on = [frozenset(j for j, g in enumerate(rows + base) if not _dot(g, r)) for r in rays]
        assert not any(a < b for a in on for b in on)
        tight = [frozenset(k for k, r in enumerate(rays) if not _dot(g, r)) for g in rows + base]
        every = frozenset(range(len(rays)))
        redundant = []
        for k, tri in enumerate(cands):
            others = tight[:k] + tight[k + 1 :]
            facet = tight[k] != every and not any(z != every and tight[k] < z for z in others)
            if not facet or tight[k] in others:
                redundant.append(tri)
        assert tuple(redundant) == redundant_members_full(n), n


def test_full_mode_certificates_at_six():
    # integer certificates for every verdict of the n = 6 system: a point
    # refuting each kept row against all the others, and nonnegative
    # multipliers reproducing the one redundant row
    data = json.loads(FULL6_CERTIFICATES.read_text())
    n = data["n"]
    sizes = (n, n, n)
    cands = [tri for p in range(1, n) for tri in enumerate_T(n, p)]
    rows = {tri: _functional(*tri, sizes) for tri in cands}
    base = _base_rows(sizes, False)
    key = lambda tri: tuple(map(tuple, tri))
    refuted = {key(c["row"]): c["point"] for c in data["refutations"]}
    (implied,) = data["implied"]
    assert set(refuted) | {key(implied["row"])} == set(cands)
    assert tuple(redundant_members_full(n)) == (key(implied["row"]),)
    for tri, x in refuted.items():
        assert all(type(v) is int for v in x)
        assert _dot(rows[tri], x) < 0
        assert all(_dot(g, x) >= 0 for other, g in rows.items() if other != tri)
        assert all(_dot(g, x) >= 0 for g in base)
    combination = [0] * len(rows[cands[0]])
    for term in implied["combination"]:
        g = rows[key(term["candidate"])] if "candidate" in term else base[term["base"]]
        assert term["multiplier"] > 0
        combination = [c + term["multiplier"] * v for c, v in zip(combination, g)]
    assert implied["denominator"] > 0
    assert combination == [implied["denominator"] * v for v in rows[key(implied["row"])]]


def test_reduce_1_1():
    result = reduce_system(1, 1, "smith")
    assert sorted(iq.pretty() for iq in result.kept) == ["a1 >= c2", "b1 >= c2"]
    removed = {iq.pretty() for iq in result.removed_structural}
    removed |= {iq.pretty() for iq in result.removed_implied}
    assert "a1+b1 >= c1" in removed


def test_structurally_pruned_rows_are_lp_implied():
    # the fast filter only drops rows the LP would drop anyway
    for s, t in ((1, 1), (2, 1), (1, 2)):
        sizes = (s, t, s + t)
        result = reduce_system(s, t, "smith")
        base = _base_rows(sizes, True)
        kept_rows = [_functional(*iq.key(), sizes) for iq in result.kept]
        for iq in result.removed_structural:
            assert is_implied(Cone([_functional(*iq.key(), sizes), *kept_rows, *base]), 0)


def _dot(row, point):
    assert len(row) == len(point)
    return sum(x * v for x, v in zip(row, point))


def test_functionals_evaluate_like_their_inequalities():
    # evaluated at a point meeting the trace, every row built in the
    # eliminated coordinates equals the inequality it stands for
    rng = random.Random(8)
    cases = [((s, t, s + t), True) for s in range(1, 6) for t in range(1, 7 - s)]
    cases += [((n, n, n), False) for n in range(1, 7)]
    for sizes, nonnegative in cases:
        na, nb, nc = sizes
        for _ in range(20):
            a = [rng.randint(-9, 9) for _ in range(na)]
            b = [rng.randint(-9, 9) for _ in range(nb)]
            c = [rng.randint(-9, 9) for _ in range(nc - 1)]
            c.append(sum(a) + sum(b) - sum(c))
            point = a + b + c[:-1]
            I = rng.choices(range(1, nc + 1), k=rng.randint(0, nc))
            J = rng.choices(range(1, nc + 1), k=rng.randint(0, nc))
            K = rng.choices(range(1, nc + 1), k=rng.randint(0, nc))
            a_idx = [i for i in I if i <= na]
            b_idx = [j for j in J if j <= nb]
            value = sum(a[i - 1] for i in a_idx) + sum(b[j - 1] for j in b_idx)
            value -= sum(c[k - 1] for k in K)
            for sign in (1, -1):
                assert _dot(_functional(a_idx, b_idx, K, sizes, sign), point) == sign * value

            expected = []
            for block in (a, b, c):
                expected += [x - y for x, y in zip(block, block[1:])]
                if nonnegative:
                    expected.append(block[-1])
            base = _base_rows(sizes, nonnegative)
            assert [_dot(row, point) for row in base] == expected

            if nonnegative:  # smith mode: evaluate again at b constant
                beta = rng.randint(-9, 9)
                c[-1] += nb * beta - sum(b)
                b = [beta] * nb
                value = sum(a[i - 1] for i in a_idx) + beta * len(b_idx)
                value -= sum(c[k - 1] for k in K)
                point = a + [beta] + c[:-1]
                row = _scalarize_b(_functional(a_idx, b_idx, K, sizes), na, nb)
                assert _dot(row, point) == value
                scalar_expected = [x - y for x, y in zip(a, a[1:])] + [a[-1], beta]
                scalar_expected += [x - y for x, y in zip(c, c[1:])] + [c[-1]]
                values = [_dot(row, point) for row in _scalar_base(base, na, nb)]
                assert values == scalar_expected


def test_full_mode_no_redundancy_below_six():
    assert redundant_members_full(3) == ()
    assert redundant_members_full(4) == ()


def test_reduce_guards():
    with pytest.raises(ValueError):
        reduce_system(4, 3)
    for s, t in ((0, 3), (-2, 3), (3, 0)):
        with pytest.raises(ValueError, match="need s, t >= 1"):
            reduce_system(s, t)
        with pytest.raises(ValueError, match="need s, t >= 1"):
            reduce_system(s, t, table=HornTable())
    with pytest.raises(ValueError):
        reduce_system(2, 2, "bogus")
    with pytest.raises(ValueError):
        reduce_system(2, 2, "full", scalar_b=True)


def test_scalar_b_small():
    result = reduce_system(2, 1, "smith", scalar_b=True)
    assert result.mode == "smith+scalar_b"
    assert all("b2" not in iq.pretty_scalar_b() for iq in result.kept)
