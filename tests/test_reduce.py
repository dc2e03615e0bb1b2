import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest

import weilgroup.linprog
import weilgroup.reduce
from weilgroup.horn import HornTable, enumerate_T, enumerate_T_st, enumerate_U, lambda_of
from weilgroup.oracle import lr_coefficient
from weilgroup.linprog import Cone, _combine, _pivot_columns, _rays, is_implied, linprog
from weilgroup.reduce import (
    _base_rows,
    _direct_sum_point,
    _functional,
    _scalar_base,
    _scalarize_b,
    reduce_system,
    redundant_members_full,
)
from weilgroup.smith import inequality_system


EXPECTED_REDUCE = Path(__file__).parents[1] / "perfbench" / "expected_reduce.json"
FULL6_CERTIFICATES = Path(__file__).with_name("data") / "full6_certificates.json"

# each child finishes in under 1.5 s: a wrong rule must fail the test, not hang it
CHILD_TIMEOUT_S = 60


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


def test_row_negative_on_no_ray_marks_the_rays_it_vanishes_on():
    # x >= 0 and y >= 0 give the rays (1, 0) and (0, 1); x + y >= 0 cuts
    # nothing off and vanishes on neither, a second x >= 0 vanishes on (0, 1)
    assert linprog([(1, 0), (0, 1), (1, 1)], 2) == ([(1, 0), (0, 1)], [], [0b010, 0b001])
    assert linprog([(1, 0), (0, 1), (1, 0)], 2) == ([(1, 0), (0, 1)], [], [0b010, 0b101])
    assert linprog([(1, 0), (0, 1), (2, 0)], 2)[2] == [0b010, 0b101]


def test_linprog_refuses_rows_of_another_length():
    # a longer row would lose its last coefficients to map, a shorter one
    # would be read as padded with zeros
    with pytest.raises(ValueError, match=r"^row 0 \(1, 0, 5\) has length 3, not dim=2$"):
        linprog([(1, 0, 5)], 2)
    with pytest.raises(ValueError, match=r"^row 0 \(1,\) has length 1, not dim=2$"):
        linprog([(1,)], 2)
    with pytest.raises(ValueError, match=r"^row 2 \(0, 1, 1\) has length 3"):
        linprog([(1, 0), (0, 1), (0, 1, 1)], 2)


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
    nonnegative combination of linearly independent gens.  Adding gens
    with coefficient 0 extends such a combination to a basis of the span
    of gens, so only those bases are tried, once phi is known to lie in
    the span.  Each basis has one basic solution, and the search stops at
    the first that is nonnegative."""
    gens = list(dict.fromkeys(g for g in gens if any(g)))  # distinct, nonzero
    rank = _rank(gens)
    if _rank(gens + [phi]) > rank:
        return False
    return any(
        mu is not None and min(mu, default=0) >= 0
        for basis in combinations(gens, rank)
        for mu in [_solve(basis, phi)]
    )


def _others(cone, i):
    """The active rows of the cone other than row i, in index order."""
    return [r for j, r in enumerate(cone.rows) if cone.active[j] and j != i]


def _random_rows(rng):
    """A small random system, often lower-dimensional or with a lineality space."""
    dim = rng.randint(1, 4)
    rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 6))]
    rows += rng.choices(rows, k=rng.randint(0, 2))  # repeated rows
    return rows, dim


def test_sequential_verdicts_match_farkas_on_random_cones():
    # random systems reduced as reduce_system does
    rng = random.Random(11)
    for _ in range(300):
        rows, dim = _random_rows(rng)
        cone = Cone(rows)
        for k in range(len(rows)):
            implied = is_implied(cone, k)
            assert implied == _in_cone(rows[k], _others(cone, k)), (rows, k)
            if implied or rng.random() < 0.3:
                cone.drop(k)


def _rank(rows):
    """Rank over Q, by fraction-free Gaussian elimination in integers."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                m[r] = [top[col] * a - m[r][col] * b for a, b in zip(m[r], top)]
        rank += 1
    return rank


def test_pivot_columns_have_full_rank():
    # the last row alone adds a pivot: no row may be left out
    assert _pivot_columns([(0, 1, 1), (0, 2, 2), (0, 0, 3)]) == [1, 2]
    assert _pivot_columns([(0, 0), (0, 0)]) == [] and _pivot_columns([]) == []
    rng = random.Random(26)
    for _ in range(500):
        dim = rng.randint(1, 6)
        zero = rng.sample(range(dim), rng.randint(0, dim - 1))  # columns no row uses
        rows = [
            tuple(0 if c in zero else rng.randint(-2, 2) for c in range(dim))
            for _ in range(rng.randint(0, 6))
        ]
        cols = _pivot_columns(rows)
        assert cols == sorted(set(cols)) and not set(cols) & set(zero), rows
        assert len(cols) == _rank(rows) == _rank([[r[c] for c in cols] for r in rows]), rows


def _planted_system(rng):
    """A random cone with planted implicit equalities, and those rows.

    The planted rows e_1, ..., e_m, e_0 lie in a space V that vanishes on
    at least one column, with e_0 = -(w_1 e_1 + ... + w_m e_m), every
    w_j >= 1: a positive combination of them is 0, so each is tight on the
    whole cone.  A few random rows and repeats join them.
    """
    dim = rng.randint(3, 5)
    zero = rng.sample(range(dim), rng.randint(1, dim - 2))
    basis = [
        [0 if c in zero else rng.randint(-2, 2) for c in range(dim)]
        for _ in range(rng.randint(2, dim - len(zero)))
    ]
    planted = [
        tuple(sum(rng.randint(-2, 2) * b[c] for b in basis) for c in range(dim))
        for _ in range(rng.randint(len(basis), len(basis) + 1))
    ]
    weights = [rng.randint(1, 3) for _ in planted]
    planted.append(tuple(-sum(w * e[c] for w, e in zip(weights, planted)) for c in range(dim)))
    rows = planted + [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, 2))]
    rows += rng.choices(rows, k=rng.randint(0, 1))
    rng.shuffle(rows)
    return rows, dim, planted, zero


def test_planted_equalities_match_farkas():
    """Implicit equalities decided on the pivot columns of their span agree
    with the Farkas reference, on cones whose planted equalities span at
    least 2 dimensions and have pivot columns other than the first k."""
    rng = random.Random(26)
    spanning = 0
    verdicts = Counter()
    for _ in range(120):
        rows, dim, planted, zero = _planted_system(rng)
        k = _rank(planted)
        spanning += k >= 2 and min(zero) < k  # pivots avoid a column below k
        cone = Cone(rows)
        for j in range(len(rows)):
            implied = is_implied(cone, j)
            assert implied == _in_cone(rows[j], _others(cone, j)), (rows, j)
            if cone._tight is not None and cone._tight[j] == cone._every:
                verdicts[implied] += 1
            if implied or rng.random() < 0.3:
                cone.drop(j)
    assert spanning == 88
    assert verdicts[True] > 60 and verdicts[False] > 200, verdicts


def _verdicts_and_rays(rows, dim, point):
    """Each row's verdict in a sequential reduction that drops every implied
    row, as reduce_system does, and the sorted extreme rays of all rows."""
    cone = Cone(rows, point)
    verdicts = []
    for k in range(len(rows)):
        verdicts.append(is_implied(cone, k))
        if verdicts[-1]:
            cone.drop(k)
    return verdicts, sorted(_rays(rows, dim, point)[0])


def test_reference_point_decides_only_the_cost(monkeypatch):
    """Verdicts and rays are the same at the direct-sum point, at the
    all-ones default (None) and at a random integer point."""
    rng, points = random.Random(11), random.Random(5)
    for _ in range(300):
        rows, dim = _random_rows(rng)
        random_point = [points.randint(-5, 5) for _ in range(dim)]
        assert _verdicts_and_rays(rows, dim, None) == _verdicts_and_rays(rows, dim, random_point), rows
    systems = []  # the rows of each cone reduce_system builds
    monkeypatch.setattr(weilgroup.reduce, "Cone", lambda rows, point: systems.append(rows) or Cone(rows))
    for s, t in [(s, n - s) for n in range(2, 7) for s in range(1, n)]:
        for scalar_b in (False, True):
            reduce_system(s, t, scalar_b=scalar_b)
            rows, dim = systems[-1], len(systems[-1][0])
            direct_sum = _direct_sum_point(s, t, scalar_b)
            assert all(sum(map(mul, row, direct_sum)) >= 0 for row in rows), (s, t, scalar_b)
            random_point = [points.randint(-9, 9) for _ in range(dim)]
            answers = [
                _verdicts_and_rays(rows, dim, point) for point in (direct_sum, None, random_point)
            ]
            assert answers[0] == answers[1] == answers[2], (s, t, scalar_b)


def test_reduction_digests_are_pinned(reduce_digest):
    """Every minimal system with s + t <= 6 in each mode, and every
    redundant full-mode member up to n = 6, hash to the digests that
    scripts/reduce_digest.py printed when the double description took rows
    lexicographically decreasing: insertion order decides no verdict.
    The text and --json outputs of ``weilgroup verify paper-lists`` are
    pinned byte for byte, so a refactor of the verification cannot move a
    line of the report unnoticed."""
    expected = {
        "smith": "815a162addfdcd717c268d26fa87e372d63152aa2f659cd1260b56e038806385",
        "smith+scalar_b": "ecad80b88ccbf2c233126b3a00a5766740c0fd3c85b55d56dad7fc1e34210e2e",
        "full": "da770638e80d10bb3a8ad17350969fa2996c65591425edd27be4e43cc0d87410",
        "redundant_members_full": "12a546547f1f8380e8df2baeb0024f38ba37b95c4b2d9b2dcc703e9e3860361a",
        "paper-lists": "3f849efc28aaa60c4f4d2b859bde5d7b6da9a00d51c078692cdbd078a7967906",
        "paper-lists --json": "25adc5bd90cb4f44d2a3e5df7c38b1fe3f6f99d4a6a64cbf5c2d834f331ee277",
    }
    assert {
        name: reduce_digest._digest(reduce_digest.FAMILIES[name]()) for name in expected
    } == expected


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
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
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
    assert sorted(result._pretty(iq) for iq in result.kept) == ["a1 >= c2", "b1 >= c2"]
    removed = {result._pretty(iq) for iq in result.removed_structural}
    removed |= {result._pretty(iq) for iq in result.removed_implied}
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


def _recorded_full_mode(monkeypatch, n):
    """The arguments of every LR coefficient one full-mode reduction computes."""
    calls = []

    def recorded(mu, nu, lam):
        calls.append((mu, nu, lam))
        return lr_coefficient(mu, nu, lam)

    monkeypatch.setattr(weilgroup.reduce, "count_lr_tableaux", recorded)
    redundant_members_full(n, table=HornTable())
    return calls


def _stripped(part):
    return tuple(x for x in part if x)


def _pieri(part):
    """One row or one column, zero parts stripped: Pieri's rule gives coefficient 1."""
    part = _stripped(part)
    return len(part) <= 1 or set(part) == {1}


def test_full_mode_one_coefficient_per_non_pieri_row(monkeypatch):
    """A full-mode reduction counts tableaux exactly once for each row whose
    mu and nu are both outside Pieri's rule, in row order and with zero
    parts stripped, and for no other row; a second call starts cold and
    repeats the same counts."""
    counts = {}
    for n in range(2, 7):
        rows = [[lambda_of(x) for x in tri] for p in range(1, n) for tri in enumerate_T(n, p)]
        expected = [
            tuple(map(_stripped, row)) for row in rows if not (_pieri(row[0]) or _pieri(row[1]))
        ]
        calls = _recorded_full_mode(monkeypatch, n)
        assert calls == expected, n
        assert _recorded_full_mode(monkeypatch, n) == calls, n
        counts[n] = (len(rows), len(calls))
    assert (counts[5], counts[6]) == ((142, 2), (522, 55)), counts


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


def test_input_contracts():
    for n in (-2, 0):
        with pytest.raises(ValueError, match="need n >= 1"):
            redundant_members_full(n)
    cone = Cone([(1, 0), (1, 0), (0, 1)])
    assert is_implied(cone, 0)
    cone.drop(0)
    with pytest.raises(ValueError, match="row 0 has been dropped"):
        is_implied(cone, 0)
    with pytest.raises(ValueError, match="length"):
        Cone([(1, 0), (0, 1)], (1, 1, 1))
    with pytest.raises(ValueError, match="length"):
        Cone([(1, 0), (0, 1, 1)], (1, 1))
    with pytest.raises(ValueError, match="length"):
        Cone([(1, 0, 0), (0, 1), (1, 1)])
    assert is_implied(Cone([(1, 1), (1, 0), (0, 1)], (2, 1)), 0)
    for i in (-1, 2, 5):
        with pytest.raises(ValueError, match=f"row {i} is outside 0..1"):
            is_implied(Cone([(1, 0), (0, 1)]), i)
        cone = Cone([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match=f"row {i} is outside 0..1"):
            cone.drop(i)
        assert cone.active == [True, True]


def test_dropping_a_free_row_restricts_the_equalities_again():
    # x + y >= 0, -x >= 0, y >= 0, -y >= 0: the cone is {0}, so all four
    # rows are implicit equalities, restricted to their pivot columns
    cone = Cone([(1, 1), (-1, 0), (0, 1), (0, -1)])
    assert not is_implied(cone, 0)
    cone.drop(0)  # not implied: the cone grows to y = 0, x <= 0
    # y >= 0 is still an implicit equality and -y >= 0 alone does not imply
    # it; a restriction kept from before the drop would add rows 0 and 1
    assert not is_implied(cone, 2)
    assert not is_implied(cone, 3)


def test_scalar_b_small():
    """At (4, 2) rows can hold b1, b2 or both; with scalar_b each prints its
    b terms as one b (32 of the 36 kept rows name b1 or b2 when printed per
    b), and the rows holding both print 2b."""
    result = reduce_system(4, 2, "smith", scalar_b=True)
    assert result.mode == "smith+scalar_b"
    rows = [result._pretty(iq) for iq in result.kept]
    assert len(rows) == 36
    assert not any("b1" in row or "b2" in row for row in rows)
    assert sum("2b" in row for row in rows) == 4


@pytest.mark.parametrize(
    "func, args, message",
    [
        (reduce_system, (2.0, 1), "s=2.0"),
        (reduce_system, (1, "2"), "t='2'"),
        (redundant_members_full, (3.0,), "n=3.0"),
        (lambda n, p: HornTable().T(n, p), (3.0, 1), "n=3.0"),
        (enumerate_T, (3, 1.0), "p=1.0"),
        (enumerate_T_st, (2.0, 1, 1), "s=2.0"),
        (enumerate_T_st, (2, 1, Fraction(1)), "p=Fraction(1, 1)"),
        (enumerate_U, (3.0, 1), "n=3.0"),
        (inequality_system, (2.0, 1), "s=2.0"),
        (inequality_system, (3, 1.0), "t=1.0"),
    ],
)
def test_sizes_are_integers(func, args, message):
    """A float, string or Fraction size raises ValueError naming it, not a
    TypeError from ``range``."""
    with pytest.raises(ValueError) as info:
        func(*args)
    assert str(info.value) == f"{message} is not an integer"
