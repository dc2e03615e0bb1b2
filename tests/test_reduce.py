import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

import weilgroup.linprog
import weilgroup.reduce
from weilgroup.horn import HornTable
from weilgroup.linprog import Cone, is_implied
from weilgroup.reduce import (
    _base_rows,
    _functional,
    _scalar_base,
    _scalarize_b,
    reduce_system,
    redundant_members_full,
)

EXPECTED_REDUCE = Path(__file__).parents[1] / "perfbench" / "expected_reduce.json"


def test_is_implied_basics():
    # x1 >= 0 and x2 >= 0 imply x1 + x2 >= 0
    assert is_implied(Cone([(1, 1), (1, 0), (0, 1)]), 0)
    # ... but not x1 - x2 >= 0
    assert not is_implied(Cone([(1, -1), (1, 0), (0, 1)]), 0)


def test_is_implied_needs_combination():
    # x1 >= x2 and x2 >= x3 imply x1 >= x3
    rows = [(1, -1, 0), (0, 1, -1)]
    assert is_implied(Cone([(1, 0, -1), *rows]), 0)
    assert not is_implied(Cone([(0, 0, 1), *rows]), 0)


def _no_fallback(phi, rows):
    raise AssertionError("Fraction simplex fallback used")


def test_refutation_point_is_integer(monkeypatch):
    phi, rows = (1, -1), [(1, 0), (0, 1)]
    points = []
    refutes = weilgroup.linprog._refutes

    def recording_refutes(phi, rows, x):
        points.append(x)
        return refutes(phi, rows, x)

    monkeypatch.setattr(weilgroup.linprog, "_refutes", recording_refutes)
    monkeypatch.setattr(weilgroup.linprog, "_farkas_implied", _no_fallback)
    assert not is_implied(Cone([phi, *rows]), 0)
    (point,) = points
    assert all(type(v) is int for v in point)
    assert sum(a * v for a, v in zip(phi, point)) < 0
    assert all(sum(a * v for a, v in zip(r, point)) >= 0 for r in rows)
    assert is_implied(Cone([(1, 1), *rows]), 0)


def test_certificate_checks_are_exact():
    refutes = weilgroup.linprog._refutes
    combination = weilgroup.linprog._nonnegative_combination
    rows = [(1, 0), (0, 1)]
    assert refutes((1, -1), rows, [0, 1])
    assert not refutes((1, -1), rows, [-1, 0])  # violates x1 >= 0
    assert not refutes((1, -1), rows, [1, 1])  # does not violate phi
    assert combination((2, 3), rows + [(1, 1)])  # free column set to 0
    assert not combination((1, 0), [(1, 1), (0, 1)])  # only mu = (1, -1)
    assert not combination((1, 0), [(0, 1)])  # phi outside the span
    assert combination((0, 0), [])


def _verdict_cases():
    return [
        is_implied(Cone([(1, 1), (1, 0), (0, 1)]), 0),
        is_implied(Cone([(1, -1), (1, 0), (0, 1)]), 0),
        is_implied(Cone([(1, 0, -1), (1, -1, 0), (0, 1, -1)]), 0),
        is_implied(Cone([(0, 0, 1), (1, -1, 0), (0, 1, -1)]), 0),
    ]


def _reduction_lines(s, t):
    return reduce_system(s, t, "smith", table=HornTable()).pretty_lines()


def test_forced_fallback_gives_same_verdicts(monkeypatch):
    verdicts = _verdict_cases()
    lines = {st: _reduction_lines(*st) for st in ((2, 1), (1, 2))}
    fallbacks = []
    farkas = weilgroup.linprog._farkas_implied

    def counted(phi, rows):
        fallbacks.append(phi)
        return farkas(phi, rows)

    failed = SimpleNamespace(success=False, status=4, x=None, fun=None)
    monkeypatch.setattr(weilgroup.linprog, "linprog", lambda *args, **kwargs: failed)
    monkeypatch.setattr(weilgroup.linprog, "_farkas_implied", counted)
    assert _verdict_cases() == verdicts == [True, False, True, False]
    assert len(fallbacks) == 4
    for st, expected in lines.items():
        assert _reduction_lines(*st) == expected
    assert len(fallbacks) > 4


def test_derivation_set_needs_no_fallback(monkeypatch):
    monkeypatch.setattr(weilgroup.linprog, "_farkas_implied", _no_fallback)
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
        assert verdict == shared(Cone([cone.rows[k], *cone.others(k)]), 0)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(weilgroup.reduce, "is_implied", checked)
    run()
    return verdicts


def test_shared_cone_agrees_with_fresh_cones(monkeypatch):
    for scalar_b in (False, True):
        verdicts = _replay_against_fresh(
            monkeypatch, lambda: reduce_system(2, 2, scalar_b=scalar_b, table=HornTable())
        )
        assert True in verdicts and False in verdicts
    verdicts = _replay_against_fresh(
        monkeypatch, lambda: redundant_members_full(4, table=HornTable())
    )
    assert verdicts and not any(verdicts)


def test_freed_row_is_restored_and_dropped_row_is_freed(monkeypatch):
    # the fallback would hide a wrong model behind a right verdict
    monkeypatch.setattr(weilgroup.linprog, "_farkas_implied", _no_fallback)
    cone = Cone([(1, -1), (1, 0), (0, 1)])  # x1 >= x2, x1 >= 0, x2 >= 0
    assert not is_implied(cone, 0)
    # x1 >= 0 follows from x1 >= x2 >= 0 only if row 0 constrains again
    assert is_implied(cone, 1)
    cone.drop(0)
    assert not is_implied(cone, 1)


def test_reduce_path_avoids_scipy_linprog(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    expected = json.loads(EXPECTED_REDUCE.read_text())
    result = reduce_system(2, 2, table=HornTable())
    counts = [len(result.kept), len(result.removed_structural), len(result.removed_implied)]
    assert counts == expected["reduce_system"]["2x2.smith"]
    assert redundant_members_full(4, table=HornTable()) == ()


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
    with pytest.raises(ValueError):
        reduce_system(2, 2, "bogus")
    with pytest.raises(ValueError):
        reduce_system(2, 2, "full", scalar_b=True)


def test_scalar_b_small():
    result = reduce_system(2, 1, "smith", scalar_b=True)
    assert result.mode == "smith+scalar_b"
    assert all("b2" not in iq.pretty_scalar_b() for iq in result.kept)
