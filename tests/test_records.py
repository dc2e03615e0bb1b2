"""The result records are immutable, hashable where their fields are,
picklable, print as ``Name(field=value, ...)`` with their fields in
declaration order, and equal the plain tuple of their values."""

import pickle

import pytest

from weilgroup.classify import Classification, classify_all
from weilgroup.horn import HornTriple
from weilgroup.polygon import newton_polygon
from weilgroup.reduce import reduce_system
from weilgroup.smith import SmithInequality, inequality_system
from weilgroup.weil import DispatchPlan, factor_weil, parse_and_validate, shape_of

_WEIL = parse_and_validate([1, 0, 3, 2, 6, 0, 8], 2)

RECORDS = {  # name -> (record, its fields in order)
    "Classification": (classify_all(_WEIL), ("weil", "shape", "plan", "groups", "notices")),
    "WeilPolynomial": (_WEIL, ("coeffs", "q", "p", "r")),
    "FactoredShape": (factor_weil(_WEIL), ("weil", "factors")),
    "DispatchPlan": (
        shape_of(factor_weil(_WEIL)),
        ("kind", "factors", "real_eigenvalue", "sign", "r", "s"),
    ),
    "HornTriple": (HornTriple((1, 3), (2, 3), (3, 4)), ("I", "J", "K")),
    "LatticePolygon": (newton_polygon([1, 0, 3, 2, 6, 0, 8], 2), ("vertices",)),
    "SmithInequality": (
        inequality_system(2, 1).inequalities[0],
        ("a_idx", "b_idx", "c_idx", "triple"),
    ),
    "SmithSystem": (inequality_system(2, 1), ("s", "t", "inequalities")),
    "ReducedSystem": (
        reduce_system(1, 2),
        ("s", "t", "mode", "kept", "removed_structural", "removed_implied"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    rec, fields = RECORDS[name]
    assert type(rec).__name__ == name
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], getattr(rec, fields[0]))
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec
    if name == "Classification":  # its groups are a dict
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(back) == hash(rec)
    body = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields)
    assert repr(rec) == f"{name}({body})"
    assert isinstance(rec, tuple) and rec == tuple(getattr(rec, f) for f in fields)


def test_record_defaults():
    assert DispatchPlan("scalar") == DispatchPlan("scalar", (), 0, None, 0, 0)
    assert SmithInequality((1,), (), (1,)).triple is None
    shape = factor_weil(_WEIL)
    assert Classification(_WEIL, shape, shape_of(shape), {}).notices == ()
