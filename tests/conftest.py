import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

import weilgroup.classify
import weilgroup.smith

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def cold_classify_memos():
    """Start every test with cold classify memos, as a fresh process starts,
    so no test passes only because an earlier one warmed a memo."""
    weilgroup.classify._route_groups.cache_clear()
    weilgroup.smith._cokernels_cached.cache_clear()


@pytest.fixture(scope="session")
def reduce_digest():
    """``scripts/reduce_digest.py``, loaded by path: its digest families and
    its census of real Weil polynomials."""
    path = Path(__file__).parents[1] / "scripts" / "reduce_digest.py"
    spec = importlib.util.spec_from_file_location("reduce_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script
