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
