import importlib.util
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings

import weilgroup.classify
import weilgroup.smith

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")

# the slowest test takes about 2 s: a wrong rule must fail a test, not hang
# tier-1 (the same bound as CHILD_TIMEOUT_S for the child processes of
# test_startup.py; faulthandler_timeout only dumps the stacks)
TEST_DEADLINE_S = 60


class DeadlineExceeded(Exception):
    """A test's setup or call ran past TEST_DEADLINE_S."""


@contextmanager
def _deadline(what):
    def expire(signum, frame):
        raise DeadlineExceeded(f"{what} ran past the {TEST_DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _deadline(f"setup of {item.nodeid}"):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _deadline(item.nodeid):
        return (yield)


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
