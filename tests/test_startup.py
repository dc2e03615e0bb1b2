"""Start-up contracts, each checked in a fresh interpreter: another test in
the same session may already have imported a module that a fresh process
loads only on demand."""

import os
import subprocess
import sys

import pytest

from weilgroup.cli import main


def _fresh(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


def test_import_contract():
    """``import weilgroup`` loads the request path eagerly, so no import moves
    into a first request, and leaves ``dataclasses`` and the paper
    verification unloaded until they are used."""
    script = (
        "import sys, weilgroup\n"
        "mods = ('classify', 'weil', 'smith', 'reduce')\n"
        "print(all('weilgroup.' + m in sys.modules for m in mods))\n"
        "print(sorted({'dataclasses', 'weilgroup.verify'} & set(sys.modules)))\n"
        "print(callable(weilgroup.verify_paper_lists), 'weilgroup.verify' in sys.modules)\n"
        "ns = {}\n"
        "exec('from weilgroup import *', ns)\n"
        "print(sorted(set(weilgroup.__all__) - set(ns)))\n"
        "try:\n"
        "    weilgroup.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    out = _fresh("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "True",
        "[]",
        "True True",
        "[]",
        "module 'weilgroup' has no attribute 'no_such_name'",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--q", "2", "--poly", "1,0,2"),
        ("verify", "paper-lists"),
        ("--json", "verify", "paper-lists"),
    ],
)
def test_console_entry_point_matches_in_process(argv, capsys):
    """``python -m weilgroup`` exits 0 in a fresh process and prints what
    ``cli.main`` prints in this one."""
    out = _fresh("-m", "weilgroup", *argv)
    assert out.returncode == 0, out.stderr
    assert main(list(argv)) == 0
    assert out.stdout == capsys.readouterr().out
