"""Start-up contracts, each checked in a fresh interpreter: another test in
the same session may already have imported a module that a fresh process
loads only on demand."""

import os
import subprocess
import sys

import pytest

from weilgroup.cli import main

# each child finishes in under 1.5 s: a wrong rule must fail the test, not hang it
CHILD_TIMEOUT_S = 60


def _fresh(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


# what a classify request executes, and all that ``import weilgroup`` loads
EAGER = [
    "weilgroup",
    "weilgroup.classify",
    "weilgroup.horn",
    "weilgroup.partitions",
    "weilgroup.polygon",
    "weilgroup.smith",
    "weilgroup.weil",
]
# the question, and all that ``import weilgroup`` exports
FRONT_DOOR = ["Classification", "WeilError", "WeilPolynomial", "classify_all", "parse_and_validate"]
# names the package once re-exported, each still importable from its module
DROPPED = {
    "HornTriple": "horn",
    "complement_triple": "horn",
    "enumerate_T": "horn",
    "enumerate_T_st": "horn",
    "enumerate_U": "horn",
    "eval_inequality": "horn",
    "lambda_of": "horn",
    "LatticePolygon": "polygon",
    "hodge_polygon": "polygon",
    "newton_polygon": "polygon",
    "np_dominates_hp": "polygon",
    "transform_one_minus_t": "polygon",
    "enumerate_cokernels": "smith",
    "feasible_triple": "smith",
    "inequality_system": "smith",
    "FactoredShape": "weil",
    "factor_weil": "weil",
    "group_order": "weil",
    "root_valuations": "weil",
    "shape_of": "weil",
    "reduce_system": "reduce",
    "lr_coefficient": "oracle",
    "matrix_cokernel_oracle": "oracle",
    "operator_group_oracle": "oracle",
    "smith_invariants": "oracle",
    "verify_paper_lists": "verify",
}
# one (q, coefficients) input per route kind of classify_all
ROUTES = {
    "separable": (2, [1, -1, 2]),
    "p_square": (2, [1, -2, 5, -4, 4]),
    "p2q": (2, [1, 0, 3, 2, 6, 0, 8]),
    "p_realsq": (9, [1, -6, 18, -54, 162, -486, 729]),
    "q2_realsq": (9, [1, 12, 72, 270, 648, 972, 729]),
    "scalar": (9, [1, 18, 135, 540, 1215, 1458, 729]),
    "cyclic_index": (9, [1, -6, -9, 108, -81, -486, 729]),
}
LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'weilgroup')"


def test_import_contract():
    """``import weilgroup`` loads exactly what a classify request executes, so
    no import moves into a first request, and nothing else: not the
    reductions, the LP, the oracles or the paper verification, nor
    ``dataclasses``, ``fractions`` or ``random``.  It exports the question
    and nothing more, with no module ``__getattr__`` or ``__dir__``."""
    script = (
        "import sys, weilgroup\n"
        f"print({LOADED})\n"
        "print(sorted({'dataclasses', 'fractions', 'random'} & set(sys.modules)))\n"
        "print(sorted(weilgroup.__all__))\n"
        "ns = {}\n"
        "exec('from weilgroup import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}))\n"
        "print(sorted({'__getattr__', '__dir__'} & set(vars(weilgroup))))\n"
        "try:\n"
        "    weilgroup.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    # -S: no site start-up, whose .pth hooks can load modules (random among
    # them) before any package code runs; PYTHONPATH still finds everything
    out = _fresh("-S", "-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        str(EAGER),
        "[]",
        str(FRONT_DOOR),
        str(FRONT_DOOR),
        "[]",
        "module 'weilgroup' has no attribute 'no_such_name'",
    ]


def test_dropped_names_resolve_in_their_modules():
    """Every name the package no longer exports is importable from its own
    module, and is not an attribute of the package."""
    script = (
        "import importlib, weilgroup\n"
        f"dropped = {DROPPED!r}\n"
        "print(sorted(n for n, m in dropped.items()"
        " if not hasattr(importlib.import_module('weilgroup.' + m), n)))\n"
        "print(sorted(n for n in dropped if hasattr(weilgroup, n)))\n"
    )
    out = _fresh("-S", "-c", script)
    assert out.returncode == 0, out.stderr
    assert len(DROPPED) == 26
    assert out.stdout.splitlines() == ["[]", "[]"]


# the dropped names whose modules lie outside the eager set
LAZY = {name: module for name, module in DROPPED.items() if f"weilgroup.{module}" not in EAGER}


@pytest.mark.parametrize(
    "access",
    ["import weilgroup.{module} as mod\nvalue = mod.{name}",
     "from weilgroup.{module} import {name} as value"],
    ids=["attribute", "from_import"],
)
@pytest.mark.parametrize("name", sorted(LAZY))
def test_lazy_name_loads_its_module(name, access):
    """Each name outside the eager set loads its module only on first use,
    as an attribute of that module and through ``from ... import``, is then
    that module's global, and never becomes a package attribute."""
    module = f"weilgroup.{LAZY[name]}"
    script = (
        "import sys, weilgroup\n"
        f"print({module!r} in sys.modules)\n"
        f"{access.format(module=LAZY[name], name=name)}\n"
        f"print({module!r} in sys.modules, value is sys.modules[{module!r}].{name},"
        f" {name!r} in vars(weilgroup))\n"
    )
    out = _fresh("-S", "-c", script)
    assert len(LAZY) == 6
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False", "True True False"]


def test_classify_routes_load_only_the_eager_set():
    """``classify_all`` on one input of every route kind loads no module
    beyond the ones ``import weilgroup`` loads eagerly."""
    script = (
        "import sys\n"
        "from weilgroup import classify_all, parse_and_validate\n"
        f"routes = {ROUTES!r}\n"
        "print([classify_all(parse_and_validate(c, q)).plan.kind for q, c in routes.values()])\n"
        f"print({LOADED})\n"
    )
    out = _fresh("-S", "-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [str(list(ROUTES)), str(EAGER)]


def test_cli_classify_leaves_reductions_and_oracles_unloaded():
    """``weilgroup classify`` loads the CLI and the classify path only: the
    other subcommands import their layers when they run."""
    script = (
        "import sys\n"
        "from weilgroup.cli import main\n"
        "main(['classify', '--q', '2', '--poly', '1,0,2'])\n"
        f"print({LOADED})\n"
    )
    out = _fresh("-S", "-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str(sorted([*EAGER, "weilgroup.cli"]))


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
