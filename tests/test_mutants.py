import importlib.util
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _mutants_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_every_mutant_snippet_occurs_once():
    """The standing mutant suite still applies to the source: each snippet
    occurs exactly once and each killing test exists.  Running the mutants
    themselves takes minutes: ``python scripts/mutants.py``."""
    script = _mutants_script()
    entries = script.load()
    assert len(entries) >= 7
    assert script.problems(entries) == []


def test_mutant_entry_problems_are_reported(tmp_path):
    script = _mutants_script()
    (tmp_path / "mod.py").write_text("x = 1\nx = 1\n")
    (tmp_path / "test_mod.py").write_text("def test_x():\n    pass\n")
    entry = {
        "name": "m", "file": "mod.py", "snippet": "x = 1", "replacement": "x = 2",
        "tests": ["test_mod.py::test_x", "test_mod.py::test_gone"], "why": "",
    }
    assert script.problems([entry, dict(entry, snippet="y")], tmp_path) == [
        "m: name used twice",
        "m: snippet occurs 2 times in mod.py",
        "m: no test test_mod.py::test_gone",
        "m: snippet occurs 0 times in mod.py",
        "m: no test test_mod.py::test_gone",
    ]
