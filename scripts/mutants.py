"""The standing mutant suite: every mutant in tests/data/mutants.json must be killed.

Each entry names a source file, an exact snippet of it, a replacement and
the pytest node ids that must fail once the snippet is replaced.  For each
entry the script copies ``src/`` to a temporary directory, makes the one
replacement there, runs only the entry's tests against the copy and
reports the mutant as

* killed: every named test failed;
* survived: some named test passed (they are listed);
* broken: pytest could not run the tests (a node id that no longer exists,
  say) or they ran past TIMEOUT_S.

The checkout itself is never edited.

    python scripts/mutants.py

It exits non-zero when a snippet does not occur exactly once, or when any
mutant survives or is broken.  It needs only Python and pytest.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tests" / "data" / "mutants.json"
FIELDS = ("name", "file", "snippet", "replacement", "tests", "why")
TIMEOUT_S = 300  # per mutant; a mutant can turn a test into a very long run


def load(path: Path = MUTANTS) -> list[dict]:
    return json.loads(path.read_text())


def problems(entries: list[dict], root: Path = ROOT) -> list[str]:
    """What is wrong with the entries, without running any mutant.

    Every entry has exactly the fields of FIELDS and a unique name, its
    snippet occurs exactly once in its file and differs from the
    replacement, and each test it names is a function defined in an
    existing test file.
    """
    found = []
    names = [e.get("name") for e in entries]
    found += [f"{n}: name used twice" for n in sorted({n for n in names if names.count(n) > 1})]
    for e in entries:
        name = e.get("name")
        if sorted(e) != sorted(FIELDS):
            found.append(f"{name}: fields {sorted(e)} are not {sorted(FIELDS)}")
            continue
        source = root / e["file"]
        if not source.is_file():
            found.append(f"{name}: no file {e['file']}")
            continue
        count = source.read_text().count(e["snippet"])
        if count != 1:
            found.append(f"{name}: snippet occurs {count} times in {e['file']}")
        if e["snippet"] == e["replacement"]:
            found.append(f"{name}: the replacement equals the snippet")
        if not e["tests"]:
            found.append(f"{name}: names no test")
        for node in e["tests"]:
            path, _, func = node.partition("::")
            func = func.split("[")[0]
            test_file = root / path
            if not test_file.is_file() or f"def {func}(" not in test_file.read_text():
                found.append(f"{name}: no test {node}")
    return found


def run(entry: dict) -> tuple[str, list[str]]:
    """The outcome of one mutant, run in a copy of src/, and the named tests that passed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / entry["file"]
        target.write_text(target.read_text().replace(entry["snippet"], entry["replacement"], 1))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # pytest's own pythonpath setting points at the checkout's src/: override it
        command = [
            sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *entry["tests"],
        ]
        # a session of its own, so a timeout also ends the processes a test starts
        with subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        ) as proc:
            try:
                out = proc.communicate(timeout=TIMEOUT_S)[0]
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return "broken", []
    if proc.returncode not in (0, 1):
        return "broken", []
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAILED ")]
    passed = [
        node for node in entry["tests"]
        if not any(f == node or f.startswith(node + "[") for f in failed)
    ]
    return ("survived" if passed else "killed"), passed


def main() -> int:
    entries = load()
    found = problems(entries)
    for line in found:
        print(f"bad entry: {line}")
    if found:
        return 1
    outcomes = {}
    for entry in entries:
        outcomes[entry["name"]], passed = run(entry)
        note = f"  (passed: {', '.join(passed)})" if passed else ""
        print(f"{outcomes[entry['name']]:8}  {entry['name']}{note}", flush=True)
    bad = [name for name, outcome in outcomes.items() if outcome != "killed"]
    print(f"{len(outcomes) - len(bad)} of {len(outcomes)} mutants killed" + (f"; not killed: {bad}" if bad else ""))
    return int(bool(bad))


if __name__ == "__main__":
    sys.exit(main())
