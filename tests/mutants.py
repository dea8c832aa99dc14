"""Mutant catalogue: each mutant is one deliberate fault, and the tier-1
tests named below must catch it.

    python tests/mutants.py

Each mutant is an exact-text replacement in a temporary copy of `src/`. The
named tests run on the unchanged copy first, and must pass; then once per
mutant, with `PYTHONPATH` set to the mutated copy, and must fail. The
script exits 1 if a mutant survives, or if a replacement's text is not
found exactly once in its file, so the catalogue cannot go stale unseen;
else 0. Stdlib only; pytest does not collect this file.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_scene_graph.py", "tests/test_monitor.py", "tests/test_cli.py"]

# name -> (file under src/scenemon, exact text, its replacement)
MUTANTS = {
    "stale attrs on reuse": (
        "scene_graph.py",
        "old if not (attrs or old.attributes)",
        "old if old.attributes or not attrs",
    ),
    "ego test skipped on reuse": (
        "scene_graph.py",
        'if previous.om is not om or record["ego"] != previous.ego_id:',
        "if previous.om is not om:",
    ),
    "edge set not compared on reuse": (
        "scene_graph.py",
        "if frozenset(map(_EDGE_FIELDS, raw_edges)) != previous.edges:",
        "if frozenset(map(_EDGE_FIELDS, raw_edges)) is None:",
    ),
    "class not compared on reuse": (
        "scene_graph.py",
        'item.get("id") != oid or item.get("class") != old.cls:',
        'item.get("id") != oid:',
    ),
    "value error raised on reuse, not left to the builder": (
        "scene_graph.py",
        "    except SceneValidationError:  # a later entry may be malformed, which comes first\n"
        "        return None",
        "    except SceneValidationError:  # a later entry may be malformed, which comes first\n"
        "        raise",
    ),
    "error search without its reachability test": (
        "monitor.py",
        "        else:\n            return False\n        try:",
        "        else:\n            pass\n        try:",
    ),
    "error search walks on past an unbound predicate": (
        "monitor.py",
        "                if not ids <= mapping.keys():\n                    break",
        "                if not ids <= mapping.keys():\n                    continue",
    ),
    "error search prunes on a predicate that raises": (
        "monitor.py",
        "        except MissingAttributeError:\n            pass\n        return True",
        "        except MissingAttributeError:\n            return False\n        return True",
    ),
    "error search without its settle walk": (
        "monitor.py",
        "            for ids, pred in in_order:\n                if not ids",
        "            for ids, pred in ():\n                if not ids",
    ),
}


def _run_tests(src: Path) -> int:
    """The named tests' exit code, with `src` as the package's source."""
    # no bytecode cache: a mutant must not run from the last run's .pyc
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        code = _run_tests(src)
        print(f"unmutated: exit {code}")
        if code != 0:
            return 1
        for name, (file, old, new) in MUTANTS.items():
            path = src / "scenemon" / file
            original = path.read_text(encoding="utf-8")
            found = original.count(old)
            if found != 1:
                print(f"{name}: its text is found {found} times in {file}, not once")
                failures.append(name)
                continue
            path.write_text(original.replace(old, new), encoding="utf-8")
            try:
                code = _run_tests(src)
            finally:
                path.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test fails; any other code is no verdict
            outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"exit {code}")
            print(f"{name}: {outcome}")
            if code != 1:
                failures.append(name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
