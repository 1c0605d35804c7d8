"""No public function or class of ``sqdci`` is kept alive by the tests
alone: each top-level public name in ``src/sqdci`` is referenced, as a
name or an attribute, somewhere in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sqdci"

# Public names the package does not use yet, each with the ROADMAP item
# that keeps it.
ALLOWED = {
    "activespace.filter_contributions": "item 9",
    "activespace.select_inside_out": "item 9",
    "activespace.read_orbital_data": "item 9",
    "fcidump.write_fcidump_path": "items 9 and 11",
    "sampler.write_counts": "items 9 and 11",
}


def _uncalled():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return {f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used}


def test_every_public_name_has_a_caller_in_the_package():
    uncalled = _uncalled()
    assert uncalled - ALLOWED.keys() == set(), "only the tests call these"
    # An allowlisted name that gained a caller, or is gone, leaves the list.
    assert ALLOWED.keys() - uncalled == set(), "stale allowlist entries"
