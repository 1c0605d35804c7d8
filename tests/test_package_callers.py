"""No public function, class or constant of ``sqdci`` is kept alive by the
tests alone: each top-level public function or class in ``src/sqdci`` is
referenced, as a name or an attribute, somewhere in the package, and each
top-level UPPERCASE constant is read there.
"""

import ast
import re
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


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _used(trees):
    """Names the package reads: loaded names and attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _uncalled():
    trees = _trees()
    used = _used(trees)
    return {f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used}


def _constants(trees):
    """Top-level UPPERCASE names each module assigns, as ``module.NAME``."""
    return {f"{module}.{target.id}" for module, tree in trees.items()
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)
            and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)}


def test_every_public_name_has_a_caller_in_the_package():
    uncalled = _uncalled()
    assert uncalled - ALLOWED.keys() == set(), "only the tests call these"
    # An allowlisted name that gained a caller, or is gone, leaves the list.
    assert ALLOWED.keys() - uncalled == set(), "stale allowlist entries"


def test_every_public_constant_is_read_in_the_package():
    # A constant that nothing reads is a knob that turns nothing.
    trees = _trees()
    constants = _constants(trees)
    assert len(constants) >= 10  # the scan finds the module settings
    used = _used(trees)
    assert {name for name in constants
            if name.split(".")[1] not in used} == set()
