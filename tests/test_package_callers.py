"""No function, class or constant of ``sqdci`` is kept alive by the tests
alone: each top-level function or class in ``src/sqdci``, private ones
included, is referenced, as a name or an attribute, somewhere in the
package, and each top-level UPPERCASE or _UPPERCASE constant is read there.
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
            and node.name not in used}


def _constants(trees):
    """Top-level UPPERCASE or _UPPERCASE names each module assigns, as
    ``module.NAME``."""
    return {f"{module}.{target.id}" for module, tree in trees.items()
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)
            and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)}


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


def _private_definitions(trees):
    """Top-level functions and classes whose names start with ``_``, as
    ``module.name``."""
    return {f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")}


def _borrowed(trees):
    """``module.name`` for each name a module takes from another package
    module: by ``from .module import name`` or as ``module.name`` after
    ``from . import module``."""
    names = set()
    for module, tree in trees.items():
        siblings = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is None for alias in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is not None and node.module != module):
                names |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings):
                names.add(f"{node.value.id}.{node.attr}")
    return names


def test_no_module_uses_another_modules_private_function_or_class():
    # A private helper another module needs is that module's API: give it
    # a public name, or move the caller's use into its module.
    trees = _trees()
    private = _private_definitions(trees)
    assert len(private) >= 5  # the scan finds the private helpers
    assert _borrowed(trees) & private == set()
