"""Layout guards: the package holds no code that only the tests use, and one module forks on setting B.

Every public function, class and method defined in ``src/mtkrr`` must be
referenced somewhere else in the package or exported by ``mtkrr/__init__.py``.
Validation-only code (reference evaluators, brute-force searches, single-
replicate generators) belongs in ``tests/``.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import mtkrr

PACKAGE = Path(mtkrr.__file__).parent


def _definitions(tree: ast.Module, module):
    """(qualified name, bare name) of every public function, class and method of ``module``.

    A function bound by a top-level assignment (``gen = make(...)``) counts too.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name
        elif isinstance(node, ast.Assign):
            names = [name.id for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            for name in names:
                if not name.startswith("_") and inspect.isfunction(getattr(module, name, None)):
                    yield name, name


def _references(tree: ast.Module) -> Counter:
    """Every use of a name in the module: bare names, attributes and imported names."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_definition_is_used_by_the_package_or_exported():
    modules = {path: importlib.import_module("mtkrr" if path.stem == "__init__" else f"mtkrr.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))}
    trees = {path: ast.parse(path.read_text()) for path in modules}
    used = sum((_references(tree) for tree in trees.values()), Counter())  # the exports are __init__'s imports
    unused = [f"{path.stem}.{name}" for path, tree in trees.items()
              for name, bare in _definitions(tree, modules[path]) if not used[bare]]
    assert not unused, f"defined in src/mtkrr but used only outside it (move to tests/): {unused}"


def test_only_scenarios_names_the_spline_setting():
    """Setting B differs from the synthetic kinds only inside ``scenarios.draw``; no other module forks on it."""
    forks = [path.name for path in sorted(PACKAGE.glob("*.py")) if path.name != "scenarios.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "SETTING_B"]
    assert not forks, f"modules other than scenarios.py name ScenarioKind.SETTING_B: {forks}"
