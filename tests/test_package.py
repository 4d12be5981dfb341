"""Package hygiene read from the source with ast: exports and declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "amplify_acct"
MODULES = ("accountant", "cli", "oracles", "rdp_math", "training_sim")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defined(tree: ast.Module) -> set:
    """Names a module binds at its top level by def, class or assignment (not by import)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _exports(tree: ast.Module):
    """The literal ``__all__`` of a module, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return None


def _taken_names(path: Path) -> set:
    """(module, name) for each name a file takes from a package module.

    Counts ``from amplify_acct.<module> import name`` (relative inside the
    package, at any depth in the file) and ``alias.name`` on a module alias
    bound by ``from amplify_acct import <module>`` or ``import
    amplify_acct.<module> as alias``.
    """
    tree = _parse(path)
    taken, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["amplify_acct", base]))
            if base == "amplify_acct":
                aliases.update({a.asname or a.name: a.name for a in node.names if a.name in MODULES})
            elif base.startswith("amplify_acct."):
                taken.update((base.split(".")[1], a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.startswith("amplify_acct."):
                    aliases[a.asname] = a.name.split(".")[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            taken.add((aliases[node.value.id], node.attr))
    return taken


@pytest.mark.parametrize("module", MODULES)
def test_every_name_taken_from_its_defining_module_is_exported(module):
    # Names a module only re-exports (such as the imports held for
    # perfbench's binding test) are defined elsewhere and not checked here.
    path = PACKAGE / f"{module}.py"
    tree = _parse(path)
    exports, defined = _exports(tree), _defined(tree)
    if exports is None:  # without __all__ every public name is exported
        return
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    missing = sorted(
        {
            (name, other.relative_to(ROOT).as_posix())
            for other in files
            if other != path
            for mod, name in _taken_names(other)
            if mod == module and name in defined and not name.startswith("_") and name not in exports
        }
    )
    assert missing == []


def _third_party(paths, local=()) -> set:
    """Top-level names of the non-stdlib modules the files import, at any depth."""
    names = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"amplify_acct", *local}


def _requirements():
    """(runtime, test extra) distribution names from pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(reqs):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in reqs}

    return names(project["dependencies"]), names(project["optional-dependencies"]["test"])


def test_package_imports_are_the_runtime_dependencies():
    runtime, _ = _requirements()
    assert _third_party(PACKAGE.glob("*.py")) == runtime


def test_test_imports_are_declared():
    runtime, test = _requirements()
    files = list((ROOT / "tests").rglob("*.py"))
    assert _third_party(files, local={p.stem for p in files}) <= runtime | test
