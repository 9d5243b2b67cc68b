"""The package imports its own modules at module level only, without cycles."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import windex

SRC = Path(windex.__file__).resolve().parent


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


def _local_imports(tree):
    """Modules named by the module-level `from .x import` and `from . import
    x` statements of a module."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def _cycle(edges):
    """A list of modules forming an import cycle, or None."""
    state = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(edges.get(name, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                found = visit(dep, path + [dep])
                if found:
                    return found
        state[name] = "done"
        return None

    for name in sorted(edges):
        if name not in state:
            found = visit(name, [name])
            if found:
                return found
    return None


def test_imports_are_module_level_and_acyclic():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "fibrations" in trees and "enumeration" in trees
    inside = [f"{name}.py:{node.lineno}"
              for name, tree in trees.items()
              for fn in _functions(tree)
              for node in ast.walk(fn)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == [], f"imports inside functions: {inside}"
    edges = {name: _local_imports(tree) for name, tree in trees.items()}
    assert _cycle(edges) is None, f"import cycle: {' -> '.join(_cycle(edges))}"


def test_closure_engine_imports_no_package_module():
    # groups, fibrations and sieves import the closure engine from poset, so
    # it must stay a leaf for their imports to stay acyclic
    tree = ast.parse((SRC / "poset.py").read_text())
    assert _local_imports(tree) == set()
    absolute = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    absolute += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not [name for name in absolute if name.split(".")[0] == "windex"]


def test_cycle_finder_sees_cycles():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_the_only_memo_is_the_presentation_of_a_spec():
    """What is derived from a presentation lives on the presentation: the
    one `functools` memo in the package maps spec text to a presentation."""
    memos = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        decorated = {id(node): f"{path.stem}.{fn.name}"
                     for fn in _functions(tree) if not isinstance(fn, ast.Lambda)
                     for dec in fn.decorator_list for node in ast.walk(dec)}
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in ("lru_cache", "cache"):
                memos.append(decorated.get(id(node), f"{path.name}:{node.lineno}"))
    assert memos == ["serialize._presentation"]


def test_importing_the_package_loads_no_heavy_standard_module():
    """Every CLI command is a process that imports the whole package, so
    `import windex` loads none of `dataclasses`, `inspect` or `typing`
    beyond what a bare interpreter has already loaded."""
    code = ("import sys; bare = set(sys.modules); import windex; "
            "print(*sorted(set(sys.modules) - bare))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "windex.systems" in loaded
    assert not {"dataclasses", "inspect", "typing"} & set(loaded)
