from __future__ import annotations

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hfib"

# __init__ imports to re-export, so every module but it must use what it imports
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by a top-level import and never read in the module."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_module_is_checked() -> None:
    assert {path.stem for path in MODULES} >= {"algebra", "cli", "genfun", "operators"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_top_level_import(path: Path) -> None:
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found() -> None:
    tree = ast.parse("from __future__ import annotations\nimport os\nfrom functools import lru_cache\nos.sep\n")
    assert _unused_imports(tree) == ["lru_cache (line 3)"]


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under node: loaded, taken as an attribute or imported."""
    reads = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            reads[child.id] += 1
        elif isinstance(child, ast.Attribute):
            reads[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            reads.update(alias.name for alias in child.names)
    return reads


def _private_definitions(tree: ast.Module):
    """Each top-level function, class or constant whose name starts with one underscore, with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private top-level names of the modules that no module reads, outside their own definition."""
    reads = sum(map(_reads, trees.values()), Counter())
    return [
        f"{module}.{name} (line {node.lineno})"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if reads[name] <= _reads(node)[name]
    ]


def test_no_unread_private_top_level_name() -> None:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unread_private_names(trees) == []


def test_an_unread_private_name_is_found() -> None:
    source = (
        "_USED = 1\n_UNUSED = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n"
        "def _helper():\n    pass\n"
        "class _Kept:\n    pass\n"
        "__all__ = []\n"
    )
    other = "from m import _helper\nx = y._Kept\n"
    trees = {"m": ast.parse(source), "n": ast.parse(other)}
    assert _unread_private_names(trees) == ["m._UNUSED (line 2)", "m._recursive (line 3)"]


def test_cli_import_loads_no_dataclasses_or_inspect() -> None:
    # each hfib command and perfbench op is a fresh interpreter, so start-up is paid per check;
    # compare with the modules loaded before the import, so that what `site` loads does not count.
    # Kronecker images are plain integer arithmetic, so no `array` either
    probe = (
        "import json, sys; before = set(sys.modules); import hfib.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(json.loads(out.stdout))
    assert "hfib.cli" in added
    assert not added & {"array", "dataclasses", "inspect"}


def test_readme_library_example_returns_what_its_comments_state() -> None:
    # the README's "Library use" block runs as written, and its commented values are what it returns
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    exact = values["f9.eval_point(Fraction(1, 10), Fraction(1, 2))"]
    assert type(exact).__name__ == "Fraction"
    assert values["op_value(fib_op(9), Fraction(1, 10), Fraction(1, 2))"] == exact
    comments = dict(line.split("#", 1) for line in block.splitlines() if "#" in line)
    comments = {code.strip(): comment for code, comment in comments.items()}
    for code, stated in (
        ("f9.classical_limit()", "34"),
        ("fib_op(5)", "1 + 3*D + D^2"),
        ("op_eval(fib_op(5))", "1 + 3*h*hp + h^2*hp + h^2*hp^2"),
        ("neg_fib_op(4)", "-1 - 2*D"),
    ):
        assert stated in comments[code] and str(values[code]) == stated, code
