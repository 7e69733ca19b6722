from __future__ import annotations

import ast
import json
import subprocess
import sys
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


def test_cli_import_loads_no_dataclasses_or_inspect() -> None:
    # each hfib command and perfbench op is a fresh interpreter, so start-up is paid per check;
    # compare with the modules loaded before the import, so that what `site` loads does not count
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
    assert not added & {"dataclasses", "inspect"}
