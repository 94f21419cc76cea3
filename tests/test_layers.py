"""The run layer's imports flow one way, as README states: config <- featurize, run <- harness <- cli."""

import ast
from pathlib import Path

import pytest

import rlselect

PACKAGE = Path(rlselect.__file__).parent

# each run-layer module, and the modules above it that it must not import
ABOVE = {
    "config": {"featurize", "run", "harness", "cli"},
    "featurize": {"run", "harness", "cli"},
    "run": {"harness", "cli"},
    "harness": {"cli"},
}


def imported_modules(name: str) -> set[str]:
    """The ``rlselect`` modules that ``rlselect/<name>.py`` imports, anywhere in the file, by short name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("rlselect."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("rlselect"):
                module = module.removeprefix("rlselect").lstrip(".")
            elif node.level != 1:
                continue
            # "from . import x" and "from rlselect import x" name modules; "from .x import y" names x
            found.update(module.split(".")[:1] if module else (a.name for a in node.names))
    return found


def test_every_module_parses_with_its_imports_seen():
    assert {p.stem for p in PACKAGE.glob("*.py")} >= set(ABOVE) | {"cli"}
    assert {"harness", "config", "run"} <= imported_modules("cli")
    assert {"config", "run"} <= imported_modules("harness")
    assert "config" in imported_modules("featurize")


@pytest.mark.parametrize("module", sorted(ABOVE))
def test_no_import_from_a_higher_layer(module):
    assert imported_modules(module) & ABOVE[module] == set()
