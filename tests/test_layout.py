"""Layout rules of the package sources."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stratasim"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list[str]:
    """The underscore names that ``source`` imports from a stratasim
    module, as ``module.name``.  Dunders such as ``__version__`` are
    public; names from other packages are not checked."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "stratasim":
                continue
            path = "." * node.level + module
            if any(_private(part) for part in module.split(".") if part):
                found.append(path)
            found += [f"{path.rstrip('.')}.{a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "stratasim"
                      and any(_private(part) for part in a.name.split("."))]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text()) == []


def test_private_imports_are_found():
    source = "\n".join([
        "from .inference import NO_RESIDUAL_DF, _t_critical",
        "from stratasim.harness import _chunk_size",
        "from ._hidden import name",
        "import stratasim._hidden",
        "from . import __version__",
        "from scipy.special._ufuncs import _nct_sf",
        "def f():",
        "    from .errors import _check",
    ])
    assert private_imports(source) == [
        ".inference._t_critical", "stratasim.harness._chunk_size", "._hidden",
        "stratasim._hidden", ".errors._check",
    ]
