"""Layout rules of the package sources."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stratasim"
# every ``Generator`` method that draws, but ``random``: the engine draws
# uniforms alone and turns them into normals, strata and picks itself
SAMPLERS = frozenset(name for name in dir(np.random.Generator) if not name.startswith("_")
                     and name not in ("random", "bit_generator", "spawn"))


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


def sampler_calls(source: str) -> list[str]:
    """The calls in ``source`` of a method named like a ``SAMPLERS`` entry,
    as written.  A call on an imported module's name, such as
    ``np.power``, is no draw; ``np.random.normal`` is."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr in SAMPLERS
             and not (isinstance(node.func.value, ast.Name) and node.func.value.id in modules)]
    return [ast.unparse(node.func) for node in sorted(calls, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_draws_anything_but_uniforms(path):
    assert sampler_calls(path.read_text()) == []


def test_sampler_calls_are_found():
    source = "\n".join([
        "import numpy as np",
        "rng = np.random.default_rng(1)",
        "u = rng.random(3)",
        "z = rng.standard_normal((3, 4))",
        "x = np.power(u, 2)",
        "k = np.random.normal(size=2)",
        "def f(gen):",
        "    return gen.integers(0, 2, 5), gen.bit_generator.state",
    ])
    assert sampler_calls(source) == [
        "rng.standard_normal", "np.random.normal", "gen.integers",
    ]


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
