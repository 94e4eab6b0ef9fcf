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

# the value rules that only the readers of ``errors`` state
READER_RULES = ("must be >=", "must be finite")


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


def reader_rules(source: str) -> list[str]:
    """The ``ConfigurationError`` and ``ConfigParseError`` calls in
    ``source`` whose message states a ``READER_RULES`` rule, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        text = "".join(part.value for arg in node.args for part in ast.walk(arg)
                       if isinstance(part, ast.Constant) and isinstance(part.value, str))
        if (name in ("ConfigurationError", "ConfigParseError")
                and any(rule in text for rule in READER_RULES)):
            found.append(ast.unparse(node))
    return found


def module_imports(source: str, module: str) -> list[str]:
    """The import statements in ``source`` that load ``module`` or one of
    its submodules, as written; relative imports load none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            found.append(ast.unparse(node))
    return found


def package_imports(source: str) -> list[str]:
    """The stratasim modules that ``source`` imports, by name, in the order
    written: ``from .harness import x``, ``from . import harness``,
    ``from stratasim.harness import x`` and ``import stratasim.harness``
    each load ``harness``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level <= 1:
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "stratasim":
                    continue
                parts = parts[1:]
            found += [parts[0]] if parts and parts[0] else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            found += [a.name.split(".")[1] for a in node.names
                      if a.name.startswith("stratasim.")]
    return found


def name_readers(source: str, name: str) -> list[str]:
    """The top-level statements of ``source`` that read the global
    ``name``, as a load, an attribute or an import: each function or class
    by its name, an assignment by its targets, any other statement as
    written.  Text that only mentions ``name`` reads nothing."""
    found = []
    for node in ast.parse(source).body:
        if not any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute) and n.attr == name
                   or isinstance(n, ast.alias) and n.name == name for n in ast.walk(node)):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, ast.Assign):
            found.append(", ".join(ast.unparse(target) for target in node.targets))
        else:
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_draws_anything_but_uniforms(path):
    assert sampler_calls(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "errors.py"}),
                         ids=lambda p: p.name)
def test_only_the_readers_state_bounds_and_finiteness(path):
    # ``errors.as_int`` holds every lower bound, ``errors.as_real`` every
    # finiteness check
    assert reader_rules(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_harness_imports_ctypes(path):
    # the process-wide allocator policy has one home
    want = ["import ctypes"] if path.name == "harness.py" else []
    assert module_imports(path.read_text(), "ctypes") == want


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_chunk_size_reads_the_chunk_budget(path):
    # one chunk rule; the trim threshold is a multiple of the budget
    want = ["TRIM_THRESHOLD", "_chunk_size"] if path.name == "harness.py" else []
    assert name_readers(path.read_text(), "CHUNK_BYTES") == want


@pytest.mark.parametrize("name", ["analytic", "subgroup"])
def test_closed_forms_import_no_runner(name):
    # the closed forms sit below the runner and the CLI, which read them
    imported = package_imports((SRC / f"{name}.py").read_text())
    assert not set(imported) & {"harness", "cli"}, imported


def test_package_imports_are_found():
    source = "\n".join([
        "import numpy as np",
        "import stratasim",
        "import stratasim.harness as h, os",
        "from stratasim.cli import main",
        "from stratasim import cohort, errors",
        "from .randomizer import TrialDesign",
        "from . import harness",
        "from ..other import thing",
        "from scipy.special import ndtr",
        "def f():",
        "    from .cli import main",
    ])
    assert package_imports(source) == [
        "harness", "cli", "cohort", "errors", "randomizer", "harness", "cli",
    ]


def test_name_readers_are_found():
    source = "\n".join([
        '"""CHUNK_BYTES in a docstring is no read."""',
        "CHUNK_BYTES = 10",
        "TRIM = 4 * CHUNK_BYTES  # a read",
        "def size(config):",
        "    return CHUNK_BYTES // config",
        "def other():",
        "    CHUNK_BYTES_2 = 3  # CHUNK_BYTES",
        "    return CHUNK_BYTES_2",
        "class Holder:",
        "    def method(self):",
        "        return harness.CHUNK_BYTES",
        "from .harness import CHUNK_BYTES as budget",
        "if budget:",
        "    print(CHUNK_BYTES)",
        "def store():",
        "    global CHUNK_BYTES",
        "    CHUNK_BYTES = 5",
    ])
    assert name_readers(source, "CHUNK_BYTES") == [
        "TRIM", "size", "Holder", "from .harness import CHUNK_BYTES as budget",
        "if budget:\n    print(CHUNK_BYTES)",
    ]


def test_module_imports_are_found():
    source = "\n".join([
        "import os, ctypes",
        "import ctypes.util as util",
        "from ctypes import CDLL",
        "from numpy import ctypeslib",
        "import ctypeslib",
        "from . import ctypes",
        "from .ctypes import mallopt",
        "def f():",
        "    from ctypes.util import find_library",
    ])
    assert module_imports(source, "ctypes") == [
        "import os, ctypes", "import ctypes.util as util", "from ctypes import CDLL",
        "from ctypes.util import find_library",
    ]


def test_reader_rules_are_found():
    source = "\n".join([
        "from . import errors",
        "def f(n, x):",
        "    if n < 1:",
        "        raise ConfigurationError(f'n must be >= 1, got {n}')",
        "    if x != x:",
        "        raise errors.ConfigParseError('x ' 'must be finite')",
        "    raise ConfigurationError(f'n must be positive, got {n}')",
        "    print('x must be finite')",
    ])
    assert reader_rules(source) == [
        "ConfigurationError(f'n must be >= 1, got {n}')",
        "errors.ConfigParseError('x must be finite')",
    ]


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
