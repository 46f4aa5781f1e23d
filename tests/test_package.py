import ast
import importlib
import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import doubleslit as ds
from doubleslit import analysis, cli, physics, propagation, qubit, reporting

EXPORTING = (analysis, physics, propagation, qubit, reporting)


def test_package_all_is_the_modules_lists():
    expected = [name for module in EXPORTING for name in module.__all__]
    assert ds.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_package_names_are_the_modules_objects(module):
    for name in module.__all__:
        assert getattr(ds, name) is getattr(module, name)


@pytest.mark.parametrize("module", (*EXPORTING, cli), ids=lambda m: m.__name__)
def test_module_all_lists_every_public_function_and_class(module):
    def is_code(value):
        return inspect.isfunction(value) or inspect.isclass(value)

    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and is_code(value)
               and value.__module__ == module.__name__}
    listed = {name for name in module.__all__ if is_code(getattr(module, name))}
    assert listed == defined


def test_exception_classes_are_the_two_physics_errors():
    # One failure model: bad input is a ValueError (ConfigError for a config), an
    # untrustworthy computation a SimulationError, and an absent feature is None.
    defined = {name: value for module in (*EXPORTING, cli) for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == module.__name__}
    assert defined == {"ConfigError": ds.ConfigError, "SimulationError": ds.SimulationError}
    assert ds.ConfigError.__module__ == ds.SimulationError.__module__ == physics.__name__
    assert ds.ConfigError.__bases__ == (ValueError,)
    assert ds.SimulationError.__bases__ == (RuntimeError,)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _trees(source: str):
    """The module's syntax tree, then that of each string in it that imports from the
    package (code the benchmark runs in a child interpreter)."""
    tree = ast.parse(source)
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and "from doubleslit" in str(node.value):
            yield ast.parse(node.value)


def _bench_imports():
    """(file, module, name) for every name a ``from doubleslit... import`` in bench/*.py
    takes."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for tree in _trees(path.read_text(encoding="utf-8")):
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("doubleslit"):
                    found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_bench_imports_exist():
    # The benchmark imports these names at run time; a name deleted from the package
    # would fail every benchmark run, so it fails here first.
    imports = _bench_imports()
    assert imports
    missing = [f"{file}: from {module} import {name}" for file, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_bench_own_tests_pass_on_a_copy(tmp_path):
    # The benchmark's own checks (traced spans nonzero, corrupted profiles counted as
    # failed), run on a copy so that the benchmark's build directory stays out of the
    # checkout.
    root = BENCH.parent
    for name in ("src", "bench"):
        shutil.copytree(root / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_build"))
    for name in ("BENCHMARK.json", "pyproject.toml"):
        shutil.copy2(root / name, tmp_path / name)
    result = subprocess.run([sys.executable, "-m", "pytest", "bench", "-q", "-p",
                             "no:cacheprovider"], cwd=tmp_path, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]


SRC = Path(ds.__file__).resolve().parent


def _dead_names(tree: ast.Module) -> list[str]:
    """The module-level private names a module never reads, and the names it imports that
    it neither reads nor lists in ``__all__``."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported, defined, imported = set(), [], []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names
                             if alias.name != "*"]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            if names == ["__all__"] and isinstance(node.value, ast.List):
                exported = set(ast.literal_eval(node.value))
            defined += names
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    return ([name for name in private if name not in read]
            + [name for name in imported if name not in read and name not in exported])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_names(path):
    assert _dead_names(ast.parse(path.read_text(encoding="utf-8"))) == []
