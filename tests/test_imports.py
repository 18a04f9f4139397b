import ast
import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import inellipse
from inellipse import cli

SRC = os.path.dirname(os.path.dirname(inellipse.__file__))


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_does_not_load_numpy():
    # numpy is a test dependency only
    code = ("import sys, inellipse\n"
            "inellipse.solve(inellipse.canonicalize([(0, 0), (0, 3), (4, 6), (2, 1)]))\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_builds_no_parser_and_loads_no_numpy():
    # nor a report template: the first report of each shape builds its own
    code = ("import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import inellipse.cli\n"
            "templates = inellipse.cli._template.cache_info\n"
            "assert built == [], 'importing inellipse.cli built a parser'\n"
            "assert templates().currsize == 0, 'importing inellipse.cli built a template'\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "try:\n"
            "    inellipse.cli.main(['verify', '--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "assert built, 'the spy saw no parser being built'\n"
            "assert templates().currsize == 0, 'help built a template'\n"
            "assert inellipse.cli.main(['classify', '--input', '']) == 2\n"
            "assert templates().currsize == 1, 'an error report built no template'\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_cli_and_solve_load_no_dataclasses_inspect_or_logging():
    # compared with the modules of just before the import, since site may
    # preload some of them; logging loads only when a warning fires
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import inellipse.cli\n"
            "inellipse.solve(inellipse.canonicalize([(0, 0), (0, 3), (4, 6), (2, 1)]))\n"
            "print(' '.join(sorted({'dataclasses', 'inspect', 'logging'}\n"
            "                      & (set(sys.modules) - before))))\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def imported_modules(importtime_stderr):
    return {line.rsplit("|", 1)[-1].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:")}


def test_cli_minimal_does_not_load_numpy(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text('{"vertices": [[0, 0], [0, 2], [4, 6], [2, 1]]}')
    proc = run_python("-X", "importtime", "-m", "inellipse.cli", "minimal", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    loaded = imported_modules(proc.stderr)
    assert "inellipse.quad" in loaded and "numpy" not in loaded


def test_cli_verify_loads_no_numpy_and_prints_the_same_report(tmp_path):
    # the oracle battery is plain math; the report of a cold process
    # matches the in-process one byte for byte
    path = tmp_path / "quad.json"
    path.write_text('{"vertices": [[0, 0], [0, 2], [4, 6], [2, 1]]}')
    proc = run_python("-X", "importtime", "-m", "inellipse.cli", "verify", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    loaded = imported_modules(proc.stderr)
    assert "inellipse.oracle" in loaded
    assert {"numpy", "fractions", "decimal"}.isdisjoint(loaded)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["verify", "--input", str(path)]) == 0
    assert proc.stdout == buf.getvalue()


def imports_of(path, modules):
    """Lines of a module that import any of ``modules``, at any level of
    its code."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in modules for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_numpy():
    modules = sorted(pathlib.Path(inellipse.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    assert {p.name: found for p in modules if (found := imports_of(p, {"numpy"}))} == {}


def test_no_module_imports_fractions_or_decimal():
    # the exact arithmetic of ``oracle.optimum`` is plain ``int``s: a
    # ``Fraction`` sign costs about 28 times an ``int`` one
    modules = sorted(pathlib.Path(inellipse.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    found = {p.name: lines for p in modules if (lines := imports_of(p, {"fractions", "decimal"}))}
    assert found == {}


def test_numpy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")           # Python 3.11+
    pyproject = pathlib.Path(SRC).parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []
    assert any(req.split(">")[0].split("=")[0].strip() == "numpy"
               for req in project["optional-dependencies"]["test"])


def unused_imports(path):
    """Names a module imports but never reads: every imported name must
    occur as a name in the module's code (annotations included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in pathlib.Path(inellipse.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 1
    unused = {p.name: found for p in modules if (found := unused_imports(p))}
    assert unused == {}


LAYERS = ("quad", "conic", "family", "minecc", "oracle", "cli", "errors")


def unreferenced_definitions(package_dir):
    """Public top-level functions and classes of the layer modules that no
    code of the package reads, as a Name or an Attribute, outside their own
    definition (``__init__``'s re-exports are imports, not reads)."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package_dir.glob("*.py"))}

    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    total = {}
    for tree in trees.values():
        for name in reads(tree):
            total[name] = total.get(name, 0) + 1
    return sorted(f"{layer}.{node.name}" for layer in LAYERS for node in trees[layer].body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and total.get(node.name, 0) == sum(n == node.name for n in reads(node)))


def test_no_unreferenced_public_definitions():
    assert unreferenced_definitions(pathlib.Path(inellipse.__file__).parent) == []


def squares_by_pow(path):
    """Lines of a module that square by ``x ** 2``.  CPython sends a float
    power to libm ``pow``, which does not always round as the product
    ``x * x`` does; one spelling keeps the output per IEEE, not per libm,
    and ``solve`` exactly scale-equivariant."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 2]


def test_every_square_is_a_product():
    modules = sorted(pathlib.Path(inellipse.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    assert {p.name: found for p in modules if (found := squares_by_pow(p))} == {}
