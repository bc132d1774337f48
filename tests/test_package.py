"""The package's public names resolve lazily, and every module imports on
its own.

``chowcheck/__init__`` imports no module until one of its names is read,
and the runner imports the curve, pencil and character modules inside the
checks that use them.  Eager imports used to fix one import order for
every process; these tests make sure no order is needed.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import chowcheck

SRC = str(Path(chowcheck.__file__).resolve().parent.parent)


def test_every_public_name_is_its_module_attribute():
    star = {}
    exec("from chowcheck import *", star)
    assert set(star) - {"__builtins__"} == set(chowcheck.__all__)
    for name in chowcheck.__all__:
        obj = getattr(chowcheck, name)
        assert obj.__module__.startswith("chowcheck.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert star[name] is obj
    assert set(chowcheck.__all__) <= set(dir(chowcheck))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chowcheck.no_such_name
    assert not hasattr(chowcheck, "CHECKS")


@pytest.mark.parametrize("module", sorted(
    name for _, name, _ in pkgutil.iter_modules(chowcheck.__path__)
    if name != "__main__"))
def test_each_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", f"import chowcheck.{module}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_report_imports_no_other_chowcheck_module():
    # every module imports report for InputError and CheckFailure, so an
    # import of any chowcheck module from report would close a cycle
    tree = ast.parse(Path(chowcheck.__file__).with_name("report.py")
                     .read_text(encoding="utf-8"))
    imported = [node.module or "." for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("chowcheck"))]
    imported += [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names
                 if alias.name.startswith("chowcheck")]
    assert imported == []


def _numpy_imports(tree):
    """(line, inside a function) of each import of numpy in ``tree``."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append((child.lineno, inside))
            visit(child, inside or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


def test_only_the_gfp_kernels_import_numpy_inside_functions():
    # a module-level import would load numpy in every process that imports
    # the module, also one that runs no dense GF(p) elimination
    importers = set()
    for path in sorted(Path(chowcheck.__file__).parent.glob("*.py")):
        found = _numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
        assert all(inside for _, inside in found), (path.name, found)
        if found:
            importers.add(path.stem)
    assert importers <= {"modrank", "jacobian"}
