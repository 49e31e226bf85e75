"""What importing the package costs: numpy, and no scipy; and no module
imports a name it never uses, or imports inside a function."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ringflow


def test_import_loads_no_scipy():
    # a fresh interpreter, because the test helpers import scipy here
    src = str(Path(ringflow.__file__).resolve().parents[1])
    code = ("import ringflow, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def _unused_imports(source):
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_every_module_uses_what_it_imports():
    # __init__ imports to re-export
    package = Path(ringflow.__file__).resolve().parent
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports("import os\nfrom a import b as c\nc()\n") == \
        ["os (line 1)"]


def _function_local_imports(source):
    """The lines of imports made inside a function body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sorted({inner.lineno
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, functions)
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_no_module_imports_inside_a_function():
    package = Path(ringflow.__file__).resolve().parent
    local = {path.name: _function_local_imports(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in local.items() if lines} == {}
    assert _function_local_imports(
        "import os\ndef f():\n    import sys\n    def g():\n"
        "        from a import b\n") == [3, 5]
