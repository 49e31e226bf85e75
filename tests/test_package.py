"""What importing the package costs: numpy, and no scipy; and no module
imports a name it never uses, or imports inside a function, and no public
function takes a flag parameter."""

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


# the simulator kernels, as (module file, class or None, function)
KERNELS = (("idm.py", None, "idm_acceleration_vec"), ("ring.py", None, "step"),
           ("ring.py", "RingState", "_gaps"))


def _float_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _float_literal_operands(function):
    """The lines where ``function`` passes a float literal to a call or
    takes one as an arithmetic operand: numpy converts such a float to a
    0-d array on every call, where a constant made once serves."""
    lines = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            operands = node.args + [k.value for k in node.keywords]
        elif isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
        else:
            continue
        lines.update(node.lineno for x in operands if _float_literal(x))
    return sorted(lines)


def _function(tree, owner, name):
    if owner is not None:
        tree = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == owner)
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_simulator_kernels_take_no_float_literal_operand():
    package = Path(ringflow.__file__).resolve().parent
    found = {name: _float_literal_operands(_function(
                 ast.parse((package / module).read_text()), owner, name))
             for module, owner, name in KERNELS}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _float_literal_operands(ast.parse(
        "def f(disp, v, k):\n    np.maximum(disp, 0.0, out=disp)\n"
        "    w = 0.5 * v\n    x = v.clip(-1.0, k)\n    y = k * 2 + (v <= 0.0)\n"
        "    np.copyto(v, k, where=v > 0.0)\n").body[0]) == [2, 3, 4]


def _flag_parameters(source):
    """The public functions and methods that take a parameter whose default
    is a bool: a flag that makes one function two.  Private helpers
    (``_name``) are exempt; ``__init__`` and the other dunders are not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_") and not node.name.endswith("__"):
            continue
        defaults = node.args.defaults + node.args.kw_defaults
        if any(isinstance(d, ast.Constant) and isinstance(d.value, bool)
               for d in defaults):
            found.append(f"{node.name} (line {node.lineno})")
    return sorted(found)


def test_no_public_function_takes_a_flag_parameter():
    package = Path(ringflow.__file__).resolve().parent
    flags = {path.name: _flag_parameters(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in flags.items() if found} == {}
    assert _flag_parameters(
        "def f(a, b=False):\n    pass\ndef _g(x=True):\n    pass\n"
        "class C:\n    def m(self, *, k=True, j=None):\n        pass\n"
        "    def __init__(self, z=False, n=0):\n        pass\n") == \
        ["__init__ (line 8)", "f (line 1)", "m (line 6)"]
