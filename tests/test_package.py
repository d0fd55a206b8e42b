"""Package-wide structural checks: what the package imports, defines, exports
and documents.  Every module of the package and of the tests is parsed once
(``_modules``), and the ``ast`` checks share those trees."""

import ast
import collections
import functools
import importlib
import os
import re
import subprocess
import sys

import numpy as np

import immersedfem

PACKAGE = os.path.dirname(os.path.abspath(immersedfem.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)


@functools.cache
def _modules(folder=PACKAGE) -> dict:
    """``{file name: ast.Module}`` of the ``.py`` files of ``folder`` in name
    order, the package's by default (called without an argument, so that
    each file is parsed once)."""
    trees = {}
    for file in sorted(os.listdir(folder)):
        if file.endswith(".py"):
            with open(os.path.join(folder, file), encoding="utf-8") as source:
                trees[file] = ast.parse(source.read())
    return trees


def _run_with_on_path(src, code):
    """Run ``code`` in a new interpreter with ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_no_scipy():
    # the library and its command line run on numpy alone; scipy serves only
    # the tests' direct-solve oracles, and the boundary-integral oracle lives
    # with the tests, so the import loads the package's 10 modules and no more
    code = ("import sys, immersedfem, immersedfem.cli; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'immersedfem')))")
    out = _run_with_on_path(os.path.dirname(PACKAGE), code)
    out.check_returncode()
    modules = "assembly cli geometry mesh norms quadrature solver space study".split()
    assert out.stdout.split() == ["immersedfem"] + [f"immersedfem.{m}" for m in modules]


def test_readme_lists_the_exported_names():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as readme:
        count, names = re.search(r"The package exports (\d+) names(.*?)\n\n", readme.read(),
                                 re.S).groups()
    assert int(count) == len(immersedfem.__all__)
    assert sorted(re.findall(r"`(\w+)`", names)) == sorted(immersedfem.__all__)


def test_readme_library_example_runs():
    # the fenced Python block under "## Library example", run as a reader
    # would run it: in a new interpreter with src on the path
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as readme:
        section = readme.read().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = _run_with_on_path(os.path.join(ROOT, "src"), code)
    assert out.returncode == 0, out.stderr
    values = [float(word) for word in out.stdout.split()]
    assert len(values) == 2 and all(np.isfinite(v) and v > 0.0 for v in values)


def test_package_modules_use_every_name_they_import():
    # stands in for a linter's unused-import rule: a deletion must take its
    # imports with it; a name in ``__all__`` counts as used
    unused = []
    for file, tree in _modules().items():
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        unused += [f"{file}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


#: the package's layers: a module imports only from strictly lower layers
LAYERS = {"mesh": 0, "geometry": 1, "quadrature": 1, "space": 1,
          "assembly": 2, "solver": 2, "norms": 2, "study": 3, "cli": 4}


def test_package_modules_import_only_from_lower_layers():
    # every relative import of a module, ``__init__`` excepted, goes to a
    # strictly lower layer of LAYERS: none reaches sideways or up
    files = [file for file in _modules() if file != "__init__.py"]
    assert sorted(file[:-3] for file in files) == sorted(LAYERS)
    wrong = []
    for file in files:
        layer = LAYERS[file[:-3]]
        for node in ast.walk(_modules()[file]):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = ([node.module.split(".")[0]] if node.module
                           else [alias.name for alias in node.names])
                wrong += [f"{file[:-3]} -> {target}" for target in targets
                          if LAYERS.get(target, layer) >= layer]
    assert wrong == []


def test_batch_bound_named_in_quadrature_only():
    # one module owns the batch bound: the others size their blocks, chunks
    # and slabs by ``quadrature._batch``, so no copy of the rule can drift
    found = {file for file, tree in _modules().items() for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "BATCH_POINTS")
             or (isinstance(node, ast.Attribute) and node.attr == "BATCH_POINTS")}
    assert found == {"quadrature.py"}


def test_index_arithmetic_and_frames_owned_by_mesh():
    # numpy's index calls are named in mesh.py only, and ``mesh._frames`` is
    # the one frame table: quadrature and space import it and build no axis
    # table of their own, neither the other axes of each axis (a
    # comprehension over ``range(dim)`` with a ``!=`` filter) nor a lattice
    # of axis tuples (``_lattice_index`` with ``dim`` points per axis)
    calls, tables, imports = set(), set(), set()
    for file, tree in _modules().items():
        for owner in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(owner):
                if isinstance(node, ast.Attribute) and node.attr in ("unravel_index",
                                                                     "ravel_multi_index"):
                    calls.add(f"{file} {node.attr}")
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp)) and any(
                        ast.unparse(gen.iter) == "range(dim)" and any(
                            isinstance(cond, ast.Compare) and isinstance(cond.ops[0], ast.NotEq)
                            for cond in gen.ifs) for gen in node.generators):
                    tables.add(f"{file} {owner.name}")
                elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "_lattice_index"
                      and "dim" in [ast.unparse(arg) for arg in node.args[1:2]]):
                    tables.add(f"{file} {owner.name}")
        imports |= {file for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module == "mesh" and "_frames" in [a.name for a in node.names]}
    assert calls == {"mesh.py unravel_index", "mesh.py ravel_multi_index"}
    assert tables == {"mesh.py _frames"}
    assert imports == {"quadrature.py", "space.py"}


def test_package_defines_no_name_it_never_uses():
    # a module-level function, class or constant is called or read somewhere
    # in the package outside its own definition, or exported in ``__all__``:
    # test oracles and helpers live with the tests
    defined, used = {}, set(immersedfem.__all__)
    for file, tree in _modules().items():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if not name.startswith("__"):
                    defined[name] = f"{file}:{statement.lineno}"
            refs = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
            # references inside a definition do not keep its own name alive
            used |= refs - set(names)
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in used) == []


def test_package_tests_for_bools_in_one_function():
    # a bool is an int, so an integer argument is checked by one function,
    # mesh._integer, for every module: a copy of the test would drift from
    # its message, its range and the Python int it returns
    owners = []

    def visit(node, file, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{file} {node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds):
                owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, file, owner)

    for file, tree in _modules().items():
        visit(tree, file, f"{file} <module>")
    assert owners == ["mesh.py _integer"]


def test_config_error_raised_in_two_places():
    # a bad configuration is found by the config's checks or by the CLI's
    # flag parser; the study itself turns no other error into ConfigError
    owners = []

    def visit(node, file, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}".lstrip(".")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "ConfigError"):
            owners.append(f"{file} {owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, file, owner)

    for file, tree in _modules().items():
        visit(tree, file, "")
    assert sorted(owners) == ["cli.py _Parser.error", "study.py StudyConfig.__post_init__"]


def test_package_takes_no_side_parameter():
    # the exact field picks its own branch by the interface's one
    # inside/outside test, so no function, method or lambda of the package
    # takes side tags
    found = []
    for file, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
                         + [args.vararg, args.kwarg] if arg is not None]
                if "side" in names:
                    found.append(f"{file}:{node.lineno} {getattr(node, 'name', 'lambda')}")
    assert found == []


def test_package_defines_no_method_it_never_uses():
    # a method of a package class is called or read somewhere in the package
    # or the tests outside its own definition; dunders and overrides of a
    # base class from outside the package (the argparse hooks of
    # ``cli._Parser``) are called by that base
    methods, refs, own = [], [], []
    for in_package, trees in ((True, _modules()), (False, _modules(TESTS))):
        for file, tree in trees.items():
            refs += [node.attr if isinstance(node, ast.Attribute) else node.id
                     for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))]
            if not in_package:
                continue
            module = importlib.import_module(f"immersedfem.{file[:-3]}")
            for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
                outside = [base for base in getattr(module, cls.name).__mro__[1:]
                           if not base.__module__.startswith("immersedfem")]
                for method in cls.body:
                    if (not isinstance(method, ast.FunctionDef) or method.name.startswith("__")
                            or any(hasattr(base, method.name) for base in outside)):
                        continue
                    methods.append(f"{file}:{method.lineno} {cls.name}.{method.name}")
                    # references inside a method do not keep it alive
                    own += [node.attr for node in ast.walk(method)
                            if isinstance(node, ast.Attribute) and node.attr == method.name]
    counts = collections.Counter(refs)
    counts.subtract(own)
    assert [m for m in methods if counts[m.rsplit(".", 1)[1]] <= 0] == []


def test_allocator_setting_stays_in_the_cli():
    # the malloc thresholds belong to the process that owns the study, so
    # ctypes and mallopt appear in cli.py only, off the library's import path
    found = set()
    for file, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found |= {(file, name.split(".")[0]) for name in names
                      if name.split(".")[0] in ("ctypes", "mallopt")}
    assert found == {("cli.py", "ctypes"), ("cli.py", "mallopt")}
