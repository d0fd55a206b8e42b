import ast
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from conftest import element_scatter_stiffness, eliminate, stiffness_apply
import immersedfem
from immersedfem import (FeSpace, SphericalInterface, assemble_interface_load,
                         build_uniform_mesh, immersed_quadrature, layer_source_strength,
                         reference_solution, solve)


def study_problem(dim, degree, cells):
    """The layer-source problem ``run_study`` solves at one level: the space,
    the interface load and the Dirichlet data."""
    interface = SphericalInterface((0.3,) * dim, 0.2)
    mesh = build_uniform_mesh(dim, cells)
    space = FeSpace(mesh, degree)
    load = assemble_interface_load(space, immersed_quadrature(interface, mesh),
                                   lambda y: layer_source_strength(interface))
    return space, load, reference_solution(interface).values


def test_identity_system():
    # one Q1 cell has no interior dof: the solution is the boundary interpolant
    space, load, g = study_problem(2, 1, 1)
    solution, residual = solve(space, load, g)
    assert np.array_equal(solution, g(space.dof_coords(np.arange(space.n_dofs))))
    assert residual == 0.0


def test_zero_rhs_short_circuits():
    space, _, _ = study_problem(2, 2, 4)
    solution, residual = solve(space, np.zeros(space.n_dofs), lambda x: 0.0)
    assert np.array_equal(solution, np.zeros(space.n_dofs))
    assert residual == 0.0


def test_agrees_with_direct_solve():
    # oracle: splu of the element-scatter stiffness after symmetric
    # elimination, with one step of iterative refinement
    for dim, degree, cells in ((2, 1, 256), (2, 2, 64), (2, 3, 32), (3, 1, 16), (3, 2, 8)):
        space, load, g = study_problem(dim, degree, cells)
        solution, residual = solve(space, load, g)
        # the residual is the true one of the eliminated system, from the operator
        boundary = space.boundary_dofs
        interior = np.setdiff1d(np.arange(space.n_dofs), boundary)
        lifted = np.zeros(space.n_dofs)
        lifted[boundary] = g(space.dof_coords(boundary))
        apply = stiffness_apply(space)
        scale = np.hypot(np.linalg.norm((load - apply(lifted))[interior]),
                         np.linalg.norm(lifted[boundary]))
        true = np.linalg.norm((load - apply(solution))[interior]) / scale
        assert residual == pytest.approx(true, rel=1e-12)
        assert residual <= 1e-13, (dim, degree, cells)
        matrix, rhs = eliminate(element_scatter_stiffness(space), load, space, g)
        assert np.linalg.norm(rhs - matrix @ solution) <= 1e-13 * np.linalg.norm(rhs)
        lu = splu(matrix.tocsc())
        direct = lu.solve(rhs)
        direct += lu.solve(rhs - matrix @ direct)
        assert np.max(np.abs(solution - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_rejects_bad_arguments():
    space, load, g = study_problem(2, 1, 4)
    for bad in (np.nan, np.inf):
        bad_load = load.copy()
        bad_load[7] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(space, bad_load, g)
        with pytest.raises(ValueError, match="finite"):
            solve(space, load, lambda x: np.where(x[:, 1] == 1.0, bad, g(x)))
    # a column vector would be taken as the load, a short one fail in a reshape
    for shape in ((space.n_dofs, 1), (space.n_dofs - 1,), (space.n_dofs + 1,), ()):
        with pytest.raises(ValueError, match="load must have shape"):
            solve(space, np.ones(shape), g)


def test_import_loads_no_scipy():
    # the library and its command line run on numpy alone; scipy serves only
    # the tests' direct-solve oracles, and the boundary-integral oracle lives
    # with the tests, so the import loads the package's 10 modules and no more
    code = ("import sys, immersedfem, immersedfem.cli; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'immersedfem')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(immersedfem.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    modules = "assembly cli geometry mesh norms quadrature solver space study".split()
    assert out.stdout.split() == ["immersedfem"] + [f"immersedfem.{m}" for m in modules]


def test_readme_lists_the_exported_names():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as readme:
        count, names = re.search(r"The package exports (\d+) names(.*?)\n\n", readme.read(),
                                 re.S).groups()
    assert int(count) == len(immersedfem.__all__)
    assert sorted(re.findall(r"`(\w+)`", names)) == sorted(immersedfem.__all__)


def test_package_modules_use_every_name_they_import():
    # stands in for a linter's unused-import rule: a deletion must take its
    # imports with it; a name in ``__all__`` counts as used
    package = os.path.dirname(os.path.abspath(immersedfem.__file__))
    unused = []
    for file in sorted(os.listdir(package)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(package, file), encoding="utf-8") as source:
            tree = ast.parse(source.read())
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


def test_package_defines_no_name_it_never_uses():
    # a module-level function, class or constant is called or read somewhere
    # in the package outside its own definition, or exported in ``__all__``:
    # test oracles and helpers live with the tests
    package = os.path.dirname(os.path.abspath(immersedfem.__file__))
    defined, used = {}, set(immersedfem.__all__)
    for file in sorted(os.listdir(package)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(package, file), encoding="utf-8") as source:
            tree = ast.parse(source.read())
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
