"""Outside-in span tracer for one convergence study.

The tracer wraps, at run time, the public names each layer of
``immersedfem`` exposes, and records one span per call: its name, the
refinement level it ran on, its duration and its self time (the duration
minus the part that child spans cover). Counts are read from the wrapped
calls' arguments and return values. No file of the package changes: the
originals are put back when tracing ends, and a name that no longer exists
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np


def _count_space(tracer, args, kwargs, space):
    tracer.add("n_dofs", space.n_dofs)


def _count_tabulate(tracer, args, kwargs, result):
    points = np.asarray(args[1] if len(args) > 1 else kwargs["ref_points"])
    tracer.add("tabulate_points", points.size // points.shape[-1])


def _count_split(tracer, args, kwargs, split):
    tracer.add("cut_points", split.n_leaves * split.rule.n_points)
    tracer.add("leaves", split.n_leaves)
    tracer.add("forced_leaves", int(np.count_nonzero(split.cut)))


def _count_surface(tracer, args, kwargs, quad):
    tracer.add("surface_points", len(quad.weights))
    tracer.add("cut_cells", np.unique(quad.owner_cell).size)


def _count_dirichlet(tracer, args, kwargs, result):
    tracer.add("nnz", result[0].nnz)


def _count_cg(tracer, args, kwargs, result):
    report = result[1]
    tracer.add("cg_iters", report.iterations)
    tracer.add("rel_residual", report.final_relative_residual)


# (span, module, attribute path, counter). The eight phase functions are
# wrapped where ``run_study`` looks them up, in ``immersedfem.study``;
# ``run_study`` and ``emit_table`` where ``cli.main`` looks them up.
TARGETS = (
    ("study.run", "immersedfem.cli", "run_study", None),
    ("cli.emit", "immersedfem.cli", "emit_table", None),
    ("mesh.build", "immersedfem.study", "build_uniform_mesh", None),
    ("space.init", "immersedfem.study", "FeSpace", _count_space),
    ("geometry.surface_quad", "immersedfem.study", "immersed_quadrature", _count_surface),
    ("assembly.stiffness", "immersedfem.study", "assemble_stiffness", None),
    ("assembly.iface_load", "immersedfem.study", "assemble_interface_load", None),
    ("assembly.dirichlet", "immersedfem.study", "apply_dirichlet", _count_dirichlet),
    ("solver.cg", "immersedfem.study", "cg_solve", _count_cg),
    ("norms.errors", "immersedfem.study", "weighted_errors", None),
    ("quadrature.split", "immersedfem.norms", "split_cut_cell", _count_split),
    ("space.tabulate", "immersedfem.space", "FeSpace.tabulate", _count_tabulate),
    ("geometry.predicates", "immersedfem.geometry", "SphericalInterface.distance", None),
    ("geometry.predicates", "immersedfem.geometry", "SphericalInterface.side", None),
    ("geometry.predicates", "immersedfem.geometry", "SphericalInterface.cuts_box", None),
    ("norms.exact_eval", "immersedfem.norms", "RadialSolution.values", None),
    ("norms.exact_eval", "immersedfem.norms", "RadialSolution.gradients", None),
)

# The span that opens a refinement level: run_study builds one mesh per level.
LEVEL_SPAN = "mesh.build"
# Direct children of study.run: a level's phases, in the order they run.
PHASES = ("mesh.build", "space.init", "geometry.surface_quad", "assembly.stiffness",
          "assembly.iface_load", "assembly.dirichlet", "solver.cg", "norms.errors")

# name -> (unit, better); every traced run reports all of them.
LAYER_METRICS = {
    "space.tabulate_s": ("s", "lower"),
    "space.tabulate_calls": ("count", "lower"),
    "space.tabulate_points": ("count", "lower"),
    "space.init_s": ("s", "lower"),
    "norms.errors_s": ("s", "lower"),
    "norms.errors_total_s": ("s", "lower"),
    "norms.exact_eval_s": ("s", "lower"),
    "quadrature.split_s": ("s", "lower"),
    "quadrature.split_calls": ("count", "lower"),
    "quadrature.cut_points": ("count", "lower"),
    "quadrature.forced_leaf_frac": ("1", "lower"),
    "geometry.surface_quad_s": ("s", "lower"),
    "geometry.predicates_s": ("s", "lower"),
    "geometry.surface_points": ("count", "lower"),
    "geometry.cut_cells": ("count", "lower"),
    "geometry.points_per_cut_cell": ("count", "lower"),
    "assembly.stiffness_s": ("s", "lower"),
    "assembly.iface_load_s": ("s", "lower"),
    "assembly.dirichlet_s": ("s", "lower"),
    "assembly.nnz": ("count", "lower"),
    "assembly.n_dofs": ("count", "lower"),
    "solver.cg_s": ("s", "lower"),
    "solver.cg_iters": ("count", "lower"),
    "solver.cg_iters_total": ("count", "lower"),
    "solver.s_per_iter": ("s", "lower"),
    "solver.rel_residual": ("1", "lower"),
    "mesh.build_s": ("s", "lower"),
    "study.finest_level_s": ("s", "lower"),
    "study.overhead_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "trace.overhead_frac": ("1", "lower"),
    "trace.accounted_frac": ("1", "higher"),
}


class Tracer:
    """Span and count recorder; ``installed()`` wraps TARGETS for its duration."""

    def __init__(self):
        self.level = -1
        self.level_starts = []    # (n_c, start) per level
        self.study_end = None
        self.self_s = defaultdict(float)     # (level, span) -> seconds
        self.incl_s = defaultdict(float)     # (level, span) -> seconds
        self.calls = defaultdict(int)        # (level, span) -> calls
        self.counts = defaultdict(float)     # (level, key) -> value
        self.absent = []
        self.uncounted = set()
        self._stack = []
        self._restore = []

    def add(self, key, value):
        self.counts[(self.level, key)] += value

    @contextlib.contextmanager
    def installed(self):
        try:
            for target in TARGETS:
                self._wrap(*target)
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self._restore.clear()

    def _wrap(self, span, module, path, counter):
        label = f"{module}.{path}"
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.append(label)
            return
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        if owner is None or not hasattr(owner, attr):
            self.absent.append(label)
            return
        if inspect.isclass(owner):
            # methods are wrapped on the class; what was inherited is
            # deleted again on restore instead of being copied down
            original = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(original):
                self.absent.append(label)
                return
            self._restore.append((owner, attr, vars(owner).get(attr)))
        else:
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
        setattr(owner, attr, self._traced(original, span, counter))

    def _traced(self, original, span, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if span == LEVEL_SPAN:
                tracer.level += 1
                n_c = args[1] if len(args) > 1 else kwargs.get("cells_per_axis")
                tracer.level_starts.append((n_c, time.perf_counter()))
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                key = (tracer.level, span)
                tracer.self_s[key] += duration - frame[0]
                tracer.incl_s[key] += duration
                tracer.calls[key] += 1
                if span == "study.run":
                    tracer.study_end = start + duration
            if counter is not None:
                try:
                    counter(tracer, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    tracer.uncounted.add(span)
            return result

        return traced

    # -- summaries -------------------------------------------------------

    def total(self, table, span):
        return sum(v for (_, name), v in table.items() if name == span)

    def levels(self):
        """Per-level rows: n_c, wall time, and the inclusive time of each phase."""
        rows = []
        ends = [start for _, start in self.level_starts[1:]] + [self.study_end]
        for level, ((n_c, start), end) in enumerate(zip(self.level_starts, ends)):
            row = {"n_c": n_c, "wall_s": (end - start) if end is not None else None,
                   "cg_iters": int(self.counts.get((level, "cg_iters"), 0))}
            for phase in PHASES:
                row[phase] = self.incl_s.get((level, phase), 0.0)
            rows.append(row)
        return rows

    def metrics(self, traced_s: float, plain_s: float) -> dict:
        """LAYER_METRICS of one traced study whose ``cli.main`` call took
        ``traced_s``; ``plain_s`` is the same study with tracing off."""
        finest = self.level
        own = {span: self.total(self.self_s, span)
               for span in {t[0] for t in TARGETS}}

        def at_finest(key):
            return self.counts.get((finest, key), 0.0)

        iters_total = self.total(self.counts, "cg_iters")
        leaves = at_finest("leaves")
        cut_cells = at_finest("cut_cells")
        rows = self.levels()
        values = {
            "space.tabulate_s": own["space.tabulate"],
            "space.tabulate_calls": self.calls.get((finest, "space.tabulate"), 0),
            "space.tabulate_points": at_finest("tabulate_points"),
            "space.init_s": own["space.init"],
            "norms.errors_s": own["norms.errors"],
            "norms.errors_total_s": self.total(self.incl_s, "norms.errors"),
            "norms.exact_eval_s": own["norms.exact_eval"],
            "quadrature.split_s": own["quadrature.split"],
            "quadrature.split_calls": self.calls.get((finest, "quadrature.split"), 0),
            "quadrature.cut_points": at_finest("cut_points"),
            "quadrature.forced_leaf_frac": at_finest("forced_leaves") / leaves if leaves else 0.0,
            "geometry.surface_quad_s": own["geometry.surface_quad"],
            "geometry.predicates_s": own["geometry.predicates"],
            "geometry.surface_points": at_finest("surface_points"),
            "geometry.cut_cells": cut_cells,
            "geometry.points_per_cut_cell": (at_finest("surface_points") / cut_cells
                                             if cut_cells else 0.0),
            "assembly.stiffness_s": own["assembly.stiffness"],
            "assembly.iface_load_s": own["assembly.iface_load"],
            "assembly.dirichlet_s": own["assembly.dirichlet"],
            "assembly.nnz": at_finest("nnz"),
            "assembly.n_dofs": at_finest("n_dofs"),
            "solver.cg_s": own["solver.cg"],
            "solver.cg_iters": at_finest("cg_iters"),
            "solver.cg_iters_total": iters_total,
            "solver.s_per_iter": own["solver.cg"] / iters_total if iters_total else 0.0,
            "solver.rel_residual": at_finest("rel_residual"),
            "mesh.build_s": own["mesh.build"],
            "study.finest_level_s": rows[-1]["wall_s"] if rows and rows[-1]["wall_s"] else 0.0,
            "study.overhead_s": own["study.run"],
            "cli.emit_s": own["cli.emit"],
            "trace.overhead_frac": traced_s / plain_s - 1.0,
            "trace.accounted_frac": sum(own.values()) / traced_s,
        }
        return {name: float(values[name]) for name in LAYER_METRICS}
