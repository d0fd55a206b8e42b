"""The benchmark's worker runs on this package: every name it calls exists.

``perfbench/worker.py`` is started as the benchmark starts it, in a new
interpreter with ``src`` on PYTHONPATH, so a package change that removes or
renames something the benchmark uses fails here and not only in a benchmark
run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from immersedfem.study import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_worker(task):
    """The JSON object of the worker's last output line; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                           json.dumps(task)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines
    return json.loads(lines[-1])


@pytest.mark.parametrize("flags", [
    ["--dim", "2", "--max-exp", "9"], ["--dim", "3", "--max-exp", "4"],
    ["--dim", "2", "--degree", "2"],
    ["--dim", "3", "--max-exp", "4", "--center", "0.31,0.295,0.2999"]],
    ids=["study2d", "study3d", "study2d-q2", "study3d-center"])
def test_setup_builds_the_study_input(flags):
    # the flags of each workload, and a centre as a nonzero seed adds it:
    # the worker hands every parsed flag that is set to StudyConfig
    result = run_worker({"mode": "setup", "flags": flags})
    assert result["setup_s"] > 0.0


def test_study_writes_the_csv(tmp_path):
    out = tmp_path / "study.csv"
    result = run_worker({"mode": "study", "flags": ["--dim", "2", "--max-exp", "3"],
                         "repeats": 1, "csv_path": str(out)})
    [op] = result["ops"]
    assert op["code"] == 0
    assert op["csv"].startswith(CSV_HEADER + "\n")


def test_tracer_finds_every_traced_name_but_the_known_absent():
    # the tracer wraps names of the package at run time and reports those it
    # cannot find as absent; a change that drops or renames one of the
    # others would silently leave its span empty in every benchmark run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    owners = []
    for _, module, path, _ in tracer_module.TARGETS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        if owner is not None:
            owners.append((owner, attr, vars(owner).get(attr)))
    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert set(tracer.absent) <= {
            "immersedfem.study.immersed_quadrature", "immersedfem.study.assemble_stiffness",
            "immersedfem.study.apply_dirichlet", "immersedfem.study.cg_solve",
            "immersedfem.norms.split_cut_cell", "immersedfem.norms.RadialSolution.gradients"}
    # every name is put back as it was
    assert all(vars(owner).get(attr) is original for owner, attr, original in owners)
