"""Fresh-process side of the benchmark; ``run.py`` starts it.

``python3 perfbench/worker.py '<task json>'`` with ``src`` on PYTHONPATH runs
one task in this new interpreter and prints one JSON object as its last line:

* ``setup``: time from interpreter start-up to a built study input: importing
  the package, parsing the workload's flags and building ``StudyConfig``,
  ``SphericalInterface`` and ``reference_solution``;
* ``study``: makes ``repeats`` ``ifem-study`` calls (``immersedfem.cli.main``)
  with tracing off;
* ``trace``: makes ``repeats`` pairs (untraced call, traced call) and returns
  the per-layer metrics of each traced call.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def setup(task):
    import immersedfem
    from immersedfem import cli

    args = cli.build_parser().parse_args(task["flags"])
    config = immersedfem.StudyConfig(**{key: value for key, value in vars(args).items()
                                        if key != "config" and value is not None})
    interface = immersedfem.SphericalInterface(config.center, config.radius)
    immersedfem.reference_solution(interface)
    return {"setup_s": time.perf_counter() - START}


def _one_study(task):
    """One ifem-study call writing its CSV to a file; returns exit code,
    wall and CPU time, and the CSV text."""
    from immersedfem import cli

    out = task["csv_path"]
    if os.path.exists(out):
        os.remove(out)
    wall, cpu = time.perf_counter(), _cpu_s()
    try:
        code = cli.main(task["flags"] + ["--out", out])
    except Exception:  # the op failed; the run goes on and counts it
        traceback.print_exc()
        code = -1
    wall, cpu = time.perf_counter() - wall, _cpu_s() - cpu
    text = ""
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(out)
    return {"code": code, "study_s": wall, "study_cpu_s": cpu, "csv": text}


def study(task):
    return {"ops": [_one_study(task) for _ in range(task["repeats"])]}


def trace(task):
    from tracer import Tracer

    pairs = []
    for _ in range(task["repeats"]):
        plain = _one_study(task)
        tracer = Tracer()
        with tracer.installed():
            traced = _one_study(task)
        pair = {"plain": plain, "traced": traced, "absent": tracer.absent,
                "uncounted": sorted(tracer.uncounted)}
        if traced["code"] == 0:
            pair["metrics"] = tracer.metrics(traced["study_s"], plain["study_s"])
            pair["levels"] = tracer.levels()
        pairs.append(pair)
    return {"pairs": pairs}


def environment():
    """Library versions and the BLAS build and thread count of this process."""
    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = blas.get("openblas configuration") or blas.get("name")
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env.update(_openblas_runtime(numpy))
    return env


def _openblas_runtime(numpy):
    """Thread count and run-time core of the OpenBLAS that numpy loaded."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"blas_threads": threads(), "blas_runtime": config().decode()}
    return {"blas_threads": None, "blas_runtime": None}


def main():
    task = json.loads(sys.argv[1])
    result = {"setup": setup, "study": study, "trace": trace}[task["mode"]](task)
    if task["mode"] != "setup":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
