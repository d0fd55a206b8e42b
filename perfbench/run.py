"""Convergence-study benchmark for immersedfem.

    python3 perfbench/run.py --workload study2d --seed 0 --seconds 20 --trace 0

One operation is one ``ifem-study`` call (``immersedfem.cli.main``) with the
workload's flags, writing its CSV to a file under ``.bench_build/``. Every
run takes place in fresh interpreters started from this checkout's ``src``:

* ``--trace 0`` times ``setup_s`` in SETUP_PROBES new interpreters, then one
  worker repeats the operation and reports the end-to-end metrics (medians
  over its operations);
* ``--trace 1`` has one worker repeat the pair (untraced operation, traced
  operation) and reports the per-layer metrics of perfbench/tracer.py.

The number of repetitions fills ``--seconds`` at the workload's nominal
operation time, at least one; it does not depend on how fast the host runs,
so a slow spell changes the timings but not how many operations they
are the median of.

Every operation is checked (exit code, finite errors, byte-identical CSV
across the run's repetitions, observed orders within the acceptance bands)
and a failed check counts the operation as failed. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--workload all`` runs the three study workloads one after another, and
``--self-test`` runs the whole pipeline on a tiny study in a few seconds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

# Every workload is one default study (six alphas, radius 0.2) whose centre
# comes from the seed; see README.md for why each was chosen.
# name -> (flags, nominal seconds of one operation on a 2-core host)
WORKLOADS = {
    # Q1, n_c = 8..512: Jacobi-CG dominates the finest level; largest memory
    "study2d": (["--dim", "2", "--max-exp", "9"], 20.0),
    # Q1, n_c = 4..16: cut-cell tabulation, quadrature and surface load dominate
    "study3d": (["--dim", "3", "--max-exp", "4"], 10.0),
    # Q2, n_c = 8..256: the same layers at degree 2, CG-heavy
    "study2d-q2": (["--dim", "2", "--degree", "2"], 25.0),
}
# self-test only: the whole pipeline in seconds; too coarse for the order bands
TINY = (["--dim", "2", "--max-exp", "4"], 0.2)

# Acceptance bands on the mean of the last two observed orders:
# dim -> ((alpha, L2 band, H1 band or None), ...)
BANDS = {
    2: ((0.0, (1.35, 1.65), (0.35, 0.65)),
        (0.49, (1.8, math.inf), (0.8, math.inf))),
    3: ((0.0, (1.25, 1.75), (0.25, 0.75)),
        (0.49, (1.7, math.inf), None)),
}

# name -> (unit, better); every untraced run reports all of them.
END_TO_END = {
    "study_s": ("s", "lower"),
    "study_cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_frac": ("1", "higher"),
}

SETUP_PROBES = 9
RUN_LIMIT_S = 170.0
CENTER = 0.3
JITTER = 0.02


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def dim_of(flags):
    return int(flags[flags.index("--dim") + 1])


def flags_for(workload_flags, seed):
    """Workload flags plus the seed's centre: seed 0 keeps the program's
    default centre (0.3, ...); any other seed moves it uniformly within
    +-JITTER per axis."""
    if seed == 0:
        return list(workload_flags)
    rng = random.Random(seed)
    center = [CENTER + rng.uniform(-JITTER, JITTER) for _ in range(dim_of(workload_flags))]
    return list(workload_flags) + ["--center", ",".join(repr(c) for c in center)]


def start_worker(task, deadline):
    """Run perfbench/worker.py in a new interpreter; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(task)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker ran longer than {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{task['mode']} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_op(op, reference_csv, bands):
    """Problems of one operation; an empty list means it passed."""
    if op["code"] != 0:
        return [f"ifem-study exited with code {op['code']}"]
    problems = []
    if reference_csv is not None and op["csv"] != reference_csv:
        problems.append("CSV differs from the run's first repetition")
    try:
        rows = list(csv.DictReader(io.StringIO(op["csv"])))
        errors = [float(r[k]) for r in rows for k in ("err_L2_alpha", "err_H1semi_alpha")]
    except (KeyError, ValueError, TypeError):
        return problems + ["CSV cannot be parsed"]
    if not rows or not all(math.isfinite(e) for e in errors):
        problems.append("non-finite or missing errors")
    for alpha, *norm_bands in bands:
        level_rows = sorted((r for r in rows if float(r["alpha"]) == alpha),
                            key=lambda r: int(r["n_cells_per_axis"]))
        for column, band in zip(("eoc_L2", "eoc_H1"), norm_bands):
            if band is None:
                continue
            rates = [float(r[column]) for r in level_rows if r[column]]
            if len(rates) < 2:
                problems.append(f"fewer than two {column} values at alpha={alpha}")
                continue
            rate = 0.5 * (rates[-1] + rates[-2])
            if not band[0] <= rate <= band[1]:
                problems.append(f"{column} at alpha={alpha} is {rate:.3f}, "
                                f"outside [{band[0]}, {band[1]}]")
    return problems


def run_untraced(flags, repeats, bands, csv_path, deadline):
    setup = []
    for probe in range(SETUP_PROBES + 1):
        result = start_worker({"mode": "setup", "flags": flags}, deadline)
        if probe:  # the first probe warms the bytecode and file caches
            setup.append(result["setup_s"])
    result = start_worker({"mode": "study", "flags": flags, "repeats": repeats,
                           "csv_path": str(csv_path)}, deadline)
    ops = result["ops"]
    failures = [check_op(op, ops[0]["csv"] if i else None, bands) for i, op in enumerate(ops)]
    failed = sum(1 for f in failures if f)
    metrics = {
        "study_s": statistics.median(op["study_s"] for op in ops),
        "study_cpu_s": statistics.median(op["study_cpu_s"] for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_frac": 1.0 - failed / len(ops),
    }
    report = {"ops": len(ops), "failed": failed, "failures": [f for f in failures if f],
              "study_s_all": [op["study_s"] for op in ops], "setup_s_all": setup,
              "env": result["env"]}
    return len(ops), failed, metrics, report


def run_traced(flags, repeats, bands, csv_path, deadline):
    result = start_worker({"mode": "trace", "flags": flags, "repeats": repeats,
                           "csv_path": str(csv_path)}, deadline)
    attempted = failed = 0
    failures, per_pair = [], []
    for pair in result["pairs"]:
        plain, traced = pair["plain"], pair["traced"]
        problems = {"untraced": check_op(plain, None, bands),
                    "traced": check_op(traced, plain["csv"], bands)}
        if "metrics" in pair:
            accounted = pair["metrics"]["trace.accounted_frac"]
            # self times of all spans must cover the traced call's wall time
            if not 0.95 <= accounted <= 1.0 + 1e-9:
                problems["traced"].append(f"spans account for {accounted:.3f} of the wall time")
            per_pair.append(pair["metrics"])
        attempted += 2
        failed += sum(1 for p in problems.values() if p)
        failures += [f"{k}: {p}" for k, p in problems.items() if p]
    metrics = {name: statistics.median(m[name] for m in per_pair) if per_pair else 0.0
               for name in LAYER_METRICS}
    last = result["pairs"][-1]
    report = {"ops": attempted, "failed": failed, "failures": failures,
              "absent": last["absent"], "uncounted": last["uncounted"],
              "levels": last.get("levels", []), "env": result["env"]}
    return attempted, failed, metrics, report


def environment(worker_env):
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu": _cpu_model(), **worker_env, "git_commit": _git_commit(),
           "src_sha256": _tree_hash(ROOT / "src")}
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tree_hash(path):
    digest = hashlib.sha256()
    for file in sorted(path.rglob("*.py")):
        digest.update(file.relative_to(path).as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def run_workload(name, workload, seed, seconds, traced, bands, deadline):
    """One run of one workload; prints its summary and returns
    (attempted, failed, metrics, report)."""
    flags, nominal_s = workload
    run_flags = flags_for(flags, seed)
    repeats = max(1, round(seconds / (nominal_s * (2 if traced else 1))))
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    csv_path = work / f"{name}-seed{seed}-{os.getpid()}.csv"
    runner = run_traced if traced else run_untraced
    attempted, failed, metrics, report = runner(run_flags, repeats, bands, csv_path, deadline)
    units = LAYER_METRICS if traced else END_TO_END
    print(f"== {name}  seed {seed}  trace {int(traced)}  repeats {repeats}  "
          f"flags {' '.join(run_flags)}")
    for metric, value in metrics.items():
        print(f"  {metric:<30} {value:.6g} {units[metric][0]}")
    print(f"  {'failed_frac':<30} {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} operations failed)")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    if traced:
        print(f"  absent names: {report['absent'] or 'none'}; "
              f"uncounted spans: {report['uncounted'] or 'none'}")
        print("  per level (inclusive s): n_c wall mesh space surf stiff iface dirichlet cg(iters) errors")
        for row in report["levels"]:
            print("   {n_c:>5} {wall_s:8.3f} {m:7.3f} {s:7.3f} {g:7.3f} {a:7.3f} {i:7.3f} {d:7.3f} "
                  "{c:8.3f}({it}) {e:8.3f}".format(
                      n_c=row["n_c"], wall_s=row["wall_s"] or 0.0, m=row["mesh.build"],
                      s=row["space.init"], g=row["geometry.surface_quad"],
                      a=row["assembly.stiffness"], i=row["assembly.iface_load"],
                      d=row["assembly.dirichlet"], c=row["solver.cg"], it=row["cg_iters"],
                      e=row["norms.errors"]))
    print("  env " + json.dumps(environment(report.pop("env"))))
    print("  detail " + json.dumps(report))
    return attempted, failed, metrics, report


def self_test(deadline):
    """Runs the tiny study untraced and traced and checks the harness itself."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    if list(END_TO_END) != [m["name"] for m in spec["end_to_end"]]:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if list(LAYER_METRICS) != [m["name"] for m in spec["per_layer"]]:
        problems.append("BENCHMARK.json per_layer differs from LAYER_METRICS")
    for traced in (False, True):
        attempted, failed, metrics, report = run_workload("tiny", TINY, 1, 0.0, traced, (),
                                                          deadline)
        if failed or attempted < (2 if traced else 1):
            problems.append(f"trace {int(traced)}: {failed} of {attempted} operations failed")
        if traced and report["absent"]:
            problems.append(f"names absent from the package: {report['absent']}")
        if not all(isinstance(v, float) and math.isfinite(v) for v in metrics.values()):
            problems.append(f"trace {int(traced)}: non-finite metric")
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer
    tracer = Tracer()
    tracer._wrap("x", "immersedfem.norms", "no_such_function", None)
    tracer._wrap("x", "immersedfem.no_such_module", "f", None)
    tracer._wrap("x", "immersedfem.space", "FeSpace.no_such_method", None)
    if len(tracer.absent) != 3 or tracer._restore:
        problems.append("a missing name was not reported as absent")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="study2d", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", dest="self_test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S * (3 if args.workload == "all" else 1)
    if not (ROOT / "src" / "immersedfem" / "__init__.py").is_file():
        print(f"error: no immersedfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return 0 if self_test(deadline) else 1
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        for name in names:
            a, f, m, _ = run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace), BANDS[dim_of(WORKLOADS[name][0])],
                                      deadline)
            attempted, failed = attempted + a, failed + f
            prefix = f"{name}." if len(names) > 1 else ""
            units = LAYER_METRICS if args.trace else END_TO_END
            metrics.update({prefix + k: {"value": v, "unit": units[k][0]} for k, v in m.items()})
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
