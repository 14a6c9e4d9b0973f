"""groupcomm benchmark: one workload per run, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {datagen,train,eval} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S   # every workload, one table

With ``--trace 0`` the workload runs untraced and the last line reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs once
untraced and once traced (half the time each), then runs one small unit of
each other workload so that every declared span is exercised, and reports the
per-layer metrics plus the tracing overhead.  Lines before the last one carry
the run record, the per-unit costs, the workload's own named metrics and the
SHA-256 digests of its outputs.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread on every commit measured; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("datagen", "train", "eval")


def import_program():
    """Import groupcomm from this checkout's ``src`` and nowhere else."""
    package = ROOT / "src" / "groupcomm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found: {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import groupcomm

    if Path(groupcomm.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported groupcomm from {groupcomm.__file__}, not {package}")
    return groupcomm


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, queried from numpy's bundled library if present."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no") if sha else None
    except (OSError, subprocess.TimeoutExpired):
        sha = dirty = None
    return {"git_sha": sha, "git_dirty": None if dirty is None else bool(dirty)}


def run_record(args) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        **git_state(),
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_line(jobs, values: dict, kind: str) -> str:
    units = declared(kind)
    if set(values) != set(units):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json {kind}: {sorted(set(values) ^ set(units))}")
    failed = sum(j.failed for j in jobs)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(j.attempted for j in jobs),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
    )


def print_report(job, extra: dict) -> None:
    summary = job.summary()
    named = dict(extra)
    named["error_rate"] = (job.failed / job.attempted, "failed/attempted")
    named.update(summary["metrics"])
    for name, (value, unit) in named.items():
        print(f"metric {job.name}.{name} {value:.6g} {unit}")
    for name, (value, unit) in summary["costs"].items():
        print(f"cost {job.name}.{name} {value:.6g} {unit}")
    for name, digest in job.digests.items():
        print(f"sha256 {job.name}.{name} {digest}")


def set_up(job) -> None:
    """A fresh interpreter importing groupcomm (and numpy), then the workload's own set-up."""
    snippet = "import sys; sys.path.insert(0, sys.argv[1]); import groupcomm"
    subprocess.run([sys.executable, "-c", snippet, str(ROOT / "src")], check=True, timeout=120)
    job.setup()


def run_untraced(args, workloads, workdir: Path) -> str:
    setups = []
    for _ in range(SETUP_REPEATS):
        job = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups.append(job.timed(set_up, job)[2])
    job.run_for(args.seconds, min_units=getattr(job, "QUALITY_ROUNDS", 1))
    job.check()
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "episodes_per_s": job.rate(),
        "accuracy": job.summary()["accuracy"],
    }
    print_report(
        job,
        {
            "setup_s": (values["setup_s"], "s"),
            "peak_rss_mb": (values["peak_rss_mb"], "MB"),
            "unscaled_episodes_per_s": (statistics.median(job.raw_rates), "episodes/s"),
            "machine_speed": (statistics.median(job.speeds), "nominal=1"),
        },
    )
    return result_line([job], values, "end_to_end")


def run_traced(args, groupcomm, workloads, tracing, workdir: Path) -> str:
    jobs = [workloads.WORKLOADS[args.workload](args.seed, workdir)]
    jobs[0].setup()
    jobs[0].run_for(args.seconds / 2)
    tracer = tracing.Tracer()
    layers = {name: getattr(groupcomm, name) for name in ("densemath", "scenarios", "commgraph", "neuralnet", "simnet", "evalcli")}
    with tracer.installed(layers):
        traced = workloads.WORKLOADS[args.workload](args.seed, workdir)
        traced.setup()
        traced.run_for(args.seconds / 2)
        jobs.append(traced)
        for other in WORKLOAD_NAMES:
            if other != args.workload:
                small = workloads.WORKLOADS[other](args.seed, workdir, mini=True)
                small.setup()
                small.run_for(0)
                jobs.append(small)
    values = tracer.metrics(groupcomm.scenarios.CASES, groupcomm.evalcli.POLICIES, groupcomm.simnet.ledger_from_trace)
    values[tracing.OVERHEAD] = jobs[0].rate() / traced.rate()
    print(f"metric {args.workload}.tracing_overhead {values[tracing.OVERHEAD]:.4g} untraced/traced")
    print(f"spans {len(tracer.start)} units {tracer.units}")
    return result_line(jobs, values, "per_layer")


def run_all(args) -> int:
    """Run each workload in its own process, then print its metrics and costs as one table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        print(proc.stdout, end="")
        lines = proc.stdout.splitlines()
        status |= proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]
        rows += [ln.split(" ", 1)[1].split(" ", 2) for ln in lines if ln.startswith(("metric ", "cost "))]
    print("\n| workload.metric | value | unit |\n| --- | --- | --- |")
    for metric, value, unit in rows:
        print(f"| {metric} | {value} | {unit} |")
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload seed: every input derives from it")
    parser.add_argument("--seconds", type=float, required=True, help="time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    groupcomm = import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    print("record " + json.dumps(run_record(args)))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            line = run_traced(args, groupcomm, workloads, tracing, workdir)
        else:
            line = run_untraced(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
