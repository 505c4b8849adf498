"""Benchmark for ruleval: closed-loop workloads, timed from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload evaluate --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, one table
    python3 perfbench/run.py --workload all --smoke       # tiny inputs, checks metric names

A run measures set-up (``import ruleval.cli`` in fresh interpreters), then
repeats passes of the workload in-process until ``--seconds`` have elapsed
and checks the outputs of the passes.  Times are reported at reference
host speed (see ``SpeedProbe``); the record keeps the wall times.  With
``--trace 1`` it adds one traced cycle of passes with every ruleval layer
wrapped (see ``tracing.py``) and reports per-layer metrics instead of
end-to-end ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (output checks) and
``metrics``; the line before it is a JSON record of the environment, the
input sizes, every pass's stage times and every check.

The program is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  BLAS thread pools are pinned to one thread so that
``RULEVAL_PARALLEL`` alone sets the parallelism.
"""

import os

# Before NumPy loads: one BLAS thread, in this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
MODULES = ("cli", "corpus", "estimators", "experiments", "figures",
           "simulator", "streams", "tableio")
SETUP_IMPORTS = 3  # fresh-interpreter imports timed per run; the median is reported
MIN_PASSES = 3  # passes per run, and at least one cycle, even past --seconds

# name -> (unit, better) of the metrics a run with --trace 0 reports.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_IMPORT_PROBE = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.stats
t2 = time.perf_counter()
import ruleval.cli
t3 = time.perf_counter()
print(json.dumps({"cli": t3 - t0, "scipy_stats": t2 - t1}))
"""


class SpeedProbe:
    """Times a fixed reference computation to read the host's current speed.

    The computation mixes what the workloads spend their time on: NumPy
    arithmetic on an 8 MB array and a pure-Python loop.  On a shared
    machine both slow down together when other tenants load the host, so
    ``REF_S / probe()`` is the host's speed relative to an idle host.
    """

    REF_S = 0.018  # the probe's fastest wall time on the 2-vCPU host the bounds were set on

    def __init__(self) -> None:
        import numpy

        self.array = numpy.random.default_rng(0).standard_normal((25_600, 2, 10, 2))
        self.transform = numpy.array([[1.0, 0.0], [0.3, 0.9]])
        self()  # first touch of the memory; not a reading

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            (self.array @ self.transform).sum()
            sum(i * i for i in range(20_000))
        return time.perf_counter() - t0


def child_env(parallel: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["RULEVAL_PARALLEL"] = str(parallel)
    return env


def measure_setup(env: dict, probe: SpeedProbe) -> list[dict]:
    """Wall times of ``import ruleval.cli`` in fresh interpreters, with probes.

    The median over imports also drops the one slow first import of a
    fresh checkout, which compiles the bytecode caches.
    """
    cmd = [sys.executable, "-c", "import ruleval.cli"]
    imports = []
    for _ in range(SETUP_IMPORTS):
        before = probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        wall_s = time.perf_counter() - t0
        imports.append({"wall_s": wall_s, "probe_s": (before + probe()) / 2})
    return imports


def at_reference_speed(timed: list[dict]) -> float:
    """Median of wall times rescaled to the probe's reference speed.

    Each wall time is multiplied by ``REF_S`` over the probe readings taken
    just before and after it.  Other tenants of the host slow the program
    and the probe alike, for stretches of seconds to minutes, so the
    rescaled time stays put while the raw one drifts by up to ~1.6x.
    """
    return statistics.median(t["wall_s"] * SpeedProbe.REF_S / t["probe_s"] for t in timed)


def import_breakdown(env: dict) -> dict[str, float]:
    """Import times inside one fresh interpreter: all of ruleval.cli, and scipy.stats.

    SciPy loads ``scipy.stats`` lazily through ``scipy.__getattr__``, for
    which ``-X importtime`` prints no entry, so both are timed directly.
    """
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         check=True, capture_output=True, text=True)
    probe = json.loads(out.stdout)
    return {"cli.import_s": probe["cli"], "cli.import_scipy_stats_s": probe["scipy_stats"]}


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        blas_info = deps.get("blas", {})
        return f"{blas_info.get('name', '?')} {blas_info.get('version', '?')}"

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def cache(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True)
            return int(out.stdout.strip())
        except (OSError, ValueError):
            return None

    def git_commit():
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            return None
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        return out.stdout.strip() or None

    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ruleval", "*.py"))):
        with open(path, "rb") as fh:
            source.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l2_cache_bytes": cache("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": cache("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def run_workload(args) -> int:
    workload_cls = WORKLOADS[args.workload]
    os.environ["RULEVAL_PARALLEL"] = str(workload_cls.parallel)
    env = child_env(workload_cls.parallel)
    probe = SpeedProbe()
    imports = measure_setup(env, probe)
    setup_s = at_reference_speed(imports)
    breakdown = import_breakdown(env) if args.trace else {}

    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"ruleval.{name}") for name in MODULES}
    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    workload = workload_cls(args.seed, work, args.smoke, mods)

    passes, digests = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        before = probe()
        t0 = time.perf_counter()
        stages = workload.run_pass(mods)
        wall_s = time.perf_counter() - t0
        passes.append({"wall_s": wall_s, "probe_s": (before + probe()) / 2, **stages})
        digests.append(workload.digest())
        if (time.perf_counter() >= deadline
                and len(passes) >= max(MIN_PASSES, workload.cycle)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s = at_reference_speed(passes)
    median_pass = sorted(passes, key=lambda p: p["wall_s"])[len(passes) // 2]

    if args.trace:
        # One traced cycle, so counts cover every input of the workload.
        tracer = Tracer()
        tracer.install(mods)
        try:
            for _ in range(workload.cycle):
                with tracer.span("bench.pass"):
                    workload.run_pass(mods)
                digests.append(workload.digest())
        finally:
            tracer.restore()
        tracer.write(os.path.join(WORK, f"trace-{args.workload}.jsonl"))
        traced_s = tracer.total["bench.pass"] / workload.cycle
        metrics = {**tracer.metrics(), **breakdown,
                   "trace.overhead_s": traced_s - median_pass["wall_s"]}
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_mb": peak_rss_mb}
        units = {name: unit for name, (unit, _) in END_TO_END.items()}

    checks = workload.check()
    checks.append((
        "repeated passes give identical outputs",
        all(len(set(digests[i::workload.cycle])) == 1 for i in range(workload.cycle)),
    ))
    failed = sum(not ok for _, ok in checks)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "parallel": workload_cls.parallel,
        "inputs": workload.inputs(),
        "imports": imports,
        "passes": passes,
        "summary": {
            "setup_s": setup_s,
            "setup_wall_s": statistics.median(t["wall_s"] for t in imports),
            "pass_s": pass_s,
            "pass_wall_s": median_pass["wall_s"],
            "peak_rss_mb": peak_rss_mb,
            **workload.summary(median_pass),
            "fail_ratio": failed / len(checks),
        },
        "checks": [{"check": name, "passed": ok} for name, ok in checks],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


SUMMARY_UNITS = {
    "setup_s": "s", "setup_wall_s": "s", "pass_s": "s", "pass_wall_s": "s",
    "export_s": "s", "evaluate_s": "s",
    "mc_exps_per_s": "experiments/s", "loo_s": "s", "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}


def run_all(args) -> int:
    """Run every workload in its own process and print one table.

    With ``--smoke`` the inputs are tiny, each workload runs traced and
    untraced, and the run fails unless every metric in ``BENCHMARK.json``
    is reported with its unit.
    """
    expected = None
    if args.smoke:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
    problems = []
    print(f"{'workload':<14} {'metric':<28} {'value':>14}  unit")
    for name in WORKLOADS:
        for trace in ((0, 1) if args.smoke else (args.trace,)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {out.returncode}\n{out.stderr}")
                continue
            lines = out.stdout.strip().splitlines()
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            if expected is not None:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{name} trace={trace}: metrics {sorted(got)} "
                                    f"differ from BENCHMARK.json")
            if trace == args.trace:
                for metric, value in record["summary"].items():
                    unit = SUMMARY_UNITS[metric.rsplit(".", 1)[-1]]
                    print(f"{name:<14} {metric:<28} {value:>14.6g}  {unit}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ruleval", "cli.py")):
        print(f"error: no ruleval sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
