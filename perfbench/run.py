"""End-to-end and per-layer benchmark of the surplus-consensus CLI.

    python3 perfbench/run.py --workload simulate-n40 --seed 0 --seconds 40 --trace 0

Builds the workload's graph from --seed and writes it to an edge file, then
runs `python -m surplus_consensus.cli` from this tree's src/ as a child
process, one invocation at a time (a closed loop with one client), for
--seconds. The outputs of every invocation are checked after it,
outside its timing. With --trace 0 a set-up child (see SETUP_CODE) follows
each invocation, so set-up samples span the run as the invocations do. BLAS
runs single-threaded in this process and in every child, so a run needs one
core and does not measure the scheduler of a shared host.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
invocations with traced ones (perfbench/tracing.py) and reports per-layer
metrics, medians over the traced invocations. Metric names and units come
from BENCHMARK.json. The last line of stdout is the JSON result; the lines
before it give the environment and each metric with its sample count, and a
full record with the spans is written under .perfbench_work/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Before numpy is imported, so that this process and its children (which
# inherit the environment) start one BLAS thread each.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every child is killed once the whole run has taken this long, so the run
# ends within three minutes even if the program hangs.
HARD_LIMIT_S = 165.0

SETUP_CODE = """\
import sys
from surplus_consensus import cli
if not cli.graph_mod.is_strongly_connected(cli.load_graph(sys.argv[1])):
    sys.exit(3)
print(cli.__file__)
"""

SIM_TAU, SIM_T_FINAL = 0.1, 40.0
SIM_NSTEPS = int(round(SIM_T_FINAL / (SIM_TAU / 50.0)))  # the CLI's default dt = tau/50
SWEEP_EPS = 0.2 + 0.2 * np.arange(10)   # --eps-range 0.2:0.2:2.0
SWEEP_TAU = 0.02 * np.arange(20)        # --tau-range 0.0:0.02:0.38
NULL_TOLERANCE = 1e-9
VERIFY_CHECKS = ("oracle_agreement", "crossing_bisection", "conservation")


@dataclass(frozen=True)
class Workload:
    n: int
    extra: int
    args: tuple       # CLI arguments; "{graph}" and "{out}" are filled in
    reference: object  # graph -> data the check compares against
    check: object      # (reference, exit code, stdout, out dir) -> (attempted, failed)


def parse_summary(stdout):
    lines = stdout.strip().splitlines()
    return dict(f.split("=", 1) for f in lines[-1].split() if "=" in f) if lines else {}


def system_matrix(g, eps):
    """M(eps) built from the edge list, independently of the package."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i - 1, j - 1] = 1.0
    l_in = np.diag(a.sum(axis=1)) - a
    l_out = np.diag(a.sum(axis=0)) - a
    eye = np.eye(g.n)
    return np.block([[-l_in, eps * eye], [l_in, -l_out - eps * eye]])


def simulate_reference(g):
    # x0 as the CLI draws it for its default --seed 0
    return np.random.RandomState(0).uniform(0.0, 1.0, g.n)


def simulate_check(x0, code, stdout, out):
    if code != 0:
        return 1, 1
    summary = parse_summary(stdout)
    with open(out / "trajectory.csv", "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    ok = (summary.get("verdict") == "converged"
          and float(summary.get("max_drift", "inf")) <= 1e-9 * (1.0 + abs(x0.sum()))
          and rows == SIM_NSTEPS + 1)
    return 1, int(not ok)


def sweep_reference(g):
    """Rightmost root per cell: max over k in [-2, 2] of W_k(tau lambda)/tau."""
    from scipy.special import lambertw

    ref = np.empty((SWEEP_EPS.size, SWEEP_TAU.size))
    for a, eps in enumerate(SWEEP_EPS):
        lam = np.linalg.eigvals(system_matrix(g, eps))
        lam = lam[np.abs(lam) > NULL_TOLERANCE]
        for b, tau in enumerate(SWEEP_TAU):
            if tau == 0.0:
                ref[a, b] = lam.real.max()
            else:
                ref[a, b] = max(lambertw(tau * lam, k).real.max() for k in range(-2, 3)) / tau
    return ref


def sweep_check(ref, code, stdout, out):
    if code != 0:
        return ref.size, ref.size
    with open(out / "stability_map.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]
                if not line.startswith("#")]
    passed = 0
    for idx, row in enumerate(rows[:ref.size]):
        a, b = divmod(idx, SWEEP_TAU.size)
        eps, tau, value = (float(v) for v in row[:3])
        passed += bool(abs(eps - SWEEP_EPS[a]) <= 1e-9 and abs(tau - SWEEP_TAU[b]) <= 1e-9
                       and abs(value - ref[a, b]) <= 1e-8 * max(1.0, abs(ref[a, b])))
    return ref.size, ref.size - passed


def verify_check(_, code, stdout, out):
    if code != 0:
        return len(VERIFY_CHECKS), len(VERIFY_CHECKS)
    summary = parse_summary(stdout)
    return len(VERIFY_CHECKS), sum(summary.get(c) != "pass" for c in VERIFY_CHECKS)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "simulate-n40": Workload(
        40, 120, ("simulate", "--graph", "{graph}", "--eps", "1.0", "--tau", str(SIM_TAU),
                  "--t-final", str(SIM_T_FINAL), "--out", "{out}"),
        simulate_reference, simulate_check),
    "sweep-n200": Workload(
        200, 800, ("sweep", "--mode", "two_d", "--graph", "{graph}",
                   "--eps-range", "0.2:0.2:2.0", "--tau-range", "0.0:0.02:0.38",
                   "--out", "{out}"),
        sweep_reference, sweep_check),
    "verify-n24": Workload(
        24, 72, ("verify", "--graph", "{graph}"),
        lambda g: None, verify_check),
}


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


def run_child(argv, rundir, env, deadline):
    """Run one child process; wall time from start to exit, peak RSS from wait4."""
    out_path = rundir / "stdout.txt"
    with open(out_path, "wb") as out, open(rundir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text())


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(sc):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        blas = "unknown"
    backend = getattr(sc._integrator, "backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "package": sc.__file__,
        "integrator_backend": backend() if backend else "n/a",
        "commit": git_commit(),
    }


def in_src(path):
    return Path(path).resolve().is_relative_to((SRC / "surplus_consensus").resolve())


def refuse(message):
    print("perfbench: refusing to run: %s" % message, file=sys.stderr)
    return 3


def tail(values):
    """Highest of p99/p90 with at least ten samples beyond it, else None."""
    for q in (99, 90):
        if len(values) * (100 - q) >= 1000:
            return "p%d=%.6g" % (q, float(np.percentile(values, q)))
    return None


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_setup(graph_path, rundir, env, deadline):
    child = run_child([sys.executable, "-c", SETUP_CODE, str(graph_path)], rundir, env, deadline)
    if child.code != 0:
        raise RuntimeError("set-up child exited with %d" % child.code)
    return child


def measure(workload, reference, cli_args, out, rundir, env, seconds, trace, deadline,
            graph_path, setup):
    """Invoke the CLI for `seconds`, checking each invocation. With `trace`,
    alternate untraced and traced invocations; without, follow each
    invocation with a set-up child, appending its wall time to `setup`."""
    spans_path = rundir / "spans.json"
    runs, attempted, failed = [], 0, 0
    traced = False
    start = time.perf_counter()
    while True:
        if traced:
            prefix = [sys.executable, str(HERE / "tracing.py"), str(spans_path), "--"]
        else:
            prefix = [sys.executable, "-m", "surplus_consensus.cli"]
        child = run_child(prefix + cli_args, rundir, env, deadline)
        a, f = workload.check(reference, child.code, child.stdout, out)
        attempted, failed = attempted + a, failed + f
        record = {"traced": traced, "wall_s": child.wall_s, "rss_mb": child.rss_mb,
                  "code": child.code, "failed": f}
        if traced and spans_path.exists():
            with open(spans_path) as fh:
                record["spans"] = json.load(fh)
            spans_path.unlink()
        runs.append(record)
        shutil.rmtree(out, ignore_errors=True)
        if not trace:
            setup.append(run_setup(graph_path, rundir, env, deadline).wall_s)
        # Stop before an invocation of average length would overrun `seconds`.
        elapsed = time.perf_counter() - start
        kinds = {r["traced"] for r in runs}
        if (len(kinds) == 1 + trace
                and (elapsed * (1 + 1 / len(runs)) > seconds or time.monotonic() >= deadline)):
            return runs, attempted, failed
        traced = trace and not traced


def summarize(runs, setup, trace):
    """Metrics of one run and the sample count behind each."""
    walls = [r["wall_s"] for r in runs if not r["traced"]]
    if not trace:
        return ({"wall_s": statistics.median(walls),
                 "setup_s": statistics.median(setup),
                 "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs)},
                {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(walls)})
    from tracing import layer_metrics

    traced = [r for r in runs if r["traced"]]
    per_run = [layer_metrics(r["spans"]) for r in traced if "spans" in r]
    if not per_run:
        raise RuntimeError("no traced invocation wrote its spans")
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
    return metrics, {"traced": len(per_run), "untraced": len(walls)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    sys.path.insert(0, str(SRC))
    try:
        import surplus_consensus as sc
    except ImportError as exc:
        return refuse("cannot import surplus_consensus from %s: %s" % (SRC, exc))
    if not in_src(sc.__file__):
        return refuse("surplus_consensus imported from %s, not %s" % (sc.__file__, SRC))
    env_block = environment(sc)
    units = declared_metrics(args.trace)

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(dir=WORK, prefix="%s-%d-" % (args.workload, args.seed)))
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    try:
        g = sc.random_strongly_connected(workload.n, workload.extra, args.seed)
        graph_path = rundir / "graph.edges"
        sc.save_edge_list(g, str(graph_path))
        reference = workload.reference(g)

        # The first set-up child only checks the import: it also writes the
        # package's bytecode, which users pay once, not on every run.
        child = run_setup(graph_path, rundir, child_env, deadline)
        if not in_src(child.stdout.strip()):
            return refuse("the CLI child imported %s, not this tree's src/"
                          % child.stdout.strip())
        setup = []

        out = rundir / "out"
        cli_args = [a.format(graph=graph_path, out=out) for a in workload.args]
        runs, attempted, failed = measure(workload, reference, cli_args, out, rundir,
                                          child_env, args.seconds, args.trace, deadline,
                                          graph_path, setup)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    metrics, counts = summarize(runs, setup, args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(metrics), sorted(units)))

    print("env " + json.dumps(env_block, sort_keys=True))
    print("workload=%s seed=%d trace=%d samples=%s"
          % (args.workload, args.seed, args.trace, json.dumps(counts, sort_keys=True)))
    for name in sorted(metrics):
        extra = tail([r["wall_s"] for r in runs]) if name == "wall_s" else None
        print("  %-30s %.6g %s%s" % (name, metrics[name], units[name],
                                     " " + extra if extra else ""))
    print("  %-30s %.6g (%d failed of %d operations)"
          % ("failed_ratio", failed / attempted, failed, attempted))
    with open(WORK / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump({"env": env_block, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "setup_s": setup, "runs": runs,
                   "metrics": metrics, "attempted": attempted, "failed": failed}, fh)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
