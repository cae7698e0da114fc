"""Experiment runner CLI: analyze, simulate, sweep, verify.

Every command returns its `key=value` summary pairs and exit code, and writes
CSV/JSON artifacts to --out when requested; main prints the summary as one
line on stdout and maps each error to its exit code.
"""

import argparse
import csv
import json
import os
import shlex
import sys

import numpy as np

from . import delay as delay_mod
from . import graph as graph_mod
from . import sim as sim_mod
from . import system as system_mod
from .errors import (
    ConsensusError,
    GraphFormatError,
    InvalidConfig,
    InvalidParameter,
    NotStronglyConnected,
    require_non_negative,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_GRAPH = 2
EXIT_NOT_STRONGLY_CONNECTED = 3
EXIT_BAD_CONFIG = 4
EXIT_NUMERICAL_FAILURE = 5
EXIT_INTERNAL_ERROR = 6

# an exception's exit code is that of its first match: NotStronglyConnected
# comes before its base class PreconditionViolated, a ConsensusError (exit 5)
EXIT_CODES = (
    (GraphFormatError, EXIT_BAD_GRAPH),
    (NotStronglyConnected, EXIT_NOT_STRONGLY_CONNECTED),
    ((InvalidConfig, InvalidParameter), EXIT_BAD_CONFIG),
    (ConsensusError, EXIT_NUMERICAL_FAILURE),
    (Exception, EXIT_INTERNAL_ERROR),
)

# the most points of a range and cells of a sweep grid: a million cells take
# minutes even at n = 6, so more is a typo, and a tiny step would ask for gigabytes
MAX_GRID_POINTS = 1_000_000

ROOT_COLUMNS = ["eps", "tau", "re_lambda_r", "im_lambda_r", "source_index", "residual"]

# each sweep mode: the CSV it writes into --out, and the arguments it needs
# besides --graph and --out
SWEEP_MODES = {
    "eps": ("sweep_eps.csv", ("eps_range",)),
    "tau": ("sweep_tau.csv", ("eps", "tau_range")),
    "two_d": ("stability_map.csv", ("eps_range", "tau_range")),
    "tau_c": ("sweep_tau_c.csv", ("eps_range",)),
}


def parse_range(text):
    """Parse 'a:step:b' into an inclusive ascending grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameter("range %r is not of the form a:step:b" % text)
    try:
        a, step, b = (float(p) for p in parts)
    except ValueError:
        raise InvalidParameter("range %r has a non-numeric field" % text)
    if not np.isfinite([a, step, b]).all():
        raise InvalidParameter("range %r has a non-finite field" % text)
    if step <= 0 or b < a:
        raise InvalidParameter("range %r must be ascending with positive step" % text)
    # a float ratio, so a tiny step gives inf or a huge value, not an exception
    if (b - a) / step + 1 > MAX_GRID_POINTS:
        raise InvalidParameter("range %r has more than %d points" % (text, MAX_GRID_POINTS))
    count = int(round((b - a) / step))
    grid = a + step * np.arange(count + 1)
    return grid[grid <= b + step * 1e-9]


def parse_seed(text):
    """Parse a --seed value, an integer in [0, 2**32 - 1].

    The initial state x0 is np.random.RandomState(seed).uniform(0, 1, n) bit for
    bit, drawn by sim.seeded_x0 from the standard library's Mersenne Twister,
    so the CLI never imports numpy.random."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("seed %r is not an integer" % text)
    if not 0 <= seed <= sim_mod.MAX_SEED:
        raise argparse.ArgumentTypeError("seed must be in [0, %d], got %d"
                                         % (sim_mod.MAX_SEED, seed))
    return seed


def load_graph(path):
    """Load --graph; a file that cannot be read is bad graph input (exit 2)."""
    try:
        if path.endswith(".json"):
            return graph_mod.load_adjacency_json(path)
        return graph_mod.load_edge_list(path)
    except OSError as exc:
        raise GraphFormatError(str(exc)) from exc


def _make_out_dir(path):
    """Create the --out directory once the inputs have validated and before
    any work; a path that cannot be a directory is a usage error (exit 4)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidParameter("cannot create --out %r: %s" % (path, exc.strerror)) from exc


def _fmt(x):
    return "%.12g" % x


def cmd_analyze(args):
    g = load_graph(args.graph)
    graph_mod.require_strongly_connected(g)
    m = None if args.eps is None else system_mod.build_system(g, args.eps)
    if args.out:
        _make_out_dir(args.out)
    prof = graph_mod.degree_profile(g)
    spec0 = system_mod.spectrum(system_mod.build_system(g, 0.0))
    lam3 = spec0.nonnull[0]
    slope = system_mod.lambda2_slope(g)
    tilde = delay_mod.tau_tilde_bound(g)
    balanced = graph_mod.is_balanced(g)

    lines = [
        "nodes: %d" % g.n,
        "edges: %d" % len(g.edges),
        "balanced: %s" % balanced,
        "delta_bar: %d" % prof.delta_bar,
        "eigenvalues of M(0):",
    ]
    lines += ["  %s" % _fmt_complex(v) for v in spec0.eigenvalues]
    lines += [
        "null_count(M(0)): %d" % spec0.null_count,
        "lambda_3(0): %s" % _fmt_complex(lam3),
        "lambda2_slope: %s" % _fmt(slope),
        "tau_tilde_bound: %s" % _fmt(tilde),
    ]
    summary = [
        ("command", "analyze"),
        ("n", g.n),
        ("edges", len(g.edges)),
        ("balanced", str(balanced).lower()),
        ("delta_bar", prof.delta_bar),
        ("null_count_m0", spec0.null_count),
        ("lambda3_re", _fmt(lam3.real)),
        ("lambda2_slope", _fmt(slope)),
        ("tau_tilde", _fmt(tilde)),
    ]
    if m is not None:
        spec = system_mod.spectrum(m)
        margin = delay_mod.tau_critical(spec)
        lines.append("eigenvalues of M(%g):" % args.eps)
        lines += ["  %s" % _fmt_complex(v) for v in spec.eigenvalues]
        lines += [
            "tau_c(%g): %s" % (args.eps, _fmt(margin.tau_c)),
            "crossing_frequency: %s" % _fmt(margin.crossing_frequency),
        ]
        summary += [
            ("eps", _fmt(args.eps)),
            ("tau_c", _fmt(margin.tau_c)),
            ("omega", _fmt(margin.crossing_frequency)),
        ]
    report = "\n".join(lines) + "\n"
    print(report, file=sys.stderr)
    if args.out:
        with open(os.path.join(args.out, "analyze.txt"), "w") as fh:
            fh.write(report)
    return summary, EXIT_OK


def _fmt_complex(v):
    return "%.12g%+.12gj" % (v.real, v.imag)


def cmd_simulate(args):
    g = load_graph(args.graph)
    graph_mod.require_strongly_connected(g)
    cfg = sim_mod.SimConfig(tau=args.tau, x0=sim_mod.seeded_x0(args.seed, g.n),
                            dt=args.dt, t_final=args.t_final)
    m = system_mod.build_system(g, args.eps)
    # a config that does not validate exits 4 before --out exists
    x0, z0, dt, _, _ = cfg.resolved()
    csv_path = None
    if args.out:
        _make_out_dir(args.out)
        # simulate writes the rows as it integrates them
        csv_path = os.path.join(args.out, "trajectory.csv")
    traj = sim_mod.simulate(m, cfg, csv_path)
    conv = traj.convergence_time
    if args.out:
        doc = {"tau": args.tau, "dt": dt, "t_final": traj.t_final, "x0": x0.tolist(),
               "z0": z0.tolist(), "consensus_tolerance": sim_mod.CONSENSUS_TOLERANCE,
               "divergence_threshold": sim_mod.DIVERGENCE_THRESHOLD,
               "verdict": traj.verdict, "decision_time": traj.decision_time,
               "consensus_target": traj.target, "convergence_time": conv,
               "epsilon": args.eps, "graph": args.graph, "seed": args.seed}
        with open(os.path.join(args.out, "trajectory.json"), "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return [("command", "simulate"), ("eps", _fmt(args.eps)), ("tau", _fmt(args.tau)),
            ("t_final", _fmt(traj.t_final)), ("verdict", traj.verdict),
            ("target", _fmt(traj.target)),
            ("convergence_time", "none" if conv is None else _fmt(conv)),
            ("max_drift", _fmt(float(traj.conservation_drift.max()))),
            ("seed", args.seed)], EXIT_OK


def _write_csv(path, header, rows, comment=None):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + rows)
        if comment is not None:
            fh.write("# %s\n" % comment)


def cmd_sweep(args):
    csv_name, required = SWEEP_MODES[args.mode]
    missing = [name for name in ("out",) + required if getattr(args, name) is None]
    # a flag the mode does not read would be silently ignored
    unused = [name for name in ("eps", "eps_range", "tau_range")
              if name not in required and getattr(args, name) is not None]
    for problem, names in (("requires", missing), ("does not take", unused)):
        if names:
            raise InvalidParameter("mode=%s %s %s" % (args.mode, problem, ", ".join(
                "--" + name.replace("_", "-") for name in names)))
    # eps: the eps range x {0}; tau: {--eps} x the tau range
    eps_grid = [args.eps] if args.mode == "tau" else parse_range(args.eps_range)
    tau_grid = parse_range(args.tau_range) if "tau_range" in required else [0.0]
    if len(eps_grid) * len(tau_grid) > MAX_GRID_POINTS:
        raise InvalidParameter("the sweep grid has more than %d cells" % MAX_GRID_POINTS)
    g = load_graph(args.graph)
    graph_mod.require_strongly_connected(g)
    require_non_negative("epsilon", eps_grid)
    require_non_negative("tau", tau_grid)
    _make_out_dir(args.out)
    path = os.path.join(args.out, csv_name)
    summary = [("command", "sweep"), ("mode", args.mode)]

    if args.mode == "tau_c":
        records = delay_mod.sweep_tau_c(g, eps_grid)
        rows, finite, failures = [], [], []
        for eps, margin, err in records:
            if margin is None:
                failures.append((_fmt(eps), "", err))
                rows.append([_fmt(eps), "nan", "", ""])
            else:
                finite.append((margin.tau_c, eps))
                rows.append([_fmt(eps), "%.17g" % margin.tau_c,
                             str(margin.limiting_eigenvalue_index),
                             "%.17g" % margin.crossing_frequency])
        best = max(finite) if finite else (float("nan"), float("nan"))
        _write_csv(path, ["eps", "tau_c", "limiting_index", "omega"], rows,
                   "argmax eps=%s tau_c=%.17g" % (_fmt(best[1]), best[0]))
        summary += [("argmax_eps", _fmt(best[1])), ("max_tau_c", _fmt(best[0]))]
    else:
        smap = delay_mod.stability_map(g, eps_grid, tau_grid)
        failures = [(_fmt(smap.eps_grid[a]), _fmt(smap.tau_grid[b]), reason)
                    for a, b, reason in smap.failures]
        rows = []
        for (a, b), root in np.ndenumerate(smap.roots):
            src, res = smap.source_index[a, b], smap.residual[a, b]
            fields = ["nan", "", "", ""] if np.isnan(root.real) else [
                "%.17g" % root.real, "%.17g" % root.imag,
                "" if src < 0 else str(src), "" if np.isnan(res) else "%.3g" % res]
            rows.append([_fmt(smap.eps_grid[a]), _fmt(smap.tau_grid[b])] + fields)
        # the grids ascend, so ties go to the first cell in row order
        best_re, best_eps, best_tau = min(
            ((re, smap.eps_grid[a], smap.tau_grid[b])
             for (a, b), re in np.ndenumerate(smap.lambda_r_real) if not np.isnan(re)),
            default=(float("nan"),) * 3)
        _write_csv(path, ROOT_COLUMNS, rows, "argmin eps=%s tau=%s re_lambda_r=%.17g"
                   % (_fmt(best_eps), _fmt(best_tau), best_re))
        summary += [("argmin_eps", _fmt(best_eps)), ("argmin_tau", _fmt(best_tau)),
                    ("min_re_lambda_r", _fmt(best_re)),
                    ("max_root_residual", "%.3g" % smap.max_root_residual)]

    # failed cells, (eps, tau, reason); tau is empty in tau_c mode
    if failures:
        _write_csv(os.path.join(args.out, "failures.csv"), ["eps", "tau", "reason"], failures)
    return summary + [("csv", path), ("warnings", len(failures))], EXIT_OK


def cmd_verify(args):
    g = load_graph(args.graph)
    graph_mod.require_strongly_connected(g)
    checks = []

    eps_bar = system_mod.find_eps_bar(g, np.linspace(0.1, 2.0, 20))
    eps = 0.5 * eps_bar
    m = system_mod.build_system(g, eps)
    spec = system_mod.spectrum(m)
    margin = delay_mod.tau_critical(spec)

    # Lambert W route vs pseudospectral oracle on a few delays
    ok = True
    for frac in (0.3, 0.8, 1.4):
        tau = frac * margin.tau_c
        root = delay_mod.rightmost_root(spec, tau).root
        oracle = delay_mod.rightmost_root_oracle(spec, tau)
        if abs(root.real - oracle.real) > 1e-6 or abs(abs(root.imag) - abs(oracle.imag)) > 1e-6:
            ok = False
    checks.append(("oracle_agreement", ok))

    # crossing consistency: bisection zero matches the closed-form margin
    tau_star = delay_mod.bisect_tau_crossing(spec, 0.5 * margin.tau_c, 2.0 * margin.tau_c)
    checks.append(("crossing_bisection",
                   abs(tau_star - margin.tau_c) <= 1e-6 * margin.tau_c))

    # conservation audit on a short run
    x0 = sim_mod.seeded_x0(args.seed, g.n)
    tau = min(0.5 * margin.tau_c, 0.2)
    cfg = sim_mod.SimConfig(tau=tau, x0=x0, t_final=max(5.0, 4 * tau))
    traj = sim_mod.simulate(m, cfg)
    bound = 1e-6 * (1.0 + abs(x0.sum()))
    checks.append(("conservation", float(traj.conservation_drift.max()) <= bound))

    summary = [("command", "verify"), ("eps", _fmt(eps)), ("tau_c", _fmt(margin.tau_c)),
               ("seed", args.seed)] + [(name, "pass" if ok else "FAIL") for name, ok in checks]
    failed = [name for name, ok in checks if not ok]
    if failed:
        print("failed checks: %s" % ", ".join(failed), file=sys.stderr)
        return summary, EXIT_CHECK_FAILED
    return summary, EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surplus-consensus",
        description="Surplus-based average consensus on digraphs under delay: "
                    "spectra, delay margins, rightmost roots, simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False, seed=False):
        p.add_argument("--graph", required=True, help="edge-list or .json adjacency file")
        if out:
            p.add_argument("--out", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=parse_seed, default=0, help="initial-state seed")

    p = sub.add_parser("analyze", help="spectral and delay-margin report")
    common(p, out=True)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="integrate the delayed dynamics")
    common(p, out=True, seed=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-final", type=float, default=40.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="parameter sweeps over eps and tau")
    common(p, out=True)
    p.add_argument("--mode", required=True, choices=list(SWEEP_MODES))
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps-range", default=None, help="a:step:b")
    p.add_argument("--tau-range", default=None, help="a:step:b")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="cross-checks: oracle, bisection, conservation")
    common(p, seed=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return EXIT_BAD_CONFIG if exc.code == 2 else exc.code
    try:
        summary, code = args.func(args)
        # shell-quoted, so that shlex.split gives back an --out path with a space;
        # inside the try, so a summary that cannot be written exits 6
        print(" ".join("%s=%s" % (k, shlex.quote(str(v))) for k, v in summary))
        return code
    except Exception as exc:
        code = next(code for types, code in EXIT_CODES if isinstance(exc, types))
        prefix = "unexpected %s: " % type(exc).__name__ if code == EXIT_INTERNAL_ERROR else ""
        print("error: %s%s" % (prefix, exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
