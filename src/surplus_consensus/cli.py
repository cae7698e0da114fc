"""Experiment runner CLI: analyze, simulate, sweep, verify.

Every command prints a single machine-parsable `key=value ...` summary line on
stdout and writes CSV/JSON artifacts to --out when requested.
"""

import argparse
import csv
import os
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
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_GRAPH = 2
EXIT_NOT_STRONGLY_CONNECTED = 3
EXIT_BAD_CONFIG = 4
EXIT_NUMERICAL_FAILURE = 5
EXIT_INTERNAL_ERROR = 6

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
    if path.endswith(".json"):
        return graph_mod.load_adjacency_json(path)
    return graph_mod.load_edge_list(path)


def _summary(pairs):
    print(" ".join("%s=%s" % (k, v) for k, v in pairs))


def _fmt(x):
    return "%.12g" % x


def cmd_analyze(args):
    g = load_graph(args.graph)
    graph_mod.require_strongly_connected(g)
    prof = graph_mod.degree_profile(g)
    spec0 = system_mod.spectrum(system_mod.build_system(g, 0.0))
    lam3 = spec0.rightmost_nonnull
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
    if args.eps is not None:
        spec = system_mod.spectrum(system_mod.build_system(g, args.eps))
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
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "analyze.txt"), "w") as fh:
            fh.write(report)
    _summary(summary)
    return EXIT_OK


def _fmt_complex(v):
    return "%.12g%+.12gj" % (v.real, v.imag)


def cmd_simulate(args):
    g = load_graph(args.graph)
    graph_mod.require_strongly_connected(g)
    x0 = sim_mod.seeded_x0(args.seed, g.n)
    cfg = sim_mod.SimConfig(tau=args.tau, x0=x0, dt=args.dt, t_final=args.t_final)
    traj = sim_mod.simulate(system_mod.build_system(g, args.eps), cfg)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        sim_mod.write_trajectory_csv(traj, os.path.join(args.out, "trajectory.csv"))
        sim_mod.write_metadata(traj, cfg, os.path.join(args.out, "trajectory.json"),
                               {"epsilon": args.eps, "graph": args.graph, "seed": args.seed})
    conv = traj.convergence_time
    _summary([
        ("command", "simulate"),
        ("eps", _fmt(args.eps)),
        ("tau", _fmt(args.tau)),
        ("t_final", _fmt(traj.t_final)),
        ("verdict", traj.verdict),
        ("target", _fmt(traj.target)),
        ("convergence_time", "none" if conv is None else _fmt(conv)),
        ("max_drift", _fmt(float(traj.conservation_drift.max()))),
        ("seed", args.seed),
    ])
    return EXIT_OK


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
    path = os.path.join(args.out, csv_name)
    summary = [("command", "sweep"), ("mode", args.mode)]

    # the library rejects a negative eps or tau (exit 4) before --out exists
    if args.mode == "tau_c":
        records = delay_mod.sweep_tau_c(g, eps_grid)
        os.makedirs(args.out, exist_ok=True)
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
        os.makedirs(args.out, exist_ok=True)
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
    summary += [("csv", path), ("warnings", len(failures))]
    _summary(summary)
    return EXIT_OK


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
        oracle = delay_mod.rightmost_root_oracle(spec, tau, 30)
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

    failed = [name for name, ok in checks if not ok]
    _summary([("command", "verify"), ("eps", _fmt(eps)),
              ("tau_c", _fmt(margin.tau_c)), ("seed", args.seed)]
             + [(name, "pass" if ok else "FAIL") for name, ok in checks])
    if failed:
        print("failed checks: %s" % ", ".join(failed), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


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
        return args.func(args)
    except (GraphFormatError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_GRAPH
    except (InvalidConfig, InvalidParameter) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NotStronglyConnected as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NOT_STRONGLY_CONNECTED
    except ConsensusError as exc:
        # NumericalFailure, another PreconditionViolated, NoAdmissibleEpsilon
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except Exception as exc:
        print("error: unexpected %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
