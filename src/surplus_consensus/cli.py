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
    NumericalFailure,
    PreconditionViolated,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_GRAPH = 2
EXIT_NOT_STRONGLY_CONNECTED = 3
EXIT_BAD_CONFIG = 4
EXIT_NUMERICAL_FAILURE = 5
EXIT_INTERNAL_ERROR = 6

ROOT_COLUMNS = ["eps", "tau", "re_lambda_r", "im_lambda_r", "source_index", "residual"]

# what one cell of an eps or tau sweep may raise; the sweep records it and goes on
CELL_ERRORS = (NumericalFailure, PreconditionViolated)

# arguments each sweep mode needs besides --graph and --out
SWEEP_REQUIRES = {
    "eps": ("eps_range",),
    "tau": ("eps", "tau_range"),
    "two_d": ("eps_range", "tau_range"),
    "tau_c": ("eps_range",),
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
    if step <= 0 or b < a:
        raise InvalidParameter("range %r must be ascending with positive step" % text)
    count = int(round((b - a) / step))
    grid = a + step * np.arange(count + 1)
    return grid[grid <= b + step * 1e-9]


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
    if not graph_mod.is_strongly_connected(g):
        print("error: graph is not strongly connected", file=sys.stderr)
        return EXIT_NOT_STRONGLY_CONNECTED
    prof = graph_mod.degree_profile(g)
    spec0 = system_mod.spectrum(system_mod.build_system(g, 0.0))
    lam3 = spec0.rightmost_nonnull
    slope = system_mod.lambda2_slope(g)
    tilde = delay_mod.tau_tilde_bound(g)

    lines = [
        "nodes: %d" % g.n,
        "edges: %d" % len(g.edges),
        "balanced: %s" % graph_mod.is_balanced(g),
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
        ("balanced", str(graph_mod.is_balanced(g)).lower()),
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
    if not graph_mod.is_strongly_connected(g):
        print("error: graph is not strongly connected", file=sys.stderr)
        return EXIT_NOT_STRONGLY_CONNECTED
    rng = np.random.RandomState(args.seed)
    x0 = rng.uniform(0.0, 1.0, g.n)
    cfg = sim_mod.SimConfig(epsilon=args.eps, tau=args.tau, x0=x0,
                            dt=args.dt, t_final=args.t_final)
    sysm = system_mod.build_system(g, args.eps)
    traj = sim_mod.simulate(sysm, cfg)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        sim_mod.write_trajectory_csv(traj, os.path.join(args.out, "trajectory.csv"))
        sim_mod.write_metadata(traj, cfg, os.path.join(args.out, "trajectory.json"),
                               seed=args.seed, extra={"graph": args.graph})
    conv = sim_mod.convergence_time(traj, cfg.consensus_tolerance)
    _summary([
        ("command", "simulate"),
        ("eps", _fmt(args.eps)),
        ("tau", _fmt(args.tau)),
        ("verdict", traj.verdict),
        ("target", _fmt(traj.target)),
        ("convergence_time", "none" if conv is None else _fmt(conv)),
        ("max_drift", _fmt(float(traj.conservation_drift.max()))),
        ("seed", args.seed),
    ])
    return EXIT_OK


def _write_csv(path, header, rows, summary_comment):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
        fh.write("# %s\n" % summary_comment)


def cmd_sweep(args):
    missing = [name for name in ("out",) + SWEEP_REQUIRES[args.mode]
               if getattr(args, name) is None]
    if missing:
        print("error: mode=%s requires %s" % (args.mode, ", ".join(
            "--" + name.replace("_", "-") for name in missing)), file=sys.stderr)
        return EXIT_BAD_CONFIG
    g = load_graph(args.graph)
    if not graph_mod.is_strongly_connected(g):
        print("error: graph is not strongly connected", file=sys.stderr)
        return EXIT_NOT_STRONGLY_CONNECTED
    os.makedirs(args.out, exist_ok=True)
    # failed cells, (eps, tau, reason); tau is empty when a whole eps failed
    failures = []
    summary = [("command", "sweep"), ("mode", args.mode)]

    if args.mode == "eps":
        grid = parse_range(args.eps_range)
        rows, finite = [], []
        for eps in grid:
            try:
                lam = system_mod.spectrum(system_mod.build_system(g, eps)).rightmost_nonnull
            except CELL_ERRORS as exc:
                failures.append((_fmt(eps), "0", str(exc)))
                rows.append([_fmt(eps), "0", "nan", "", "", ""])
                continue
            finite.append((lam.real, eps))
            rows.append([_fmt(eps), "0", "%.17g" % lam.real, "%.17g" % lam.imag, "", ""])
        best = min(finite) if finite else (float("nan"), float("nan"))
        path = os.path.join(args.out, "sweep_eps.csv")
        _write_csv(path, ROOT_COLUMNS, rows,
                   "argmin eps=%s re_lambda_r=%.17g" % (_fmt(best[1]), best[0]))
        summary += [("argmin_eps", _fmt(best[1])),
                    ("min_re_lambda_r", _fmt(best[0])), ("csv", path)]

    elif args.mode == "tau":
        grid = parse_range(args.tau_range)
        spec = system_mod.spectrum(system_mod.build_system(g, args.eps))
        rows, finite, residuals = [], [], []
        for tau in grid:
            try:
                if tau == 0.0:
                    lam, src, res = spec.rightmost_nonnull, "", ""
                else:
                    root = delay_mod.rightmost_root(spec, tau)
                    lam, src = root.root, str(root.source_eigenvalue_index)
                    res = "%.3g" % root.residual
                    residuals.append(root.residual)
            except CELL_ERRORS as exc:
                failures.append((_fmt(args.eps), _fmt(tau), str(exc)))
                rows.append([_fmt(args.eps), _fmt(tau), "nan", "", "", ""])
                continue
            finite.append((lam.real, tau))
            rows.append([_fmt(args.eps), _fmt(tau), "%.17g" % lam.real,
                         "%.17g" % lam.imag, src, res])
        best = min(finite) if finite else (float("nan"), float("nan"))
        path = os.path.join(args.out, "sweep_tau.csv")
        _write_csv(path, ROOT_COLUMNS, rows,
                   "argmin tau=%s re_lambda_r=%.17g" % (_fmt(best[1]), best[0]))
        summary += [("eps", _fmt(args.eps)), ("argmin_tau", _fmt(best[1])),
                    ("min_re_lambda_r", _fmt(best[0])),
                    ("max_root_residual", "%.3g" % max(residuals, default=float("nan"))),
                    ("csv", path)]

    elif args.mode == "tau_c":
        grid = parse_range(args.eps_range)
        records = delay_mod.sweep_tau_c(g, grid)
        rows = []
        finite = []
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
        path = os.path.join(args.out, "sweep_tau_c.csv")
        _write_csv(path, ["eps", "tau_c", "limiting_index", "omega"], rows,
                   "argmax eps=%s tau_c=%.17g" % (_fmt(best[1]), best[0]))
        summary += [("argmax_eps", _fmt(best[1])), ("max_tau_c", _fmt(best[0])),
                    ("csv", path)]

    elif args.mode == "two_d":
        eps_grid = parse_range(args.eps_range)
        tau_grid = parse_range(args.tau_range)
        smap = delay_mod.stability_map(g, eps_grid, tau_grid)
        failures = [(_fmt(smap.eps_grid[a]), _fmt(smap.tau_grid[b]), reason)
                    for a, b, reason in smap.failures]
        rows = []
        for a, eps in enumerate(smap.eps_grid):
            for b, tau in enumerate(smap.tau_grid):
                rows.append([_fmt(eps), _fmt(tau),
                             "%.17g" % smap.lambda_r_real[a, b], "", "", ""])
        flat = np.where(np.isnan(smap.lambda_r_real), np.inf, smap.lambda_r_real)
        a, b = np.unravel_index(int(np.argmin(flat)), flat.shape)
        path = os.path.join(args.out, "stability_map.csv")
        _write_csv(path, ROOT_COLUMNS, rows,
                   "argmin eps=%s tau=%s re_lambda_r=%.17g"
                   % (_fmt(smap.eps_grid[a]), _fmt(smap.tau_grid[b]),
                      smap.lambda_r_real[a, b]))
        summary += [("argmin_eps", _fmt(smap.eps_grid[a])),
                    ("argmin_tau", _fmt(smap.tau_grid[b])),
                    ("min_re_lambda_r", _fmt(smap.lambda_r_real[a, b])),
                    ("max_root_residual", "%.3g" % smap.max_root_residual),
                    ("csv", path)]

    if failures:
        with open(os.path.join(args.out, "failures.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["eps", "tau", "reason"])
            writer.writerows(failures)
    summary.append(("warnings", len(failures)))
    _summary(summary)
    return EXIT_OK


def cmd_verify(args):
    g = load_graph(args.graph)
    if not graph_mod.is_strongly_connected(g):
        print("error: graph is not strongly connected", file=sys.stderr)
        return EXIT_NOT_STRONGLY_CONNECTED
    rng = np.random.RandomState(args.seed)
    checks = []

    eps_bar = system_mod.find_eps_bar(g, np.linspace(0.1, 2.0, 20))
    eps = 0.5 * eps_bar
    sysm = system_mod.build_system(g, eps)
    spec = system_mod.spectrum(sysm)
    margin = delay_mod.tau_critical(spec)

    # Lambert W route vs pseudospectral oracle on a few delays
    ok = True
    for frac in (0.3, 0.8, 1.4):
        tau = frac * margin.tau_c
        root = delay_mod.rightmost_root(spec, tau).root
        oracle = delay_mod.rightmost_root_oracle(sysm, tau, 30)
        if abs(root.real - oracle.real) > 1e-6 or abs(abs(root.imag) - abs(oracle.imag)) > 1e-6:
            ok = False
    checks.append(("oracle_agreement", ok))

    # crossing consistency: bisection zero matches the closed-form margin
    tau_star = delay_mod.bisect_tau_crossing(spec, 0.5 * margin.tau_c, 2.0 * margin.tau_c)
    checks.append(("crossing_bisection",
                   abs(tau_star - margin.tau_c) <= 1e-6 * margin.tau_c))

    # conservation audit on a short run
    x0 = rng.uniform(0.0, 1.0, g.n)
    tau = min(0.5 * margin.tau_c, 0.2)
    cfg = sim_mod.SimConfig(epsilon=eps, tau=tau, x0=x0, t_final=max(5.0, 4 * tau))
    traj = sim_mod.simulate(sysm, cfg)
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

    def common(p):
        p.add_argument("--graph", required=True, help="edge-list or .json adjacency file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="spectral and delay-margin report")
    common(p)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="integrate the delayed dynamics")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-final", type=float, default=40.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="parameter sweeps over eps and tau")
    common(p)
    p.add_argument("--mode", required=True, choices=list(SWEEP_REQUIRES))
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps-range", default=None, help="a:step:b")
    p.add_argument("--tau-range", default=None, help="a:step:b")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="cross-checks: oracle, bisection, conservation")
    common(p)
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
    except ConsensusError as exc:
        # NumericalFailure, PreconditionViolated, NoAdmissibleEpsilon
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except Exception as exc:
        print("error: unexpected %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
