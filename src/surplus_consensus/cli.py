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
    (InvalidParameter, EXIT_BAD_CONFIG),
    (ConsensusError, EXIT_NUMERICAL_FAILURE),
    (Exception, EXIT_INTERNAL_ERROR),
)

# the most points of a range and cells of a sweep grid: a million cells take
# minutes even at n = 6, so more is a typo, and a tiny step would ask for gigabytes
MAX_GRID_POINTS = 1_000_000

# the most digits of a range field's mantissa or power of ten, int()'s default
# limit on the digits of a string: 1e-5000 would otherwise build a 5,000-digit integer
MAX_FIELD_DIGITS = 4300

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
    """Parse 'a:step:b' into an inclusive ascending grid.

    Point i is the double nearest the decimal a + i step, taken exactly from the
    text, so a grid value is the one its decimal names: 0.1:0.1:0.3 ends at 0.3,
    not at 0.1 + 2 * 0.1 = 0.30000000000000004."""
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
    try:
        (a_m, a_e), (step_m, step_e) = _decimal(parts[0]), _decimal(parts[1])
    except ValueError:
        raise InvalidParameter("range %r has a field of more than %d digits written out"
                               % (text, MAX_FIELD_DIGITS))
    # a + i step = n_i / 10^k for integers n_i
    k = -min(a_e, step_e, 0)
    a_n, step_n, scale = a_m * 10 ** (a_e + k), step_m * 10 ** (step_e + k), 10 ** k
    grid = np.array([_ratio(n, scale) for n in range(a_n, a_n + step_n * count + 1, step_n)])
    return grid[grid <= b + step * 1e-9]


def _decimal(text):
    """The exact value m 10^e of a finite float() literal, as integers (m, e);
    ValueError if m or 10^|e| has more than MAX_FIELD_DIGITS digits."""
    mantissa, _, exp = text.strip().replace("_", "").lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    e = int(exp or 0) - len(frac)
    if abs(e) > MAX_FIELD_DIGITS:
        raise ValueError("exponent %d" % e)
    return int(whole + frac), e


def _ratio(num, den):
    """The double nearest num / den, for integers num and den > 0 (CPython's
    int / int is correctly rounded); inf past the largest double."""
    try:
        return num / den
    except OverflowError:
        return float("inf")


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
    """Load --graph by its suffix; an unreadable path, like a malformed file, exits 2."""
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


def _fmt_grid(x):
    """An eps or tau a run takes from its arguments: _fmt's digits if they parse
    back to x, else repr's."""
    text = _fmt(x)
    return text if float(text) == x else repr(float(x))


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
    tilde = delay_mod._tau_tilde(prof.delta_bar, lam3)
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
        lines.append("eigenvalues of M(%s):" % _fmt_grid(args.eps))
        lines += ["  %s" % _fmt_complex(v) for v in spec.eigenvalues]
        lines += [
            "tau_c(%s): %s" % (_fmt_grid(args.eps), _fmt(margin.tau_c)),
            "crossing_frequency: %s" % _fmt(margin.crossing_frequency),
        ]
        summary += [
            ("eps", _fmt_grid(args.eps)),
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
    return [("command", "simulate"), ("eps", _fmt_grid(args.eps)), ("tau", _fmt_grid(args.tau)),
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
    # eps and tau_c: the eps range x {0}; tau: {--eps} x the tau range
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
    smap = delay_mod.stability_map(g, eps_grid, tau_grid)

    # tau_c reads each eps row's margin; a refused margin is its failure
    if args.mode == "tau_c":
        rows, finite, failures = [], [], []
        for eps, (margin, reason) in zip(smap.eps_grid, smap.margins):
            if margin is None:
                failures.append((_fmt_grid(eps), "", reason))
                rows.append([_fmt_grid(eps), "nan", "", ""])
            else:
                finite.append((margin.tau_c, eps))
                rows.append([_fmt_grid(eps), "%.17g" % margin.tau_c,
                             str(margin.limiting_eigenvalue_index),
                             "%.17g" % margin.crossing_frequency])
        best = max(finite) if finite else (float("nan"), float("nan"))
        _write_csv(path, ["eps", "tau_c", "limiting_index", "omega"], rows,
                   "argmax eps=%s tau_c=%.17g" % (_fmt_grid(best[1]), best[0]))
        summary += [("argmax_eps", _fmt_grid(best[1])), ("max_tau_c", _fmt(best[0]))]
    else:
        failures = [(_fmt_grid(smap.eps_grid[a]), _fmt_grid(smap.tau_grid[b]), reason)
                    for a, b, reason in smap.failures]
        rows = []
        for (a, b), root in np.ndenumerate(smap.roots):
            src, res = smap.source_index[a, b], smap.residual[a, b]
            fields = ["nan", "", "", ""] if np.isnan(root.real) else [
                "%.17g" % root.real, "%.17g" % root.imag,
                "" if src < 0 else str(src), "" if np.isnan(res) else "%.3g" % res]
            rows.append([_fmt_grid(smap.eps_grid[a]), _fmt_grid(smap.tau_grid[b])] + fields)
        # the grids ascend, so ties go to the first cell in row order
        best_re, best_eps, best_tau = min(
            ((re, smap.eps_grid[a], smap.tau_grid[b])
             for (a, b), re in np.ndenumerate(smap.roots.real) if not np.isnan(re)),
            default=(float("nan"),) * 3)
        _write_csv(path, ROOT_COLUMNS, rows, "argmin eps=%s tau=%s re_lambda_r=%.17g"
                   % (_fmt_grid(best_eps), _fmt_grid(best_tau), best_re))
        summary += [("argmin_eps", _fmt_grid(best_eps)), ("argmin_tau", _fmt_grid(best_tau)),
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

    # the closed-form margin is the crossing: the roots of each s = lambda_i e^{-s tau}
    # cross the imaginary axis only rightwards as tau grows, the first at
    # (|arg lambda_i| - pi/2) / |lambda_i| (Matsunaga, Appl. Math. Lett. 20, 2007), so
    # Re s*(tau) changes sign once, at tau_c, and two scans bracket it within 1e-6
    below, above = (delay_mod.rightmost_root(spec, f * margin.tau_c).root.real
                    for f in (1.0 - 1e-6, 1.0 + 1e-6))
    checks.append(("crossing_bisection", below < 0.0 < above))

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

    p = sub.add_parser("verify", help="cross-checks: oracle, crossing, conservation")
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
