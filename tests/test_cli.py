import contextlib
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import surplus_consensus as sc
from surplus_consensus import cli

from conftest import OVER_BOUND_CYCLE


def run(argv):
    return cli.main(argv)


def parse_summary(captured):
    line = captured.strip().splitlines()[-1]
    return dict(item.split("=", 1) for item in shlex.split(line))


def test_parse_range():
    grid = cli.parse_range("0.2:0.1:0.5")
    assert np.allclose(grid, [0.2, 0.3, 0.4, 0.5])
    with pytest.raises(sc.InvalidParameter):
        cli.parse_range("1:2")
    with pytest.raises(sc.InvalidParameter):
        cli.parse_range("0.5:0.1:0.2")
    for text in ("nan:0.1:1", "0:nan:1", "0:0.1:nan", "0:0.1:inf", "-inf:0.1:0",
                 "0:inf:1"):
        with pytest.raises(sc.InvalidParameter, match="non-finite field"):
            cli.parse_range(text)
    # a tiny step or one point above the cap is refused before any array exists
    for text in ("0:1e-300:1", "0:5e-324:1", "0:1:%d" % cli.MAX_GRID_POINTS):
        with pytest.raises(sc.InvalidParameter, match="more than %d points"
                           % cli.MAX_GRID_POINTS):
            cli.parse_range(text)


def test_parse_range_takes_each_point_from_the_decimals():
    assert cli.parse_range("0.1:0.1:0.3").tolist() == [0.1, 0.2, 0.3]
    assert cli.parse_range("0.2:0.2:2.0")[[2, 6]].tolist() == [0.6, 1.4]
    assert cli.parse_range(" 1_0:25E-2:1.05e1 ").tolist() == [10.0, 10.25, 10.5]
    # the third point, 2e308, is past the largest double and past b
    assert cli.parse_range("0:1e308:1.7e308").tolist() == [0.0, 1e308]
    for text in ("1e-5000:1:2", "0:1.%s:2" % ("0" * 4301), "0.%s:1:2" % ("1" * 4301)):
        with pytest.raises(sc.InvalidParameter, match="more than %d digits"
                           % cli.MAX_FIELD_DIGITS):
            cli.parse_range(text)


def test_analyze_demo(capsys):
    code = run(["analyze", "--graph", sc.demo_graph_path(), "--eps", "1.1"])
    assert code == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["n"] == "6"
    assert summary["balanced"] == "false"
    assert summary["delta_bar"] == "3"
    assert summary["null_count_m0"] == "2"
    assert float(summary["tau_tilde"]) == pytest.approx(0.098000, abs=1e-5)
    assert float(summary["tau_c"]) == pytest.approx(0.205783, abs=1e-5)


def test_analyze_out_writes_the_stderr_report(tmp_path, capsys):
    out = tmp_path / "report"
    assert run(["analyze", "--graph", sc.demo_graph_path(), "--eps", "1.1",
                "--out", str(out)]) == 0
    captured = capsys.readouterr()
    text = (out / "analyze.txt").read_text()
    # print ends the stderr report with one more newline
    assert captured.err == text + "\n"
    lines = text.splitlines()
    assert "null_count(M(0)): 2" in lines
    tau_c = [line.split(": ")[1] for line in lines if line.startswith("tau_c(1.1): ")]
    assert tau_c == [parse_summary(captured.out)["tau_c"]]
    assert float(tau_c[0]) == pytest.approx(0.20578301458454987, rel=1e-9)
    # the report prints eps as the summary does, with all of its digits
    assert run(["analyze", "--graph", sc.demo_graph_path(), "--eps", "0.1234567",
                "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = (out / "analyze.txt").read_text().splitlines()
    assert parse_summary(captured.out)["eps"] == "0.1234567"
    assert "eigenvalues of M(0.1234567):" in lines
    assert [line for line in lines if line.startswith("tau_c(")] == [
        "tau_c(0.1234567): %s" % parse_summary(captured.out)["tau_c"]]


def test_analyze_two_node(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("n 2\n1 2\n2 1\n")
    assert run(["analyze", "--graph", str(path)]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert float(summary["tau_tilde"]) == pytest.approx(0.5536, abs=1e-3)


def test_analyze_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("garbage\n")
    assert run(["analyze", "--graph", str(path)]) == 2
    assert run(["analyze", "--graph", str(tmp_path / "missing.edges")]) == 2
    assert run(["analyze", "--graph", str(tmp_path)]) == 2


@pytest.mark.parametrize("name,content,message", [
    ("bytes.edges", b"n 2\n1 2\n2 \xff1\n", "'utf-8' codec can't decode byte 0xff"),
    ("deep.json", b"[" * 100_000, "maximum recursion depth exceeded"),
    ("long.json", b'{"n": 1, "adjacency": [[' + b"1" * 5000 + b"]]}", "Exceeds the limit"),
], ids=["not-utf-8", "json-nested-too-deep", "json-int-too-long"])
def test_undecodable_graph_exits_2(tmp_path, capsys, name, content, message):
    # undecodable bytes, JSON nested past the recursion limit and a JSON integer past
    # Python's digit limit are malformed input, not internal errors (exit 6)
    path = tmp_path / name
    path.write_bytes(content)
    assert run(["analyze", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: %s" % (path, message)) and err.count("\n") == 1
    # the library reader refuses the file with the text the CLI prints
    with pytest.raises(sc.GraphFormatError) as info:
        sc.load_graph(str(path))
    assert err == "error: %s\n" % info.value


def _edits(valid):
    """A truncated prefix of valid, or valid with one byte replaced."""
    return st.one_of(
        st.integers(0, len(valid) - 1).map(lambda k: valid[:k]),
        st.tuples(st.integers(0, len(valid) - 1), st.binary(min_size=1, max_size=1)).map(
            lambda edit: valid[:edit[0]] + edit[1] + valid[edit[0] + 1:]))


_DEMO_EDGES = Path(sc.demo_graph_path()).read_bytes()
_DEMO_JSON = json.dumps({"n": 6, "adjacency": sc.adjacency(
    sc.load_graph(sc.demo_graph_path())).tolist()}).encode()
_GRAPH_FILES = st.one_of(
    st.tuples(st.sampled_from([".edges", ".json"]), st.binary(max_size=4096)),
    st.tuples(st.just(".edges"), _edits(_DEMO_EDGES)),
    st.tuples(st.just(".json"), _edits(_DEMO_JSON)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_GRAPH_FILES)
def test_any_graph_file_is_read_or_refused_as_graph_input(case):
    # the readers return a graph or raise GraphFormatError, never another type, and
    # analyze exits 0-5 with an error line iff it exits 2 or more
    suffix, content = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g" + suffix)
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            assert isinstance(sc.load_graph(path), sc.DirectedGraph)
        except sc.GraphFormatError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["analyze", "--graph", path])
    assert 0 <= code <= 5
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code >= 2), errors


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["simulate", "--eps", "1", "--tau", "0.1"],
    ["sweep", "--mode", "eps", "--eps-range", "0.5:0.5:1", "--out", "OUT"],
    ["verify"],
], ids=["analyze", "simulate", "sweep", "verify"])
def test_not_strongly_connected_exits_3(tmp_path, capsys, argv):
    path = tmp_path / "weak.edges"
    path.write_text("n 2\n1 2\n")
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert run(argv + ["--graph", str(path)]) == 3
    assert capsys.readouterr().err == "error: graph is not strongly connected\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--out", "OUT"],
    ["simulate", "--eps", "1", "--tau", "0.1", "--out", "OUT"],
    ["sweep", "--mode", "two_d", "--eps-range", "0.5:0.5:1", "--tau-range", "0:0.1:0.1",
     "--out", "OUT"],
    ["verify"],
], ids=["analyze", "simulate", "sweep", "verify"])
def test_graph_over_the_node_bound_exits_2_before_out_exists(tmp_path, capsys, argv):
    # the bound refuses the graph as it is read, before any command creates --out
    path = tmp_path / "cycle.edges"
    path.write_text(OVER_BOUND_CYCLE)
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert run(argv + ["--graph", str(path)]) == 2
    assert capsys.readouterr().err == ("error: %s: graph has 2001 nodes, more than "
                                       "MAX_NODES = 2000\n" % path)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["analyze"]])
def test_no_nonnull_eigenvalue_is_one_error_line(tmp_path, capsys, argv):
    # M(0) of a one-node graph has no non-null eigenvalue
    path = tmp_path / "one.edges"
    path.write_text("n 1\n")
    argv = [a.replace("{out}", str(tmp_path / "out")) for a in argv]
    assert run(argv + ["--graph", str(path)]) == 5
    assert capsys.readouterr().err == "error: spectrum has no non-null eigenvalue\n"


@pytest.mark.parametrize("argv,fails", [
    (["analyze"], lambda a: True),
    (["verify"], lambda a: np.ndim(a) == 3),
], ids=["analyze-spectrum", "verify-oracle"])
def test_eigensolver_failure_exits_5(monkeypatch, capsys, argv, fails):
    # np.linalg.eigvals raising LinAlgError is a NumericalFailure, exit 5: in
    # system.spectrum, which every command calls, and in rightmost_root_oracle, which
    # only verify calls and which solves its scalar generators as one 3-D stack
    eigvals = np.linalg.eigvals

    def patched(a):
        if fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", patched)
    assert run(argv + ["--graph", sc.demo_graph_path()]) == 5
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: eigenvalue computation failed: "
                              "Eigenvalues did not converge\n")


@pytest.mark.parametrize("mode,ranges,row", [
    ("two_d", ["--eps-range", "0:0.5:0", "--tau-range", "0:0.1:0"],
     "0,0,spectrum has no non-null eigenvalue"),
    ("tau_c", ["--eps-range", "0:0.5:0"],
     '0,,"expected exactly one null eigenvalue, found 2"'),
    ("eps", ["--eps-range", "0:0.5:0"], "0,0,spectrum has no non-null eigenvalue"),
    ("tau", ["--eps", "0", "--tau-range", "0.1:0.1:0.1"],
     "0,0.1,spectrum has no non-null eigenvalue"),
])
def test_sweep_writes_failure_reasons(tmp_path, capsys, mode, ranges, row):
    # M(0) of a one-node graph has no non-null eigenvalue
    path = tmp_path / "one.edges"
    path.write_text("n 1\n")
    out = tmp_path / "out"
    assert run(["sweep", "--mode", mode, "--graph", str(path), "--out", str(out)]
               + ranges) == 0
    assert parse_summary(capsys.readouterr().out)["warnings"] == "1"
    assert (out / "failures.csv").read_text() == "eps,tau,reason\n%s\n" % row


def test_sweep_eps_and_tau_keep_going_past_failed_cells(tmp_path, capsys):
    # M(0) of a one-node graph has no non-null eigenvalue; M(eps > 0) has -eps
    path = tmp_path / "one.edges"
    path.write_text("n 1\n")
    out = tmp_path / "out"
    assert run(["sweep", "--mode", "eps", "--graph", str(path), "--out", str(out),
                "--eps-range", "0:0.5:1"]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert (summary["warnings"], summary["argmin_eps"]) == ("1", "1")
    rows = (out / "sweep_eps.csv").read_text().splitlines()[1:4]
    assert [row.split(",")[2] for row in rows] == ["nan", "-0.5", "-1"]
    # no finite cell: the summary reports nan
    assert run(["sweep", "--mode", "tau", "--graph", str(path), "--out", str(out),
                "--eps", "0", "--tau-range", "0:0.1:0.2"]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["warnings"] == "3"
    assert summary["min_re_lambda_r"] == summary["max_root_residual"] == "nan"


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--eps", "1.3", "--tau", "nan"], "tau must be finite, got nan"),
    (["simulate", "--eps", "inf", "--tau", "0.18"], "epsilon must be finite, got inf"),
    (["simulate", "--eps", "nan", "--tau", "0.18"], "epsilon must be finite, got nan"),
    (["simulate", "--eps", "1.3", "--tau", "0.18", "--dt", "nan"],
     "dt must be finite, got nan"),
    (["simulate", "--eps", "1.3", "--tau", "0.18", "--t-final", "nan"],
     "t_final must be finite, got nan"),
    (["simulate", "--eps", "1.3", "--tau", "0.18", "--t-final", "inf"],
     "t_final must be finite, got inf"),
    (["analyze", "--eps", "nan"], "epsilon must be finite, got nan"),
    (["sweep", "--mode", "tau", "--eps", "nan", "--tau-range", "0:0.1:0.2",
      "--out", "OUT"], "epsilon must be finite, got nan"),
    (["sweep", "--mode", "two_d", "--eps-range", "1:0.1:1", "--tau-range", "0:0.1:inf",
      "--out", "OUT"], "range '0:0.1:inf' has a non-finite field"),
], ids=["simulate-tau", "simulate-eps-inf", "simulate-eps-nan", "simulate-dt",
        "simulate-t_final-nan", "simulate-t_final-inf", "analyze-eps", "sweep-eps",
        "sweep-range"])
def test_non_finite_value_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert run(argv + ["--graph", sc.demo_graph_path()]) == 4
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    # round(0.001 / 1) = 0 steps of dt
    (["--tau", "0.001", "--dt", "1", "--t-final", "0.001"],
     "t_final must be at least one step dt"),
    # (1e7 + 4e8 + 1) x 12 values to compute
    (["--tau", "1", "--dt", "1e-7", "--t-final", "40"],
     "the run would compute more than 100000000 state values; raise dt or shorten t_final"),
    # y' = My: the spectrum answers it, and no kernel integrates it
    (["--tau", "0"], "tau must be positive, got 0.0"),
    (["--tau", "0.1", "--dt", "0"], "dt must be positive, got 0.0"),
], ids=["zero-steps", "over-the-cap", "tau-zero", "dt-zero"])
def test_simulate_grid_out_of_bounds_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                      argv, message):
    def refuse(*args):
        raise AssertionError("integrated a run the config check should refuse")
    monkeypatch.setattr(cli.sim_mod._integrator, "integrate_delayed", refuse)
    out = tmp_path / "out"
    assert run(["simulate", "--graph", sc.demo_graph_path(), "--eps", "1.1",
                "--out", str(out)] + argv) == 4
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
@pytest.mark.parametrize("argv,work", [
    (["analyze", "--eps", "1.1"], (cli.system_mod, "spectrum")),
    (["simulate", "--eps", "1.1", "--tau", "0.1"],
     (cli.sim_mod._integrator, "integrate_delayed")),
    (["sweep", "--mode", "two_d", "--eps-range", "0.9:0.2:1.1", "--tau-range", "0:0.1:0.1"],
     (cli.delay_mod, "stability_map")),
], ids=["analyze", "simulate", "sweep"])
def test_unusable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, work, where):
    # an --out that cannot be a directory exited 6 (FileExistsError), after the
    # whole scan in sweep, or 2, the malformed-graph code (FileNotFoundError)
    def refuse(*args):
        raise AssertionError("worked before finding --out unusable")
    monkeypatch.setattr(*work, refuse)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker if where == "existing-file" else blocker / "out"
    assert run(argv + ["--graph", sc.demo_graph_path(), "--out", str(out)]) == 4
    reason = "File exists" if where == "existing-file" else "Not a directory"
    assert capsys.readouterr().err == "error: cannot create --out %r: %s\n" % (str(out), reason)
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("mode,ranges,message", [
    ("eps", ["--eps-range=-0.5:0.5:0.5"], "epsilon must be non-negative, got -0.5"),
    ("tau", ["--eps=-0.5", "--tau-range", "0:0.1:0.2"],
     "epsilon must be non-negative, got -0.5"),
    ("tau", ["--eps", "1.1", "--tau-range=-0.1:0.1:0.1"],
     "tau must be non-negative, got -0.1"),
    ("two_d", ["--eps-range=-0.5:0.5:0.5", "--tau-range", "0:0.1:0.1"],
     "epsilon must be non-negative, got -0.5"),
    ("two_d", ["--eps-range", "0.5:0.5:0.5", "--tau-range=-0.1:0.1:0.1"],
     "tau must be non-negative, got -0.1"),
    ("tau_c", ["--eps-range=-0.5:0.5:0.5"], "epsilon must be non-negative, got -0.5"),
], ids=["eps", "tau-eps", "tau-tau", "two_d-eps", "two_d-tau", "tau_c"])
def test_sweep_negative_eps_or_tau_is_a_usage_error(tmp_path, capsys, mode, ranges,
                                                    message):
    out = tmp_path / "out"
    assert run(["sweep", "--mode", mode, "--graph", sc.demo_graph_path(),
                "--out", str(out)] + ranges) == 4
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def _sweep_rows(tmp_path, capsys, mode, *ranges):
    out = tmp_path / mode
    assert run(["sweep", "--mode", mode, "--graph", sc.demo_graph_path(),
                "--out", str(out)] + list(ranges)) == 0
    summary = parse_summary(capsys.readouterr().out)
    lines = Path(summary["csv"]).read_text().splitlines()
    assert lines[0] == "eps,tau,re_lambda_r,im_lambda_r,source_index,residual"
    return [line for line in lines[1:] if not line.startswith("#")]


def test_sweep_eps_rows_are_the_tau_0_rows_of_two_d(tmp_path, capsys):
    eps_rows = _sweep_rows(tmp_path, capsys, "eps", "--eps-range", "0.2:0.3:1.7")
    two_d_rows = _sweep_rows(tmp_path, capsys, "two_d", "--eps-range", "0.2:0.3:1.7",
                             "--tau-range", "0:0.1:0.3")
    assert len(eps_rows) == 6
    assert eps_rows == [row for row in two_d_rows if row.split(",")[1] == "0"]


def test_sweep_tau_rows_are_those_of_a_one_eps_two_d(tmp_path, capsys):
    tau_rows = _sweep_rows(tmp_path, capsys, "tau", "--eps", "1.1",
                           "--tau-range", "0:0.05:0.3")
    two_d_rows = _sweep_rows(tmp_path, capsys, "two_d", "--eps-range", "1.1:0.1:1.1",
                             "--tau-range", "0:0.05:0.3")
    assert len(tau_rows) == 7
    assert tau_rows == two_d_rows


def test_sweep_two_d_without_finite_cell_reports_nan(tmp_path, capsys):
    # M(0) of a one-node graph has no non-null eigenvalue
    path = tmp_path / "one.edges"
    path.write_text("n 1\n")
    assert run(["sweep", "--mode", "two_d", "--graph", str(path), "--out",
                str(tmp_path / "out"), "--eps-range", "0:0.5:0",
                "--tau-range", "0:0.1:0.2"]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert (summary["argmin_eps"], summary["argmin_tau"], summary["min_re_lambda_r"],
            summary["max_root_residual"], summary["warnings"]) == ("nan",) * 4 + ("3",)


def test_sweep_without_failures_writes_no_failure_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", "--mode", "two_d", "--graph", sc.demo_graph_path(),
                "--eps-range", "0.9:0.2:1.1", "--tau-range", "0:0.1:0.1",
                "--out", str(out)]) == 0
    assert parse_summary(capsys.readouterr().out)["warnings"] == "0"
    assert not (out / "failures.csv").exists()


def _scaled_tau_c(factor, tau_critical=sc.tau_critical):
    return lambda spec: dataclasses.replace(tau_critical(spec),
                                            tau_c=factor * tau_critical(spec).tau_c)


def test_failed_check_exits_1(monkeypatch, capsys):
    # a wrong oracle, and a tau_c off by -1e-5, 1e-5 or a factor 3: the last is far
    # past the crossing, and still a failed check with the full summary
    for attr, fake, check in [
            ("rightmost_root_oracle", lambda *a: 1.0 + 0j, "oracle_agreement"),
            ("tau_critical", _scaled_tau_c(1.0 - 1e-5), "crossing_bisection"),
            ("tau_critical", _scaled_tau_c(1.0 + 1e-5), "crossing_bisection"),
            ("tau_critical", _scaled_tau_c(3.0), "crossing_bisection")]:
        with monkeypatch.context() as patch:
            patch.setattr(cli.delay_mod, attr, fake)
            assert run(["verify", "--graph", sc.demo_graph_path()]) == 1, check
        captured = capsys.readouterr()
        assert parse_summary(captured.out)[check] == "FAIL"
        assert captured.err == "failed checks: %s\n" % check
        # a failing run prints the keys of a passing one
        assert list(parse_summary(captured.out)) == [
            "command", "eps", "tau_c", "seed", "oracle_agreement", "crossing_bisection",
            "conservation"]


def test_wrong_lambert_w_root_misses_the_oracle(demo6):
    # the other side of the check above: a root from W_1 in place of W_0 for the
    # source eigenvalue fails oracle_agreement at each of verify's delays (not W_-1:
    # on real z < -1/e it is the conjugate of W_0, the same root up to the sign of Im)
    eps = 0.5 * sc.find_eps_bar(demo6, np.linspace(0.1, 2.0, 20))
    spec = sc.spectrum(sc.build_system(demo6, eps))
    tau_c = sc.tau_critical(spec).tau_c
    for frac in (0.3, 0.8, 1.4):
        tau = frac * tau_c
        oracle = sc.rightmost_root_oracle(spec, tau)

        def gap(root):
            return max(abs(root.real - oracle.real), abs(abs(root.imag) - abs(oracle.imag)))

        root = sc.rightmost_root(spec, tau)
        lam = spec.eigenvalues[root.source_eigenvalue_index]
        assert gap(root.root) <= 1e-6 < gap(sc.lambert_w(tau * lam, 1) / tau)


def test_verify_n200_passes(tmp_path, capsys):
    # one 31 x 31 generator per eigenvalue: seconds, where the dense generator of
    # size 12,400 took more than ten minutes
    path = tmp_path / "n200.edges"
    sc.save_edge_list(sc.random_strongly_connected(200, 800, 1), str(path))
    assert run(["verify", "--graph", str(path)]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert [summary[name] for name in ("oracle_agreement", "crossing_bisection",
                                       "conservation")] == ["pass"] * 3


def test_unexpected_error_is_one_line_exit_6(monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli.sim_mod, "simulate", boom)
    assert run(["simulate", "--graph", sc.demo_graph_path(), "--eps", "1.3",
                "--tau", "0.18"]) == 6
    assert capsys.readouterr().err == "error: unexpected RuntimeError: boom\n"

    # so is a summary line that cannot be written
    monkeypatch.undo()

    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")
    monkeypatch.setattr(sys, "stdout", Full())
    assert run(["verify", "--graph", sc.demo_graph_path()]) == 6
    assert capsys.readouterr().err == (
        "error: unexpected OSError: [Errno 28] No space left on device\n")


def test_simulate_demo(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["simulate", "--graph", sc.demo_graph_path(), "--eps", "1.3",
                "--tau", "0.18", "--seed", "42", "--out", str(out)])
    assert code == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["verdict"] == "converged"
    assert summary["convergence_time"] != "none"
    meta = json.loads((out / "trajectory.json").read_text())
    assert sorted(meta) == [
        "consensus_target", "consensus_tolerance", "convergence_time", "decision_time",
        "divergence_threshold", "dt", "epsilon", "graph", "seed", "t_final", "tau",
        "verdict", "x0", "z0"]
    # what simulate cannot see comes from the command line
    assert (meta["epsilon"], meta["seed"], meta["graph"]) == (1.3, 42, sc.demo_graph_path())
    rng = np.random.RandomState(42)
    assert meta["consensus_target"] == pytest.approx(rng.uniform(0, 1, 6).mean())
    assert (meta["tau"], meta["dt"], meta["verdict"]) == (0.18, 0.18 / 50, "converged")
    assert (meta["consensus_tolerance"], meta["divergence_threshold"]) == (
        sc.sim.CONSENSUS_TOLERANCE, sc.sim.DIVERGENCE_THRESHOLD)
    # x0, z0 and the grades agree with the trajectory CSV
    data = np.loadtxt(str(out / "trajectory.csv"), delimiter=",", skiprows=1)
    t, err = data[:, 0], data[:, -2]
    assert (meta["x0"], meta["z0"]) == (data[0, 1:7].tolist(), data[0, 7:13].tolist())
    assert meta["t_final"] == t[-1] == 11111 * meta["dt"]
    settle = int(np.flatnonzero(err >= sc.sim.CONSENSUS_TOLERANCE)[-1]) + 1
    window = int(round(0.05 * 40.0 / meta["dt"]))
    assert (meta["convergence_time"], meta["decision_time"]) == (t[settle], t[settle + window])


MAP_KEYS = ["command", "mode", "argmin_eps", "argmin_tau", "min_re_lambda_r",
            "max_root_residual", "csv", "warnings"]


@pytest.mark.parametrize("argv,keys", [
    (["analyze"], ["command", "n", "edges", "balanced", "delta_bar", "null_count_m0",
                   "lambda3_re", "lambda2_slope", "tau_tilde"]),
    (["analyze", "--eps", "1.1"], ["command", "n", "edges", "balanced", "delta_bar",
                                   "null_count_m0", "lambda3_re", "lambda2_slope",
                                   "tau_tilde", "eps", "tau_c", "omega"]),
    (["simulate", "--eps", "1.3", "--tau", "0.18", "--t-final", "1"],
     ["command", "eps", "tau", "t_final", "verdict", "target", "convergence_time",
      "max_drift", "seed"]),
    (["sweep", "--mode", "eps", "--eps-range", "0.5:0.5:1", "--out", "OUT"], MAP_KEYS),
    (["sweep", "--mode", "tau", "--eps", "1.1", "--tau-range", "0:0.1:0.2", "--out", "OUT"],
     MAP_KEYS),
    (["sweep", "--mode", "two_d", "--eps-range", "0.5:0.5:1", "--tau-range", "0:0.1:0.1",
      "--out", "OUT"], MAP_KEYS),
    (["sweep", "--mode", "tau_c", "--eps-range", "0.5:0.5:1", "--out", "OUT"],
     ["command", "mode", "argmax_eps", "max_tau_c", "csv", "warnings"]),
    (["verify"], ["command", "eps", "tau_c", "seed", "oracle_agreement",
                  "crossing_bisection", "conservation"]),
], ids=["analyze", "analyze-eps", "simulate", "sweep-eps", "sweep-tau", "sweep-two_d",
        "sweep-tau_c", "verify"])
def test_summary_keys_and_order(tmp_path, capsys, argv, keys):
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    assert run(argv + ["--graph", sc.demo_graph_path()]) == 0
    assert list(parse_summary(capsys.readouterr().out)) == keys


def test_summary_quotes_a_path_with_a_space(tmp_path, monkeypatch, capsys):
    # "csv=my dir/sweep_tau_c.csv" split on whitespace lost the path
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--mode", "tau_c", "--graph", sc.demo_graph_path(),
                "--eps-range", "0.5:0.5:1", "--out", "my dir"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert "csv='my dir/sweep_tau_c.csv'" in line
    summary = parse_summary(line)  # shlex.split
    assert summary["csv"] == os.path.join("my dir", "sweep_tau_c.csv")
    assert (tmp_path / summary["csv"]).is_file()


def test_simulate_reports_the_horizon_it_integrated(tmp_path, capsys):
    # t_final / dt = 40 / 0.0036 = 11,111.1, rounded to 11,111 steps
    out = tmp_path / "run"
    assert run(["simulate", "--graph", sc.demo_graph_path(), "--eps", "1.3",
                "--tau", "0.18", "--t-final", "40", "--out", str(out)]) == 0
    horizon = 11111 * (0.18 / 50)
    assert parse_summary(capsys.readouterr().out)["t_final"] == "39.9996"
    assert json.loads((out / "trajectory.json").read_text())["t_final"] == horizon
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 11112
    assert float(lines[-1].split(",")[0]) == horizon


# the seeded x0 comes from the standard library's generator: importing
# numpy.random would load hashlib and OpenSSL into every run; _csv_format builds
# its formatting tables from Python ints, as fractions or decimal would add
# their import to every run; a CSV run formats in its own process, so
# neither multiprocessing nor signal is loaded; and scipy is a test reference
# only. simulate and a two_d sweep are the benchmark's two commands
FRESH_CLI_RUN = """
import sys
from surplus_consensus import cli, demo_graph_path
for argv in (["simulate", "--eps", "1.3", "--tau", "0.18", "--t-final", "5", "--out", sys.argv[1]],
             ["sweep", "--mode", "two_d", "--eps-range", "0.5:0.5:1", "--tau-range", "0:0.1:0.2",
              "--out", sys.argv[2]],
             ["verify"]):
    assert cli.main(argv + ["--graph", demo_graph_path()]) == 0
print([name for name in ("numpy.random", "fractions", "decimal", "multiprocessing", "signal",
                         "scipy") if name in sys.modules])
"""


def test_cli_never_imports_numpy_random(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI_RUN, str(tmp_path / "out"),
                           str(tmp_path / "sweep")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_simulate_misaligned_dt(capsys):
    code = run(["simulate", "--graph", sc.demo_graph_path(), "--eps", "1.3",
                "--tau", "0.18", "--dt", "0.007"])
    assert code == 4


def test_simulate_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["simulate", "--graph", sc.demo_graph_path(), "--eps", "1.3",
                    "--tau", "0.18", "--seed", "7", "--t-final", "5.0",
                    "--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_sweep_eps(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run(["sweep", "--mode", "eps", "--graph", sc.demo_graph_path(),
                "--eps-range", "0.2:0.1:1.8", "--out", str(out)])
    assert code == 0
    summary = parse_summary(capsys.readouterr().out)
    assert float(summary["argmin_eps"]) == pytest.approx(1.1)
    assert (out / "sweep_eps.csv").read_text().splitlines()[0] == \
        "eps,tau,re_lambda_r,im_lambda_r,source_index,residual"


def test_sweep_tau_requires_eps(tmp_path, capsys):
    code = run(["sweep", "--mode", "tau", "--graph", sc.demo_graph_path(),
                "--tau-range", "0:0.01:0.1", "--out", str(tmp_path / "s")])
    assert code == 4


@pytest.mark.parametrize("mode,given", [
    ("eps", ["--out", "OUT"]),
    ("tau", ["--eps", "1.1", "--out", "OUT"]),
    ("tau_c", ["--out", "OUT"]),
    ("two_d", ["--eps-range", "0.9:0.2:1.3", "--out", "OUT"]),
    ("two_d", ["--tau-range", "0:0.1:0.3", "--out", "OUT"]),
    ("eps", ["--eps-range", "0.2:0.1:1.8"]),
])
def test_sweep_missing_argument(tmp_path, capsys, mode, given):
    out = tmp_path / "s"
    argv = ["sweep", "--mode", mode, "--graph", sc.demo_graph_path()]
    assert run(argv + [str(out) if a == "OUT" else a for a in given]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: mode=%s requires --" % mode)
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("mode,given,unused", [
    ("eps", ["--eps-range", "0.9:0.2:1.3", "--tau-range", "0:0.1:0.3"], "--tau-range"),
    ("tau", ["--eps", "1.1", "--tau-range", "0:0.1:0.3", "--eps-range", "0.9:0.2:1.3"],
     "--eps-range"),
    ("two_d", ["--eps-range", "0.9:0.2:1.3", "--tau-range", "0:0.1:0.3", "--eps", "1.1"],
     "--eps"),
    ("tau_c", ["--eps-range", "0.9:0.2:1.3", "--eps", "1.1", "--tau-range", "0:0.1:0.3"],
     "--eps, --tau-range"),
])
def test_sweep_flag_the_mode_ignores_is_a_usage_error(tmp_path, capsys, mode, given, unused):
    # --mode eps with --tau-range used to exit 0 and write only tau = 0 rows
    out = tmp_path / "s"
    argv = ["sweep", "--mode", mode, "--graph", sc.demo_graph_path(), "--out", str(out)]
    assert run(argv + given) == 4
    assert capsys.readouterr().err == "error: mode=%s does not take %s\n" % (mode, unused)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--mode", "bogus", "--graph", "g.edges"],
    ["simulate", "--graph", "g.edges", "--eps", "1", "--tau", "notanumber"],
    ["sweep", "--mode", "tau", "--graph", "g.edges", "--jobs", "2"],
    ["sweep", "--mode", "two_d", "--graph", "g.edges", "--branch-window", "5"],
    ["analyze"],
    [],
    ["analyze", "--graph", "g.edges", "--seed", "1"],
    ["sweep", "--mode", "eps", "--graph", "g.edges", "--eps-range", "0.5:0.5:1",
     "--out", "s", "--seed", "1"],
    ["verify", "--graph", "g.edges", "--out", "x"],
    ["simulate", "--graph", "g.edges", "--eps", "1", "--tau", "0.1", "--seed", "-1"],
    ["verify", "--graph", "g.edges", "--seed", "4294967296"],
    # two ranges within the cap whose grid is not
    ["sweep", "--mode", "two_d", "--graph", "g.edges", "--eps-range", "0:1:1000",
     "--tau-range", "0:1:1000", "--out", "s"],
])
def test_usage_error_exits_4(argv, capsys):
    assert run(argv) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--mode", "eps", "--eps-range", "a:0.1:1", "--out", "OUT"],
     "error: range 'a:0.1:1' has a non-numeric field"),
    (["verify", "--seed", "abc"],
     "surplus-consensus verify: error: argument --seed: seed 'abc' is not an integer"),
], ids=["eps-range", "seed"])
def test_unparsable_value_exits_4_with_its_message(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert run(argv + ["--graph", sc.demo_graph_path()]) == 4
    assert capsys.readouterr().err.splitlines()[-1] == message
    assert not out.exists()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert run(["sweep", "--help"]) == 0
    assert "--tau-range" in capsys.readouterr().out


def test_sweep_tau(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run(["sweep", "--mode", "tau", "--graph", sc.demo_graph_path(),
                "--eps", "1.1", "--tau-range", "0:0.05:0.3", "--out", str(out)])
    assert code == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["warnings"] == "0"
    rows = [l for l in (out / "sweep_tau.csv").read_text().splitlines()
            if l and not l.startswith(("#", "eps"))]
    assert len(rows) == 7
    # the largest residual column entry, which covers the tau > 0 rows
    assert summary["max_root_residual"] == max(
        (row.split(",")[5] for row in rows[1:]), key=float)


def test_sweep_tau_at_long_delays(tmp_path, capsys):
    # tau * lambda reaches -7633 here; an absolute residual bound of 1e-12, below
    # the rounding error of w e^w, refused W_0 from tau = 350 on, and the sweep
    # reported 13 failed cells and its minimum at tau = 500
    out = tmp_path / "sweep"
    code = run(["sweep", "--mode", "tau", "--graph", sc.demo_graph_path(),
                "--eps", "1.1", "--tau-range", "50:50:1000", "--out", str(out)])
    assert code == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["warnings"] == "0"
    assert not (out / "failures.csv").exists()
    spec = sc.spectrum(sc.build_system(sc.load_graph(sc.demo_graph_path()), 1.1))
    expected = max(scipy.special.lambertw(1000.0 * spec.nonnull, k).real.max()
                   for k in range(-2, 3)) / 1000.0
    assert summary["argmin_tau"] == "1000"
    assert float(summary["min_re_lambda_r"]) == pytest.approx(expected, rel=1e-9)


def test_sweep_tau_c(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run(["sweep", "--mode", "tau_c", "--graph", sc.demo_graph_path(),
                "--eps-range", "0.2:0.4:1.8", "--out", str(out)])
    assert code == 0
    text = (out / "sweep_tau_c.csv").read_text()
    assert text.splitlines()[0] == "eps,tau_c,limiting_index,omega"


def test_sweep_tau_c_rows_failures_and_argmax(tmp_path, capsys):
    # the directed 8-cycle has eps_bar = sqrt(2) - 1 inside the grid: eps = 0 is
    # refused for its two null eigenvalues, 0.5..0.8 for a non-null Re >= 0
    text = "0:0.1:0.8"
    g = sc.build_graph(8, [(i, i % 8 + 1) for i in range(1, 9)])
    path = tmp_path / "cycle8.edges"
    sc.save_edge_list(g, str(path))
    out = tmp_path / "sweep"
    assert run(["sweep", "--mode", "tau_c", "--graph", str(path), "--eps-range", text,
                "--out", str(out)]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["warnings"] == "5"
    lines = (out / "sweep_tau_c.csv").read_text().splitlines()
    assert lines[0] == "eps,tau_c,limiting_index,omega"
    rows = [line.split(",") for line in lines[1:-1]]
    assert [row[0] for row in rows] == ["0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6",
                                        "0.7", "0.8"]
    grid = cli.parse_range(text)
    finite = []
    for a, row in enumerate(rows):
        if a == 0 or a >= 5:
            assert row[1:] == ["nan", "", ""]
            continue
        # the margin at the grid point the row was computed at, not its printed eps
        margin = sc.tau_critical(sc.spectrum(sc.build_system(g, grid[a])))
        assert row[1:] == ["%.17g" % margin.tau_c, str(margin.limiting_eigenvalue_index),
                           "%.17g" % margin.crossing_frequency]
        finite.append((margin.tau_c, row[0]))
    best_tau_c, best_eps = max(finite)
    assert lines[-1] == "# argmax eps=%s tau_c=%.17g" % (best_eps, best_tau_c)
    assert summary["argmax_eps"] == best_eps
    assert summary["max_tau_c"] == "%.12g" % best_tau_c
    assert (out / "failures.csv").read_text().splitlines() == [
        "eps,tau,reason", '0,,"expected exactly one null eigenvalue, found 2"'] + [
        "%s,,a non-null eigenvalue has non-negative real part" % eps
        for eps in ("0.5", "0.6", "0.7", "0.8")]


def _decimal_text(m, places):
    """m 10^-places written as a plain decimal."""
    digits = str(m).rjust(places + 1, "0")
    return digits if places == 0 else digits[:-places] + "." + digits[-places:]


@st.composite
def _grid_ranges(draw):
    """An 'a:step:b' text of up to 17 significant digits a field, and its grid:
    the doubles nearest the decimals a + i step, from exact fractions."""
    places, digits = draw(st.integers(0, 16)), draw(st.integers(1, 17))
    # mantissas of exactly `digits` digits, so that past 12 the values need repr
    mantissas = st.integers(10 ** (digits - 1), 10 ** digits - 1)
    a = draw(st.one_of(st.just(0), mantissas))
    step, count = draw(mantissas), draw(st.integers(0, 3))
    text = ":".join(_decimal_text(m, places) for m in (a, step, a + count * step))
    return text, [float(Fraction(a + i * step, 10 ** places)) for i in range(count + 1)]


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_grid_ranges(), _grid_ranges())
def test_every_printed_grid_value_is_the_value_its_row_was_computed_at(eps_range,
                                                                       tau_range):
    # a + 2 step of 0.0:0.1:0.3 is 0.3, not 0.30000000000000004 printed as 0.3
    (eps_text, eps_grid), (tau_text, tau_grid) = eps_range, tau_range
    eps_only = eps_text.split(":")[0]
    calls = []

    def spy(g, eps, tau):
        calls.append((list(eps), list(tau)))
        return stability_map(g, eps, tau)

    stability_map = cli.delay_mod.stability_map
    for mode, flags, expected in (
            ("eps", ["--eps-range", eps_text], (eps_grid, [0.0])),
            ("tau_c", ["--eps-range", eps_text], (eps_grid, [0.0])),
            ("tau", ["--eps", eps_only, "--tau-range", tau_text],
             ([float(eps_only)], tau_grid)),
            ("two_d", ["--eps-range", eps_text, "--tau-range", tau_text],
             (eps_grid, tau_grid))):
        calls.clear()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli.delay_mod, "stability_map", spy)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run(["sweep", "--mode", mode, "--graph", sc.demo_graph_path(),
                            "--out", tmp] + flags) == 0
            summary = parse_summary(stdout.getvalue())
            lines = Path(summary["csv"]).read_text().splitlines()
            failures = Path(tmp, "failures.csv")
            failed = failures.read_text().splitlines()[1:] if failures.exists() else []
        # each row computed at the grid point its decimal names, and printed so
        assert calls == [expected]
        computed_eps, computed_tau = expected
        for k, row in enumerate(line.split(",") for line in lines[1:-1]):
            a, b = (k, 0) if mode == "tau_c" else divmod(k, len(computed_tau))
            assert float(row[0]) == computed_eps[a]
            assert mode == "tau_c" or float(row[1]) == computed_tau[b]
        for row in failed:
            eps, tau = row.split(",")[:2]
            assert float(eps) in computed_eps and (tau == "" or float(tau) in computed_tau)
        printed = dict(item.split("=") for item in lines[-1].split()[2:])
        for key in ("eps", "tau"):
            for value in (printed.get(key), summary.get("argmin_" + key),
                          summary.get("argmax_" + key)):
                grid = computed_eps if key == "eps" else computed_tau
                assert value is None or value == "nan" or float(value) in grid


def test_sweep_two_d(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run(["sweep", "--mode", "two_d", "--graph", sc.demo_graph_path(),
                "--eps-range", "0.9:0.2:1.3", "--tau-range", "0:0.1:0.3",
                "--out", str(out)])
    assert code == 0
    summary = parse_summary(capsys.readouterr().out)
    assert float(summary["min_re_lambda_r"]) < 0
    assert 0 <= float(summary["max_root_residual"]) <= 1e-10
    assert (out / "stability_map.csv").exists()


def test_verify_demo(capsys):
    assert run(["verify", "--graph", sc.demo_graph_path(), "--seed", "1"]) == 0
    summary = parse_summary(capsys.readouterr().out)
    assert summary["oracle_agreement"] == "pass"
    assert summary["crossing_bisection"] == "pass"
    assert summary["conservation"] == "pass"


def test_verify_random_graph(tmp_path, capsys):
    g = sc.random_strongly_connected(5, extra_edges=3, seed=12)
    path = tmp_path / "r.edges"
    sc.save_edge_list(g, str(path))
    assert run(["verify", "--graph", str(path), "--seed", "2"]) == 0


def test_verify_corrupted_graph(tmp_path, capsys):
    path = tmp_path / "c.edges"
    path.write_text("n 3\n1 2\nBROKEN\n")
    assert run(["verify", "--graph", str(path)]) == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--eps", "1.1000000000001"],
    ["analyze", "--eps", "1.1"],
    ["simulate", "--eps", "1.1", "--tau", "0.1000000000000001", "--t-final", "1"],
    ["simulate", "--eps", "1.1000000000001", "--tau", "0.1", "--t-final", "1"],
    ["simulate", "--eps", "1.1", "--tau", "0.1", "--t-final", "1"],
])
def test_every_echoed_eps_and_tau_is_the_value_the_run_used(argv, monkeypatch, capsys):
    # 1.1000000000001 printed with 12 digits would read 1.1, another double
    used = {"eps": [], "tau": []}
    build_system, simulate = cli.system_mod.build_system, cli.sim_mod.simulate

    def build_spy(g, eps):
        used["eps"].append(eps)
        return build_system(g, eps)

    def simulate_spy(m, cfg, csv_path=None):
        used["tau"].append(cfg.tau)
        return simulate(m, cfg, csv_path)

    monkeypatch.setattr(cli.system_mod, "build_system", build_spy)
    monkeypatch.setattr(cli.sim_mod, "simulate", simulate_spy)
    assert run(argv + ["--graph", sc.demo_graph_path()]) == 0
    captured = capsys.readouterr()
    summary = parse_summary(captured.out)
    # the run's own eps: analyze also builds M(0)
    eps, = set(used["eps"]) - {0.0}
    assert float(summary["eps"]) == eps
    if argv[0] == "simulate":
        assert float(summary["tau"]) == used["tau"][0]
    else:
        report = captured.err.splitlines()
        echoed = [line.split("(", 1)[1].split(")", 1)[0] for line in report
                  if line.startswith(("eigenvalues of M(", "tau_c("))]
        assert len(echoed) == 3 and echoed[0] == "0"
        assert [float(text) for text in echoed[1:]] == [eps, eps]
