"""The README's summary-key and exit-code tables, and the module attributes,
constant values and class names it cites, agree with the code, and the README
narrates no interface history."""

import builtins
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import surplus_consensus as sc
from surplus_consensus import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# each row of the summary-key table, as the commands that print it (small grids on demo6)
ROW_COMMANDS = {
    "analyze": [["analyze"]],
    "analyze --eps": [["analyze", "--eps", "1.1"]],
    "simulate": [["simulate", "--eps", "1.1", "--tau", "0.1", "--t-final", "1"]],
    "sweep --mode eps|tau|two_d": [
        ["sweep", "--mode", "eps", "--eps-range", "0.5:0.5:1", "--out", "{out}"],
        ["sweep", "--mode", "tau", "--eps", "1.1", "--tau-range", "0:0.1:0.2", "--out", "{out}"],
        ["sweep", "--mode", "two_d", "--eps-range", "0.5:0.5:1", "--tau-range", "0:0.1:0.1",
         "--out", "{out}"],
    ],
    "sweep --mode tau_c": [["sweep", "--mode", "tau_c", "--eps-range", "0.5:0.5:1",
                            "--out", "{out}"]],
    "verify": [["verify"]],
}


def readme_table(header):
    """The body rows of the README table that starts with the line header, as
    lists of cells; an escaped pipe in a cell reads as a pipe."""
    lines = README.read_text().splitlines()
    start = lines.index(header) + 2  # past the header and the separator line
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line.strip()[1:-1])
        rows.append([cell.strip().replace("\\|", "|") for cell in cells])
    return rows


def code_spans(cell):
    return re.findall(r"`([^`]+)`", cell)


def summary_rows():
    return {code_spans(command)[0]: code_spans(keys)
            for command, keys in readme_table("| Command | Summary keys |")}


def test_summary_table_has_a_row_per_command():
    assert list(summary_rows()) == list(ROW_COMMANDS)


@pytest.mark.parametrize("row", list(ROW_COMMANDS))
def test_summary_keys_match_the_printed_line(row, tmp_path, capsys):
    keys = summary_rows()[row]
    for argv in ROW_COMMANDS[row]:
        argv = [a.replace("{out}", str(tmp_path / "out")) for a in argv]
        assert cli.main(argv + ["--graph", sc.demo_graph_path()]) == cli.EXIT_OK, argv
        line, = capsys.readouterr().out.splitlines()
        assert [item.split("=", 1)[0] for item in shlex.split(line)] == keys, argv


def test_exit_code_table_lists_every_exit_constant():
    table = {}
    for code, constant, _ in readme_table("| Code | Constant | Meaning |"):
        name = re.fullmatch(r"`cli\.(EXIT_\w+)`", constant).group(1)
        table[int(code)] = name
    constants = {value: name for name, value in vars(cli).items()
                 if name.startswith("EXIT_") and isinstance(value, int)}
    assert table == constants


def test_named_module_attributes_exist():
    modules = {info.name for info in pkgutil.iter_modules(sc.__path__)}
    named = [(module, name) for module, name in
             re.findall(r"`(\w+)\.(\w+)`", README.read_text()) if module in modules]
    assert len(named) >= 15
    missing = [module + "." + name for module, name in named
               if not hasattr(importlib.import_module("surplus_consensus." + module), name)]
    assert missing == []


SUPERSCRIPT_DIGITS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def readme_number(text):
    """A number as the README writes it: 2,000, 1e-4 or 10⁸."""
    power = re.fullmatch(r"10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)", text)
    if power:
        return 10 ** int(power.group(1).translate(SUPERSCRIPT_DIGITS))
    return float(text.replace(",", ""))


def test_named_module_constants_have_their_stated_values():
    # a span such as `graph.MAX_NODES` (2,000) states the attribute's value
    modules = {info.name for info in pkgutil.iter_modules(sc.__path__)}
    stated = [(module, name, text) for module, name, text in
              re.findall(r"`(\w+)\.(\w+)`\s+\(([^)]*)\)", README.read_text())
              if module in modules]
    assert len(stated) >= 9
    wrong = ["%s.%s (%s)" % (module, name, text) for module, name, text in stated
             if getattr(importlib.import_module("surplus_consensus." + module), name)
             != readme_number(text)]
    assert wrong == []


def test_named_classes_exist():
    # a CamelCase code span, such as `Spectrum`; the lowercase letter skips `FAIL`
    named = set(re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`", README.read_text()))
    assert len(named) >= 10
    assert sorted(name for name in named
                  if not hasattr(sc, name) and not hasattr(builtins, name)) == []


def test_readme_narrates_no_interface_change():
    # a change of interface is recorded in CHANGES.md, not in the README
    assert "Interface change" not in README.read_text()


def test_cited_benchmark_records_exist():
    # a BENCH_*.json the README cites as evidence is committed at the repo root
    cited = set(re.findall(r"BENCH_\w+\.json", README.read_text()))
    assert cited
    assert sorted(name for name in cited if not (README.parent / name).is_file()) == []
