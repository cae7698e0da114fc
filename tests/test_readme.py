"""The README's library example and CLI commands run as written."""

import re
import shlex
from pathlib import Path

import surplus_consensus as sc
from surplus_consensus import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    verdict, target = capsys.readouterr().out.split()
    assert verdict == "converged"
    assert float(target) == 14.0 / 6.0


def readme_cli_commands():
    """Each `surplus-consensus` command of the README's CLI block, as argv."""
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
              if "surplus-consensus " in b]
    assert len(blocks) == 1
    text = blocks[0].replace("\\\n", " ")
    return [shlex.split(line) for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_readme_cli_commands_run(tmp_path, capsys):
    commands = readme_cli_commands()
    assert {argv[1] for argv in commands} == {"analyze", "simulate", "sweep", "verify"}
    for argv in commands:
        assert argv[0] == "surplus-consensus"
        argv = [sc.demo_graph_path() if a == "graph.edges" else
                str(tmp_path / "out") if a == "out/" else a for a in argv[1:]]
        assert cli.main(argv) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("command=%s " % argv[0]), lines


def test_readme_entry_points_exist():
    sentence = re.search(r"Other entry points:(.*?)\.\n", README.read_text(), re.DOTALL)
    names = re.findall(r"`(\w+)`", sentence.group(1))
    assert len(names) >= 10
    assert [name for name in names if not hasattr(sc, name)] == []
