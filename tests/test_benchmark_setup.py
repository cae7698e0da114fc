"""The benchmark's set-up child runs on this tree. perfbench/run.py's SETUP_CODE is
taken from the file's text with ast, since importing run.py would set the BLAS
thread variables for the whole test session."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surplus_consensus as sc

ROOT = Path(__file__).resolve().parents[1]


def setup_code():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    code, = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]]
    return code


@pytest.mark.parametrize("suffix", [".edges", ".json"])
def test_benchmark_setup_child_reads_the_graph_from_this_tree(tmp_path, suffix):
    g = sc.random_strongly_connected(8, 8, seed=3)
    path = tmp_path / ("g" + suffix)
    if suffix == ".json":
        path.write_text(json.dumps({"n": g.n, "adjacency": sc.adjacency(g).tolist()}))
    else:
        sc.save_edge_list(g, str(path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", setup_code(), str(path)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert Path(child.stdout.strip()).resolve().is_relative_to(ROOT / "src"), child.stdout
