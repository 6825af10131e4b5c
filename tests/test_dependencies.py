"""The package imports nothing at run time beyond the standard library and numpy,
and nothing of numpy that counting does not need (``numpy.ma``)."""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "linklabel"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "linklabel"}

# Every count path the package has: a store build, batched prediction from
# the store and from the graph, a stream batch with a relabel and a new
# node, the export of both count tables as snapshots (the views' bulk
# decode), clustering and cross-validation. It runs in a scratch directory,
# which the snapshots are written to.
WORKLOAD = """
import sys
import numpy as np
from linklabel import (MODEL_KINDS, ClusterConfig, ClusterCounts, CooccurrenceCounts,
                       apply_edge_batch, build_precomputed_nam, cluster, evaluate,
                       generate_planted, make_folds, predict_many, save_cam_snapshot,
                       save_nam_snapshot)
g, _ = generate_planted(60, 3, 0.15, 0.1, seed=0)
part, _ = cluster(g, ClusterConfig(K=3))
store, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
i, j = np.nonzero(~np.eye(g.node_count, dtype=bool))
for counts in (store, CooccurrenceCounts.on_demand(g)):
    for kind in MODEL_KINDS:
        predict_many(kind, g, i, j, counts=counts, cluster_counts=cc, partition=part)
s, d, l = next(g.edges())
ext = g.external_ids
g, report = apply_edge_batch(store, cc, g, [(ext[s], ext[d], 1 - l), ("new", ext[0], 0)])
assert (report.relabeled, report.new_nodes) == (1, 1)
save_nam_snapshot(store, "nam.txt")
save_cam_snapshot(cc, "cam.txt")
evaluate(g, "stlgm", cluster_config=ClusterConfig(K=3), fold_plan=make_folds(g, 3, seed=0))
print("numpy.ma" in sys.modules)
"""


def imported_modules(tree):
    """(line, top-level name) of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7
    foreign = [f"{path.name}:{line}: {name}"
               for path in modules
               for line, name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
               if name not in ALLOWED]
    assert foreign == []


def test_a_foreign_import_is_caught():
    tree = ast.parse("import os\nimport scipy.sparse\nfrom numpy import zeros\n"
                     "from .graph import SignedGraph\nfrom pandas import DataFrame\n")
    assert [name for _, name in imported_modules(tree) if name not in ALLOWED] == [
        "scipy", "pandas"]


def test_counting_and_prediction_leave_numpy_ma_unimported(tmp_path):
    # numpy imports numpy.ma lazily, on first use (np.unique is one); a
    # process that only counts, predicts, streams, exports and clusters never
    # needs it.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", WORKLOAD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["False"]
    assert all((tmp_path / name).stat().st_size > 100 for name in ("nam.txt", "cam.txt"))
