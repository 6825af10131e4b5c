"""Everything generalizes past +/-: a three-label diplomacy network.

The label alphabet is pluggable. This script builds a small network of
states whose directed relations are "ally", "rival" or "neutral", loads it
through the same parser used for signed data, and runs the full stack on
it: counts, clustering, prediction and cross-validated evaluation.
"""

import os
import tempfile

import numpy as np

from linklabel import (
    ClusterConfig,
    ClusterCounts,
    CooccurrenceCounts,
    LabelAlphabet,
    LoadOptions,
    PredictionQuery,
    class_prior,
    cluster,
    decide,
    evaluate,
    load_edge_list,
    make_folds,
    predict,
)

DIPLOMACY = LabelAlphabet(("ally", "rival", "neutral"))

# Two blocs (a*, b*) plus two unaligned brokers. Within a bloc everyone is
# allied; across blocs mostly rivals; brokers stay neutral-ish.
TEXT = """\
a1 a2 ally
a2 a1 ally
a1 a3 ally
a3 a2 ally
b1 b2 ally
b2 b3 ally
b3 b1 ally
a1 b1 rival
a2 b1 rival
a3 b2 rival
b1 a2 rival
b2 a3 rival
b3 a1 rival
m1 a1 neutral
m1 b1 neutral
m2 a2 neutral
m2 b2 neutral
a1 m1 neutral
b1 m2 neutral
"""

# The loader reads a file; write the text to one that is removed after.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "diplomacy.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TEXT)
    graph, report = load_edge_list(path, LoadOptions(alphabet=DIPLOMACY))
counts = np.asarray(graph.label_counts())
print(f"loaded {graph.node_count} states, {graph.edge_count} relations")
for name, c in zip(DIPLOMACY.names, counts):
    print(f"  {name:>8}: {c}")

# Cluster the states. The label-entropy objective does not know about
# blocs, only about making cluster-pair label splits pure.
part, _trace = cluster(graph, ClusterConfig(K=3, restarts=5, seed=1))
by_cluster = {}
for v in range(graph.node_count):
    by_cluster.setdefault(int(part.assignment[v]), []).append(graph.external_of(v))
print("recovered clusters:")
for cid, members in sorted(by_cluster.items()):
    print(f"  cluster {cid}: {sorted(members)}")

# Predict a held-out relation: how would a3 see b3? The local models have
# never seen that pair, but a3's other edges plus the cluster structure
# carry the answer.
node_counts = CooccurrenceCounts.on_demand(graph)
cluster_counts = ClusterCounts.from_partition(graph, part)
query = PredictionQuery(graph.node_of("a3"), graph.node_of("b3"))
prior = class_prior(graph)
for kind in ("ltlgm", "stlgm"):
    dist = predict(kind, graph, query, counts=node_counts,
                   cluster_counts=cluster_counts, partition=part)
    label, fell_back = decide(dist, prior)
    probs = None if not dist.defined else np.round(dist.probs, 3)
    print(f"{kind}: a3 -> b3 predicted {DIPLOMACY.names[label]!r} "
          f"(fallback={fell_back}, probs={probs})")

# The evaluation harness is label-count agnostic as well: stratified folds
# keep all three classes represented in every test slice.
plan = make_folds(graph, k=3, seed=0, stratified=True)
rep = evaluate(graph, "stlgm", fold_plan=plan,
               cluster_config=ClusterConfig(K=3, restarts=5, seed=1))
print(f"3-fold balanced accuracy (stlgm): {rep.balanced_accuracy:.3f}, "
      f"fallback rate {rep.fallback_rate:.2f}")
