"""Cross-validated evaluation, sparsity sweeps and sample-count analysis.

The protocol: edges are dealt into k folds; each fold in turn becomes the
test set while the remaining edges form the training graph (same node
universe, so sparsely connected test endpoints simply have thin contexts).
Each test edge is posed as a query against the training graph, decided with
the prior as fallback, and scored with balanced accuracy, the mean of
per-class true-positive rates, which is robust to the heavy label skew of
real signed networks. A fold's test edges are predicted together with
``predict_many``, which gives the same answers as ``predict`` on each.

Cluster-backed models re-run the clustering on every fold's training graph
by default; ``reuse_clustering`` clusters once on the full graph instead,
which leaks test edges into the partition and is only offered as a
documented speed/fidelity trade.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .clustering import ClusterConfig, cluster
from .counts import ClusterCounts, CooccurrenceCounts, _find, context_evidence
from .graph import SignedGraph, sparsify
# ``predict`` stays importable here, where callers may patch it.
from .predictors import (CLUSTER_KINDS, LOCAL_KINDS, MODEL_KINDS,  # noqa: F401
                         TARGET_KINDS, SmoothingConfig, _local_den, _mirrored, class_prior,
                         decide_many, predict, predict_many)


@dataclass
class FoldPlan:
    """Assignment of every edge (by canonical edge index) to one of k folds."""

    k: int
    seed: int
    fold_of_edge: np.ndarray

    def fold_sizes(self) -> np.ndarray:
        return np.bincount(self.fold_of_edge, minlength=self.k)


def make_folds(graph: SignedGraph, k: int, seed: int, stratified: bool = False) -> FoldPlan:
    """Deal edges round-robin into k folds after a seeded shuffle.

    Fold sizes differ by at most one. With ``stratified`` each label class
    is shuffled separately and the deal carries on from one class to the
    next, keeping per-fold label shares close to global.

    Args:
        graph: the graph whose edges are split.
        k: number of folds, >= 2.
        seed: permutation seed.
        stratified: per-label dealing instead of plain.

    Raises:
        ValueError: k < 2 or fewer edges than folds.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    e = graph.edge_count
    if e < k:
        raise ValueError(f"cannot split {e} edges into {k} folds")
    rng = np.random.default_rng(seed)
    fold = np.empty(e, dtype=np.int64)
    if stratified:
        _, _, lbl = graph.edge_arrays
        dealt = 0
        for l in range(graph.alphabet.size):
            idx = np.flatnonzero(lbl == l)
            perm = idx[rng.permutation(idx.size)]
            fold[perm] = (dealt + np.arange(perm.size)) % k
            dealt += perm.size
    else:
        perm = rng.permutation(e)
        fold[perm] = np.arange(e) % k
    return FoldPlan(k, seed, fold)


def balanced_accuracy(confusion) -> float:
    """Mean per-class true-positive rate; classes with no true instances are excluded.

    Args:
        confusion: square matrix, rows = true class, columns = predicted.

    Raises:
        ValueError: no class has any true instance.
    """
    confusion = np.asarray(confusion, dtype=np.int64)
    totals = confusion.sum(axis=1)
    present = totals > 0
    if not np.any(present):
        raise ValueError("confusion matrix has no true instances")
    tpr = np.diag(confusion)[present] / totals[present]
    return float(tpr.mean())


@dataclass
class EvalReport:
    """Aggregated outcome of one cross-validated evaluation."""

    model: str
    k: int
    confusion: np.ndarray
    per_class_tpr: list                  # None where the class had no true instance
    excluded_classes: list
    balanced_accuracy: float
    accuracy: float
    fallback_rate: float
    fallback_count: int
    test_edges: int
    per_fold: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_records(self) -> list:
        """Machine-readable records: one per fold plus one total."""
        records = []
        for row in self.per_fold:
            records.append({"record": "fold", **row})
        records.append({
            "record": "total", "model": self.model, "folds": self.k,
            "confusion": self.confusion.tolist(),
            "per_class_tpr": self.per_class_tpr,
            "excluded_classes": self.excluded_classes,
            "balanced_accuracy": self.balanced_accuracy,
            "accuracy": self.accuracy,
            "fallback_rate": self.fallback_rate,
            "fallback_count": self.fallback_count,
            "test_edges": self.test_edges,
        })
        return records

    def human_table(self, label_names: Optional[Sequence[str]] = None) -> str:
        names = list(label_names) if label_names else [str(i) for i in range(len(self.confusion))]
        lines = [f"model {self.model}  folds {self.k}  test edges {self.test_edges}"]
        width = max(8, max(len(n) for n in names) + 2)
        header = " " * width + "".join(f"{('pred ' + n):>{width}}" for n in names)
        lines.append(header)
        for i, n in enumerate(names):
            row = f"{('true ' + n):<{width}}" + "".join(
                f"{int(c):>{width}}" for c in self.confusion[i])
            lines.append(row)
        tprs = ", ".join(
            f"{n}: {'n/a' if t is None else f'{t:.4f}'}"
            for n, t in zip(names, self.per_class_tpr))
        lines.append(f"per-class TPR  {tprs}")
        lines.append(f"balanced accuracy {self.balanced_accuracy:.4f}   "
                     f"accuracy {self.accuracy:.4f}   "
                     f"fallback rate {self.fallback_rate:.4f}")
        return "\n".join(lines)


def _train_graph_for_fold(graph: SignedGraph, plan: FoldPlan, fold: int) -> SignedGraph:
    src, dst, lbl = graph.edge_arrays
    keep = plan.fold_of_edge != fold
    return graph.replace_edges(src[keep], dst[keep], lbl[keep])


def _assert_fold_hygiene(train: SignedGraph, test_src, test_dst) -> None:
    # No test pair may appear in its fold's training graph.
    src, dst, _ = train.edge_arrays
    n = train.node_count
    if _find(src * n + dst, test_src * n + test_dst)[1].any():
        raise AssertionError("test edge leaked into its training graph")


def evaluate(graph: SignedGraph, model_kind: str,
             model_config: Optional[SmoothingConfig] = None,
             cluster_config: Optional[ClusterConfig] = None,
             fold_plan: Optional[FoldPlan] = None,
             reuse_clustering: bool = False, threads: int = 1) -> EvalReport:
    """Cross-validate one model on one graph.

    Per fold, the training graph is every edge outside the fold; cluster-
    backed models cluster that training graph with a per-fold seed
    (cluster_config.seed + fold). The fold's test edges are predicted in
    one ``predict_many`` call and decided against the training prior.
    Results are deterministic for fixed seeds.

    Args:
        graph: full dataset.
        model_kind: one of MODEL_KINDS.
        model_config: smoothing/floor/prior settings (defaults if None).
        cluster_config: required for cluster-backed kinds.
        fold_plan: from make_folds; required.
        reuse_clustering: cluster once on the full graph (test edges leak
            into the partition; faster, documented deviation).
        threads: accepted for compatibility and without effect; the
            batched prediction runs in the calling thread.

    Returns:
        EvalReport with pooled confusion, per-class TPR and fallback stats.
    """
    kind = model_kind.lower()
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    if fold_plan is None:
        raise ValueError("fold_plan is required")
    if kind in CLUSTER_KINDS and cluster_config is None:
        raise ValueError(f"model {kind} needs a cluster_config")
    model_config = model_config or SmoothingConfig()
    L = graph.alphabet.size
    src, dst, lbl = graph.edge_arrays

    full_partition = None
    if kind in CLUSTER_KINDS and reuse_clustering:
        full_partition, _ = cluster(graph, cluster_config)

    confusion = np.zeros((L, L), dtype=np.int64)
    fallback_count = 0
    per_fold = []
    for f in range(fold_plan.k):
        test = np.flatnonzero(fold_plan.fold_of_edge == f)
        train = _train_graph_for_fold(graph, fold_plan, f)
        _assert_fold_hygiene(train, src[test], dst[test])
        prior = class_prior(train)
        partition = None
        cluster_counts = None
        if kind in CLUSTER_KINDS:
            if reuse_clustering:
                partition = full_partition
            else:
                fold_cfg = replace(cluster_config, seed=cluster_config.seed + f)
                partition, _ = cluster(train, fold_cfg)
            cluster_counts = ClusterCounts.from_partition(train, partition)
        probs, defined = predict_many(kind, train, src[test], dst[test],
                                      cluster_counts=cluster_counts,
                                      partition=partition, config=model_config)
        labels, fallback = decide_many(probs, defined, prior)
        fold_conf = np.bincount(lbl[test] * L + labels, minlength=L * L).reshape(L, L)
        fold_fb = int(fallback.sum())
        confusion += fold_conf
        fallback_count += fold_fb
        per_fold.append({
            "fold": f, "test_edges": int(test.size),
            "balanced_accuracy": balanced_accuracy(fold_conf),
            "fallback_count": fold_fb,
            "confusion": fold_conf.tolist(),
        })

    totals = confusion.sum(axis=1)
    per_class = [float(confusion[i, i] / totals[i]) if totals[i] else None for i in range(L)]
    excluded = [i for i in range(L) if totals[i] == 0]
    total = int(confusion.sum())
    report = EvalReport(
        model=kind, k=fold_plan.k, confusion=confusion,
        per_class_tpr=per_class, excluded_classes=excluded,
        balanced_accuracy=balanced_accuracy(confusion),
        accuracy=float(np.trace(confusion) / total),
        fallback_rate=float(fallback_count / total),
        fallback_count=fallback_count,
        test_edges=total, per_fold=per_fold,
        config=config_echo(model_config, cluster_config, model=kind, folds=fold_plan.k,
                           fold_seed=fold_plan.seed, reuse_clustering=bool(reuse_clustering)),
    )
    return report


def config_echo(model_config: Optional[SmoothingConfig] = None,
                cluster_config: Optional[ClusterConfig] = None, **fields) -> dict:
    """The resolved configuration that reports and CLI artifacts echo.

    ``fields``, then every smoothing setting at top level, then the
    clustering settings under "clustering"; absent configs are left out.
    """
    echo = dict(fields)
    if model_config is not None:
        echo.update(asdict(model_config))
    if cluster_config is not None:
        echo["clustering"] = asdict(cluster_config)
    return echo


def sparsity_sweep(graph: SignedGraph, densities: Sequence[float],
                   models: Sequence[str], model_config: Optional[SmoothingConfig] = None,
                   cluster_config: Optional[ClusterConfig] = None,
                   folds: int = 10, seed: int = 0, threads: int = 1) -> list:
    """Evaluate each model at each edge density; one record per (density, model).

    Density d keeps round(d * edge_count) edges (nodes retained). The
    sparsified graph for the i-th density uses seed + i; fold plans reuse
    ``seed``, so the density 1.0 rows coincide with plain evaluate runs.
    ``threads`` is passed to ``evaluate``, where it has no effect.
    """
    for d in densities:
        if not (0.0 < d <= 1.0):
            raise ValueError(f"density {d} outside (0, 1]")
    model_config = model_config or SmoothingConfig()
    records = []
    for i, d in enumerate(densities):
        g = sparsify(graph, d, seed + i)
        plan = make_folds(g, folds, seed)
        for m in models:
            rep = evaluate(g, m, model_config, cluster_config, plan,
                           threads=threads)
            records.append({
                "record": "sweep", "density": float(d), "model": rep.model,
                "edges": g.edge_count,
                "balanced_accuracy": rep.balanced_accuracy,
                "accuracy": rep.accuracy,
                "fallback_rate": rep.fallback_rate,
            })
    return records


def param_sample_cdf(graph: SignedGraph, fold_plan: FoldPlan, model_kind: str,
                     thresholds: Sequence[int]) -> dict:
    """Distribution of evidence counts behind the local models' parameters.

    For every test query and context entry, records the sample count backing
    each estimated parameter: the entry's denominator for LTLGM (one
    parameter per entry), the per-label factor denominators for LCGM (one
    parameter per entry per label). Reports, per threshold t, the fraction
    of parameters estimated from fewer than t samples.

    Returns:
        {"model", "total_parameters", "fractions": {t: fraction}}.
    """
    kind = model_kind.lower()
    if kind not in LOCAL_KINDS or kind in CLUSTER_KINDS:
        raise ValueError("sample-count analysis applies to the local models only")
    src, dst, _ = graph.edge_arrays
    mirrored = _mirrored(kind, SmoothingConfig())
    all_counts = []
    for f in range(fold_plan.k):
        train = _train_graph_for_fold(graph, fold_plan, f)
        test = np.flatnonzero(fold_plan.fold_of_edge == f)
        for blk in context_evidence(CooccurrenceCounts.on_demand(train), src[test], dst[test],
                                    mirrored):
            all_counts.append(_local_den(blk, kind in TARGET_KINDS).ravel())
    arr = np.concatenate(all_counts) if all_counts else np.empty(0, dtype=np.int64)
    fractions = {int(t): (float((arr < t).mean()) if arr.size else 0.0)
                 for t in thresholds}
    return {"model": kind, "total_parameters": int(arr.size), "fractions": fractions}
