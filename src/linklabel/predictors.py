"""The six link-label models plus the prior fallback and decision rule.

All models answer the same question: given a directed edge i -> j whose
label is unknown, and the initiator's other labeled out-edges (x, l_x) as
context, what is the probability of each label l? Each is one of two
combinators over one or two sides of evidence:

* the *target-link* models (LTLGM, GTLGM, STLGM) average one label
  distribution per context entry, with uniform weights;
* the *context-generator* models (LCGM, GCGM, SCGM) multiply one
  conditional p(l_x | l) per entry into the class prior, naive-Bayes style,
  in log space, and normalize.

With s, c_x and c_j the clusters of i, x and j, each side estimates
(num + alpha) / den where den > 0 (its support), and 0 elsewhere. num is
count(j, l, x, l_x) on the local (node-level) side and cam(s, c_x, l_x, c_j,
l), the cluster-s nodes reaching c_x with l_x and c_j with l, on the global
(cluster-level) side. den is, for target-link, num's sum over labels: the
count(j, ANY, x, l_x), or a sum of overlapping cluster counts, positive where
cam(s, c_x, l_x, c_j, ANY) is. For context-generator it is the mirrored
count(x, ANY, j, l), or cam(s, c_x, ANY, c_j, l), plus alpha * L. The floor
alpha = lcgm_floor_alpha holds for LCGM and GCGM only; it is 0 elsewhere.

LTLGM and LCGM answer from the local side, GTLGM and GCGM from the global
side. STLGM and SCGM mix the two, (1 - lambda) * local + lambda * global:
lambda = 1 where only the global side has support, 0 where only the local
side has, and mu / (n + mu) where both have (the Dirichlet weight of Zhai &
Lafferty, ACM TOIS 2004); mu = 0 gives lambda = 0. n is the local
estimate's own denominator in "support" mode, the other local count in
"paper" mode: count(x, ANY, j, l) for STLGM, count(j, ANY, x, l_x) for SCGM.
Only STLGM's paper-mode mix, label-dependent, is renormalized where both
sides have support.

Skip rules treat all labels alike, so no label is favored by missing data
alone. A target-link entry without support on any side it reads is skipped
and the weights renormalize over the survivors. A context-generator factor
is skipped for every label when some label has no support on either side;
with alpha > 0 every LCGM and GCGM factor has support. Every model returns
a LabelDistribution, either defined (a proper distribution) or undefined,
in which case ``decide`` substitutes the class prior and flags the
fallback. A target-link query without a surviving entry is undefined, as
are all-zero generator scores; an empty context gives a generator the prior.

One evidence layer and one combine serve every model and both entry
points. Evidence is an ``EvidenceBlock``: context entries with their
node-level counts, read through the one node-count reader
(``counts.node_evidence``), so on-demand counts and a precomputed or
stream-updated store serve both. ``predict`` fills a block of one query;
``predict_many`` fills blocks of many queries, a receiver block at a time
(``context_evidence``). ``_answer`` adds the entries' cluster-level counts,
takes each side's estimate and the mix, and ``_ordered_sum`` adds the
per-entry terms or log factors per query in context order, the float order
of a loop over the context. The two entry points therefore give the same
floats, and ``predict``'s support records come from the same per-entry
arrays. ``decide_many`` is the matching form of ``decide``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counts import (ClusterCounts, CooccurrenceCounts, EvidenceBlock, cluster_evidence,
                     context_evidence, node_evidence)
from .graph import PredictionQuery, SignedGraph, context_of

#: Recognized model kinds, in canonical order.
MODEL_KINDS = ("prior", "ltlgm", "lcgm", "gtlgm", "gcgm", "stlgm", "scgm")

#: Kinds that need a partition and cluster-level counts.
CLUSTER_KINDS = ("gtlgm", "gcgm", "stlgm", "scgm")

#: Kinds that need node-level counts.
LOCAL_KINDS = ("ltlgm", "lcgm", "stlgm", "scgm")

#: Kinds that average one label distribution per context entry.
TARGET_KINDS = ("ltlgm", "gtlgm", "stlgm")


@dataclass
class LabelDistribution:
    """A probability vector over the label alphabet, or an explicit non-answer.

    When ``defined``, ``probs`` sums to 1 (within float error) with entries
    in [0, 1]. When undefined the caller must substitute the prior;
    ``decide`` does exactly that. ``support`` carries optional per-context-
    entry diagnostics (local evidence n, lambda used, how the entry was
    handled) and is only populated when a predictor is asked to collect it.
    """

    probs: Optional[np.ndarray]
    defined: bool
    support: Optional[list] = None

    @classmethod
    def from_probs(cls, probs, support=None) -> "LabelDistribution":
        return cls(np.asarray(probs, dtype=float), True, support)

    @classmethod
    def undefined(cls, support=None) -> "LabelDistribution":
        return cls(None, False, support)


@dataclass
class SmoothingConfig:
    """Shared tunables of the count-based models.

    mu: Dirichlet pseudo-count of the smoothed models; larger mu trusts
        cluster statistics more.
    lambda_mode: which local-evidence count n feeds lambda = mu/(n+mu).
        "support" (default) ties n to the denominator of the local estimator
        being smoothed, so lambda vanishes exactly where local evidence is
        solid; "paper" uses the mirrored counts instead (label-dependent for
        STLGM, making a renormalization necessary).
    lcgm_floor_alpha: Laplace floor for the raw LCGM/GCGM factor estimates;
        0 disables the floor (factors with empty support are then skipped
        symmetrically).
    prior_mode: "uniform" or "empirical" class prior for the generator
        models.
    """

    mu: float = 4.0
    lambda_mode: str = "support"
    lcgm_floor_alpha: float = 1.0
    prior_mode: str = "uniform"

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.lcgm_floor_alpha < 0:
            raise ValueError("lcgm_floor_alpha must be >= 0")
        if self.lambda_mode not in ("support", "paper"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.prior_mode not in ("uniform", "empirical"):
            raise ValueError(f"unknown prior_mode {self.prior_mode!r}")


def class_prior(graph: SignedGraph) -> LabelDistribution:
    """Empirical label distribution of the graph's edges."""
    if graph.edge_count == 0:
        raise ValueError("class prior needs at least one edge")
    return LabelDistribution.from_probs(graph.label_counts() / graph.edge_count)


def _prior_vector(graph: SignedGraph, config: SmoothingConfig) -> np.ndarray:
    if config.prior_mode == "empirical":
        return class_prior(graph).probs
    L = graph.alphabet.size
    return np.full(L, 1.0 / L)


def _tie_order(prior: LabelDistribution) -> list:
    """Label indices by higher prior, then lower index: the order exact ties break in."""
    if not prior.defined:
        raise ValueError("prior must be defined")
    return sorted(range(prior.probs.size), key=lambda l: (-float(prior.probs[l]), l))


def decide(dist: LabelDistribution, prior: LabelDistribution, graph=None):
    """Final label choice: argmax with prior fallback and deterministic ties.

    Returns (label_index, used_fallback). An undefined distribution is
    replaced by the prior (flag set). Exact probability ties break toward
    the label with the higher prior, then toward the lower label index.
    "Exact" means bitwise-equal floats: the averaging and log-space models
    add float terms, so a tie that holds in exact arithmetic can come out
    one ulp apart, and then the larger float wins without the tie rule.
    """
    order = _tie_order(prior)
    used_fallback = not dist.defined
    probs = prior.probs if used_fallback else dist.probs
    top = probs.max()
    return next(l for l in order if probs[l] == top), used_fallback


def decide_many(probs: np.ndarray, defined: np.ndarray, prior: LabelDistribution):
    """``decide`` for the rows of ``predict_many``, with the same tie rule.

    Returns (labels, used_fallback) as (Q,) arrays.
    """
    order = _tie_order(prior)
    p = np.where(defined[:, None], probs, prior.probs)
    top = p == p.max(axis=1, keepdims=True)
    return np.asarray(order)[np.argmax(top[:, order], axis=1)], ~defined


def _checked_kind(model_kind: str, graph, counts, cluster_counts, partition) -> str:
    # The partition may be bound to another graph over the same nodes
    # (``evaluate(reuse_clustering=True)``); the counts may not.
    kind = model_kind.lower()
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}; expected one of {MODEL_KINDS}")
    if kind in CLUSTER_KINDS and (cluster_counts is None or partition is None):
        raise ValueError(f"model {kind} needs a partition and cluster-level counts")
    if counts is not None and counts.graph is not graph:
        raise ValueError("counts must count over the same graph")
    if cluster_counts is not None and cluster_counts.graph is not graph:
        raise ValueError("cluster counts must count over the same graph")
    if cluster_counts is not None and partition is not cluster_counts.partition:
        raise ValueError("partition must be the one the cluster counts were built from")
    return kind


def predict(model_kind: str, graph: SignedGraph, query: PredictionQuery,
            counts: Optional[CooccurrenceCounts] = None,
            cluster_counts: Optional[ClusterCounts] = None,
            partition=None, config: Optional[SmoothingConfig] = None,
            collect_support: bool = False) -> LabelDistribution:
    """Answer one query with the model of the given kind.

    Validates that the components the kind requires are present and that
    any counts given count over ``graph``, the partition being the cluster
    counts' own. The "prior" kind ignores the query and returns the
    training class prior.
    Node-level counts are read from ``counts`` (``node_evidence``), so a
    precomputed or stream-updated store serves them as on-demand counts do;
    the answer equals ``predict_many``'s for the same query.
    """
    kind = _checked_kind(model_kind, graph, counts, cluster_counts, partition)
    config = config or SmoothingConfig()
    if kind in LOCAL_KINDS and counts is None:
        raise ValueError(f"model {kind} needs node-level counts")
    if kind == "prior":
        return class_prior(graph)
    ctx, mirrored = context_of(graph, query), _mirrored(kind, config)
    m = len(ctx)
    num = mir = None
    if mirrored is not None:
        num, mir = node_evidence(graph, counts.store, np.array([query.receiver]), 0,
                                 ctx.heads, ctx.labels, mirrored)
    blk = EvidenceBlock(np.zeros(1, dtype=np.int64), np.array([m]), np.zeros(m, dtype=np.int64),
                        np.arange(m), ctx.heads, ctx.labels, num, mir)
    probs, defined, used, lam, n = _answer(kind, blk, (query.initiator, query.receiver),
                                           cluster_counts, config, _log_prior(kind, graph, config))
    support = _support(kind, blk, used, lam, n) if collect_support else None
    if not defined[0]:
        return LabelDistribution.undefined(support)
    return LabelDistribution.from_probs(probs[0], support)


def _mirrored(kind: str, config: SmoothingConfig) -> Optional[bool]:
    """The node-level counts a kind reads: None none, False ``num``, True also the mirrored.

    The mirrored counts are the context-generator models' local denominator
    (``_local_den``), and the other local count that a paper-mode mix reads.
    """
    if kind not in LOCAL_KINDS:
        return None
    return kind not in TARGET_KINDS or (kind in CLUSTER_KINDS and config.lambda_mode == "paper")


def predict_many(model_kind: str, graph: SignedGraph, initiators, receivers,
                 counts: Optional[CooccurrenceCounts] = None,
                 cluster_counts: Optional[ClusterCounts] = None,
                 partition=None, config: Optional[SmoothingConfig] = None):
    """Answer many queries at once, bit for bit as ``predict`` answers each.

    Query q is ``initiators[q] -> receivers[q]``. Node-level counts are
    read from ``counts`` a receiver block at a time (``context_evidence``),
    cluster-level counts from the dense table (``cluster_evidence``). The
    estimates, the mix and the combine are those of ``predict``.

    Args:
        counts: node-level counts over ``graph`` itself, a precomputed or
            stream-updated store or on-demand counts; if None, on-demand
            counts of ``graph``.
        cluster_counts, partition: required for the cluster-backed kinds;
            the cluster counts must count over ``graph``, and ``partition``
            must be the one they were built from.
        config: smoothing settings (defaults if None).

    Returns:
        (probs, defined): probs is (Q, L) with NaN rows where the answer is
        undefined; defined is a (Q,) bool array.
    """
    kind = _checked_kind(model_kind, graph, counts, cluster_counts, partition)
    config = config or SmoothingConfig()
    initiators = np.asarray(initiators, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    if initiators.ndim != 1 or initiators.shape != receivers.shape:
        raise ValueError("initiators and receivers must be 1-D arrays of equal length")
    if np.any(initiators == receivers):
        raise ValueError("initiator and receiver must differ")
    n = graph.node_count
    if np.any((initiators < 0) | (initiators >= n) | (receivers < 0) | (receivers >= n)):
        raise ValueError("query node out of range")
    L = graph.alphabet.size
    probs = np.full((initiators.size, L), np.nan)
    defined = np.zeros(initiators.size, dtype=bool)
    if kind == "prior":
        probs[:] = class_prior(graph).probs
        defined[:] = True
        return probs, defined
    log_prior = _log_prior(kind, graph, config)
    counts = counts or CooccurrenceCounts.on_demand(graph)
    for blk in context_evidence(counts, initiators, receivers, _mirrored(kind, config)):
        q = blk.queries[blk.row]
        p, d, _, _, _ = _answer(kind, blk, (initiators[q], receivers[q]), cluster_counts, config,
                                log_prior)
        probs[blk.queries] = p
        defined[blk.queries] = d
    return probs, defined


# -- per-side estimates, the mix and the combine ----------------------------------------

# How each context entry was used, by the ``used`` codes of _answer: bit 1
# marks local evidence, bit 2 global evidence.
_USED = ("skipped", "local", "global", "blend")


def _log_prior(kind, graph, config):
    if kind in TARGET_KINDS:
        return None
    with np.errstate(divide="ignore"):
        return np.log(_prior_vector(graph, config))


def _local_den(blk, target: bool):
    """The local estimate's denominator; the other combinator's is the "other local count".

    count(j, ANY, x, l_x), as an (m, 1) column, divides the target-link
    models' local estimate; the mirrored count(x, ANY, j, l) divides the
    context-generator models'.
    """
    return blk.num.sum(axis=1, keepdims=True) if target else blk.mirrored


def _estimate(num, den, alpha):
    """One side's estimate: (num + alpha) / (den + alpha * L) where that is supported, else 0.

    Returns the estimate and its support, a positive floored denominator.
    Every count num is at most its den, so an unsupported estimate is 0 / 1.
    """
    if alpha:
        num, den = num + alpha, den + alpha * num.shape[1]
    has = den > 0
    return num / np.where(has, den, 1), has


def _mix(local, has_l, glob, has_g, n, mu):
    """(1 - lam) * local + lam * glob, and lam.

    lam = mu / (n + mu) where both sides have support, 1 where only the
    global side has, 0 elsewhere; mu = 0 gives lam = 0.
    """
    lam = mu / (n + mu) if mu else np.zeros(n.shape)
    lam = np.where(has_g, np.where(has_l, lam, 1.0), 0.0)
    return (1.0 - lam) * local + lam * glob, lam


def _answer(kind, blk, ends, cluster_counts, config, log_prior):
    """(probs, defined, used, lam, n) of the block's queries.

    Each side's estimate, the mix where the kind reads both sides, then the
    kind's combine. ``ends`` are each entry's initiator and receiver
    (scalars for one query). ``used`` is each entry's code in ``_USED``,
    ``lam`` the mix weight (None without a mix) and ``n`` the support count
    of the local side, else of the global side. Float warnings are
    silenced: a 0/0 only fills a masked entry or the NaN row of an undefined
    query, and log(0) = -inf is a factor of zero.
    """
    target, local, glob = kind in TARGET_KINDS, kind in LOCAL_KINDS, kind in CLUSTER_KINDS
    alpha = 0 if target or (local and glob) else config.lcgm_floor_alpha
    has_l = has_g = False
    lam = None
    with np.errstate(divide="ignore", invalid="ignore"):
        if local:
            n = _local_den(blk, target)
            p_l, has_l = _estimate(blk.num, n, alpha)
        if glob:
            asg = cluster_counts.partition.assignment
            gnum, gany, gmir = cluster_evidence(cluster_counts, asg[ends[0]], asg[blk.heads],
                                                blk.labels, asg[ends[1]])
            p_g, has_g = _estimate(gnum, gnum.sum(axis=1, keepdims=True) if target else gmir,
                                   alpha)
        if local and glob:
            paper = config.lambda_mode == "paper"
            term, lam = _mix(p_l, has_l, p_g, has_g, _local_den(blk, not target) if paper else n,
                             config.mu)
            if target and paper:
                # The label-dependent blend is renormalized where it is
                # two-sided. Its sum is positive: p_g has a positive label
                # and lam > 0 where mu > 0, and with mu = 0 the blend is p_l.
                term /= np.where(has_l & has_g, term.sum(axis=1, keepdims=True), 1.0)
            has = has_l | has_g
        elif local:
            term, has = p_l, has_l
        else:
            term, has, n = p_g, has_g, gany if target else gmir
        if target:
            used = (has_l + 2 * has_g)[:, 0]
            return (*_average(blk, used, term), used, lam, n)
        keep = has.all(axis=1)
        log_p = np.where(keep[:, None], np.log(term), 0.0)
        return (*_log_product(blk, log_p, log_prior), keep * (local + 2 * glob), lam, n)


def _ordered_sum(blk, values, start):
    """Each query's per-entry ``values`` added one by one, in context order, to ``start``.

    Every value sits at (query, position + 1) of a zero grid whose column 0
    holds ``start``; the running sum along the positions makes exactly the
    additions of a loop over the context, and a skipped entry's zero is an
    exact no-op.
    """
    grid = np.zeros((blk.queries.size, int(blk.sizes.max(initial=0)) + 1, values.shape[1]))
    grid[:, 0] = start
    grid[blk.row, blk.position + 1] = values
    return np.add.accumulate(grid, axis=1)[:, -1]


def _average(blk, used, term):
    # Weighted mean of the used entries' terms, each of weight 1 / (context
    # size); the weights are summed alongside. A query with no used entry
    # divides 0 by 0 and comes out NaN, undefined.
    w = ((used > 0) / blk.sizes[blk.row])[:, None]
    total = _ordered_sum(blk, np.concatenate((w * term, w), axis=1), 0.0)
    return total[:, :-1] / total[:, -1:], total[:, -1] > 0.0


def _log_product(blk, log_p, log_prior):
    # Prior times the kept factors in log space, then normalized. All-zero
    # scores (max -inf) come out NaN, undefined.
    scores = _ordered_sum(blk, log_p, log_prior)
    m = scores.max(axis=1, keepdims=True)
    w = np.exp(scores - m)
    return w / w.sum(axis=1, keepdims=True), m[:, 0] != -np.inf


def _support(kind, blk, used, lam, n) -> list:
    """``collect_support`` records of one query, from ``_answer``'s per-entry arrays.

    Every record has the entry's head, label and use. The one-sided models
    and STLGM add ``_answer``'s n, which LCGM and GCGM (per label) report for
    used factors only; the smoothed models add lambda for used entries, a
    float where STLGM's is label-independent.
    """
    target = kind in TARGET_KINDS
    cols = {"head": blk.heads.tolist(), "label": blk.labels.tolist(),
            "used": [_USED[u] for u in used.tolist()]}
    if lam is None or target:
        cols["n_local" if kind in LOCAL_KINDS else "n_global"] = (n.ravel() if target else n).tolist()
    if lam is not None:
        rows = lam.tolist()
        cols["lambda"] = rows if not target else [
            row if u == 3 and len(row) > 1 else row[0] for row, u in zip(rows, used.tolist())]
    drop = ("lambda",) if target else ("lambda", "n_local", "n_global")
    return [{k: v[e] for k, v in cols.items() if u or k not in drop}
            for e, u in enumerate(used.tolist())]
