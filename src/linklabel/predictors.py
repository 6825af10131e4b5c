"""The six link-label models plus the prior fallback and decision rule.

All models answer the same question: given a directed edge whose label is
unknown, and the initiator's other labeled out-edges as context, what is the
probability of each label? They differ in which statistics back the answer:

* LTLGM / LCGM use node-level co-pointing counts (local evidence);
* GTLGM / GCGM use the same constructions lifted to cluster level, which is
  dense but coarse;
* STLGM / SCGM blend each local estimate with its cluster-level counterpart
  through a Dirichlet-style weight lambda = mu / (n + mu), where n measures
  how much local evidence exists: scarce evidence pushes weight onto the
  cluster statistics.

The *target-link* models (LTLGM, GTLGM, STLGM) average one label
distribution per context edge; the *context-generator* models (LCGM, GCGM,
SCGM) multiply per-context-edge conditionals under each candidate label,
naive-Bayes style, in log space.

Every model returns a LabelDistribution which is either defined (a proper
distribution) or undefined, in which case ``decide`` substitutes the class
prior and flags the fallback. Undefined arises when no context entry has any
usable support; the skip rules below treat all labels symmetrically so no
label is ever favored by missing data alone.

``predict`` answers one query; ``predict_many`` answers many against one
graph from batched evidence and gives the same floats, and ``decide_many``
is the matching form of ``decide``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .counts import ANY, ClusterCounts, ClusterEvidence, CooccurrenceCounts, context_evidence
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


def decide(dist: LabelDistribution, prior: LabelDistribution, graph=None):
    """Final label choice: argmax with prior fallback and deterministic ties.

    Returns (label_index, used_fallback). An undefined distribution is
    replaced by the prior (flag set). Exact probability ties break toward
    the label with the higher prior, then toward the lower label index.
    "Exact" means bitwise-equal floats: the averaging and log-space models
    add float terms, so a tie that holds in exact arithmetic can come out
    one ulp apart, and then the larger float wins without the tie rule.
    """
    if not prior.defined:
        raise ValueError("prior must be defined")
    used_fallback = not dist.defined
    probs = prior.probs if used_fallback else dist.probs
    top = probs.max()
    cands = np.flatnonzero(probs == top).tolist()
    label = min(cands, key=lambda l: (-float(prior.probs[l]), l))
    return label, used_fallback


def decide_many(probs: np.ndarray, defined: np.ndarray, prior: LabelDistribution):
    """``decide`` for the rows of ``predict_many``, with the same tie rule.

    Returns (labels, used_fallback) as (Q,) arrays.
    """
    if not prior.defined:
        raise ValueError("prior must be defined")
    p = np.where(defined[:, None], probs, prior.probs)
    top = p == p.max(axis=1, keepdims=True)
    order = sorted(range(prior.probs.size), key=lambda l: (-float(prior.probs[l]), l))
    return np.asarray(order)[np.argmax(top[:, order], axis=1)], ~defined


def _normalize_log_scores(log_scores: np.ndarray, support) -> LabelDistribution:
    m = log_scores.max()
    if m == -np.inf:
        return LabelDistribution.undefined(support)
    w = np.exp(log_scores - m)
    return LabelDistribution.from_probs(w / w.sum(), support)


# -- local models ---------------------------------------------------------------

def predict_ltlgm(graph: SignedGraph, counts: CooccurrenceCounts,
                  query: PredictionQuery, collect_support: bool = False) -> LabelDistribution:
    """Local target-link model.

    For each context edge (x, l_x), the nodes that point at the receiver j
    and also point at x with label l_x vote with the label they gave j:
    term_l = count(j, l, x, l_x) / count(j, ANY, x, l_x). Entries whose
    denominator is zero are skipped and the uniform weights renormalize over
    the survivors; with no survivor the result is undefined.

    Args:
        graph: training graph (must not contain the queried edge).
        counts: node-level co-occurrence counts over ``graph``.
        query: initiator -> receiver pair.
        collect_support: attach per-entry diagnostics.

    Returns:
        LabelDistribution (defined iff any context entry had support).
    """
    ctx = context_of(graph, query)
    j = query.receiver
    L = graph.alphabet.size
    support = [] if collect_support else None
    acc = np.zeros(L)
    weight = 0.0
    for (x, lx), w in zip(ctx.entries(), ctx.weights.tolist()):
        den = counts.count(j, ANY, x, lx)
        if collect_support:
            support.append({"head": x, "label": lx, "n_local": den,
                            "used": "local" if den else "skipped"})
        if den == 0:
            continue
        term = np.array([counts.count(j, l, x, lx) for l in range(L)], dtype=float)
        acc += w * (term / den)
        weight += w
    if weight == 0.0:
        return LabelDistribution.undefined(support)
    return LabelDistribution.from_probs(acc / weight, support)


def predict_lcgm(graph: SignedGraph, counts: CooccurrenceCounts,
                 query: PredictionQuery, config: SmoothingConfig,
                 collect_support: bool = False) -> LabelDistribution:
    """Local context-generator model.

    Scores each candidate label l by prior(l) times the product over context
    edges of p(l_x | l) = count(j, l, x, l_x) / count(x, ANY, j, l),
    Laplace-floored with alpha = lcgm_floor_alpha. With alpha = 0, a factor
    whose denominator is empty for some label is skipped for every label, so
    missing evidence never tips the product. Scores are accumulated in log
    space and normalized; all-zero scores yield undefined. An empty context
    returns the prior itself.
    """
    ctx = context_of(graph, query)
    j = query.receiver
    L = graph.alphabet.size
    alpha = config.lcgm_floor_alpha
    support = [] if collect_support else None
    prior = _prior_vector(graph, config)
    with np.errstate(divide="ignore"):
        log_scores = np.log(prior)
        for x, lx in ctx.entries():
            dens = np.array([counts.count(x, ANY, j, l) for l in range(L)], dtype=float)
            if alpha == 0 and np.any(dens == 0):
                if collect_support:
                    support.append({"head": x, "label": lx, "used": "skipped"})
                continue
            nums = np.array([counts.count(j, l, x, lx) for l in range(L)], dtype=float)
            p = (nums + alpha) / (dens + alpha * L)
            log_scores = log_scores + np.log(p)
            if collect_support:
                support.append({"head": x, "label": lx,
                                "n_local": dens.astype(int).tolist(), "used": "local"})
    return _normalize_log_scores(log_scores, support)


# -- cluster-level models ----------------------------------------------------------

def predict_gtlgm(graph: SignedGraph, cluster_counts: ClusterCounts, partition,
                  query: PredictionQuery, collect_support: bool = False) -> LabelDistribution:
    """Cluster-level target-link model.

    The LTLGM construction with node sets replaced by cluster incidence
    sets: with s the initiator's cluster, c_j the receiver's and c_x the
    context head's, term_l counts cluster-s nodes reaching c_x with l_x and
    c_j with l. Per-label numerators can overlap at cluster level, so every
    surviving term is renormalized over labels before averaging.
    """
    ctx = context_of(graph, query)
    asg = partition.assignment
    s = int(asg[query.initiator])
    cj = int(asg[query.receiver])
    L = graph.alphabet.size
    support = [] if collect_support else None
    acc = np.zeros(L)
    weight = 0.0
    for (x, lx), w in zip(ctx.entries(), ctx.weights.tolist()):
        cx = int(asg[x])
        den = cluster_counts.count(s, cx, lx, cj, ANY)
        if collect_support:
            support.append({"head": x, "label": lx, "n_global": den,
                            "used": "global" if den else "skipped"})
        if den == 0:
            continue
        num = np.array([cluster_counts.count(s, cx, lx, cj, l) for l in range(L)], dtype=float)
        acc += w * (num / num.sum())
        weight += w
    if weight == 0.0:
        return LabelDistribution.undefined(support)
    return LabelDistribution.from_probs(acc / weight, support)


def predict_gcgm(graph: SignedGraph, cluster_counts: ClusterCounts, partition,
                 query: PredictionQuery, config: SmoothingConfig,
                 collect_support: bool = False) -> LabelDistribution:
    """Cluster-level context-generator model.

    LCGM with cluster-level factors p(l_x | l) = cam(s, c_x, l_x, c_j, l) /
    cam(s, c_x, ANY, c_j, l); the same floor, symmetric skip, log-space
    product and prior machinery apply.
    """
    ctx = context_of(graph, query)
    asg = partition.assignment
    s = int(asg[query.initiator])
    cj = int(asg[query.receiver])
    L = graph.alphabet.size
    alpha = config.lcgm_floor_alpha
    support = [] if collect_support else None
    prior = _prior_vector(graph, config)
    with np.errstate(divide="ignore"):
        log_scores = np.log(prior)
        for x, lx in ctx.entries():
            cx = int(asg[x])
            dens = np.array([cluster_counts.count(s, cx, ANY, cj, l) for l in range(L)],
                            dtype=float)
            if alpha == 0 and np.any(dens == 0):
                if collect_support:
                    support.append({"head": x, "label": lx, "used": "skipped"})
                continue
            nums = np.array([cluster_counts.count(s, cx, lx, cj, l) for l in range(L)],
                            dtype=float)
            p = (nums + alpha) / (dens + alpha * L)
            log_scores = log_scores + np.log(p)
            if collect_support:
                support.append({"head": x, "label": lx,
                                "n_global": dens.astype(int).tolist(), "used": "global"})
    return _normalize_log_scores(log_scores, support)


# -- smoothed blends -----------------------------------------------------------------

def predict_stlgm(graph: SignedGraph, counts: CooccurrenceCounts,
                  cluster_counts: ClusterCounts, partition,
                  query: PredictionQuery, config: SmoothingConfig,
                  collect_support: bool = False) -> LabelDistribution:
    """Smoothed target-link model: per-entry blend of LTLGM and GTLGM terms.

    Each context entry contributes (1 - lambda) * local + lambda * global
    with lambda = mu / (n + mu). In "support" mode n is the entry's local
    denominator, so lambda is label-independent and the blend stays a
    distribution. In "paper" mode n is count(x, ANY, j, l), label-dependent,
    and the blended vector is renormalized. An entry whose local term is
    undefined goes fully global (lambda = 1); one whose global term is
    undefined stays fully local (lambda = 0); entries with neither are
    skipped, and with no survivor the result is undefined.
    """
    ctx = context_of(graph, query)
    j = query.receiver
    asg = partition.assignment
    s = int(asg[query.initiator])
    cj = int(asg[j])
    L = graph.alphabet.size
    mu = config.mu
    support = [] if collect_support else None
    acc = np.zeros(L)
    weight = 0.0
    for (x, lx), w in zip(ctx.entries(), ctx.weights.tolist()):
        lden = counts.count(j, ANY, x, lx)
        cx = int(asg[x])
        gden = cluster_counts.count(s, cx, lx, cj, ANY)
        info = {"head": x, "label": lx, "n_local": lden} if collect_support else None
        if lden == 0 and gden == 0:
            if collect_support:
                info["used"] = "skipped"
                support.append(info)
            continue
        if lden:
            lterm = np.array([counts.count(j, l, x, lx) for l in range(L)], dtype=float) / lden
        if gden:
            gnum = np.array([cluster_counts.count(s, cx, lx, cj, l) for l in range(L)], dtype=float)
            gterm = gnum / gnum.sum()
        if lden == 0:
            term, lam, used = gterm, 1.0, "global"
        elif gden == 0:
            term, lam, used = lterm, 0.0, "local"
        elif config.lambda_mode == "support":
            lam = mu / (lden + mu)
            term, used = (1.0 - lam) * lterm + lam * gterm, "blend"
        else:
            n_l = np.array([counts.count(x, ANY, j, l) for l in range(L)], dtype=float)
            # mu = 0 is "no smoothing", also where n = 0: stay local.
            lam = mu / (n_l + mu) if mu else np.zeros(L)
            blended = (1.0 - lam) * lterm + lam * gterm
            tot = blended.sum()
            if tot == 0.0:
                if collect_support:
                    info["used"] = "skipped"
                    support.append(info)
                continue
            term, used = blended / tot, "blend"
        if collect_support:
            info["lambda"] = lam.tolist() if isinstance(lam, np.ndarray) else lam
            info["used"] = used
            support.append(info)
        acc += w * term
        weight += w
    if weight == 0.0:
        return LabelDistribution.undefined(support)
    return LabelDistribution.from_probs(acc / weight, support)


def predict_scgm(graph: SignedGraph, counts: CooccurrenceCounts,
                 cluster_counts: ClusterCounts, partition,
                 query: PredictionQuery, config: SmoothingConfig,
                 collect_support: bool = False) -> LabelDistribution:
    """Smoothed context-generator model: per-factor blend of LCGM and GCGM.

    For each context edge and candidate label, the raw (unfloored) local
    conditional and the cluster-level conditional are mixed with lambda' =
    mu / (n' + mu): in "support" mode n' is the local factor's own
    denominator (per label), in "paper" mode the scalar count(j, ANY, x,
    l_x). Labels with no local support go fully global, labels with no
    global support stay fully local, and a factor where some label has
    neither is skipped symmetrically. Log-space product with the prior;
    all-zero scores yield undefined; an empty context returns the prior.
    """
    ctx = context_of(graph, query)
    j = query.receiver
    asg = partition.assignment
    s = int(asg[query.initiator])
    cj = int(asg[j])
    L = graph.alphabet.size
    mu = config.mu
    support = [] if collect_support else None
    prior = _prior_vector(graph, config)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scores = np.log(prior)
        for x, lx in ctx.entries():
            cx = int(asg[x])
            ldens = np.array([counts.count(x, ANY, j, l) for l in range(L)], dtype=float)
            gdens = np.array([cluster_counts.count(s, cx, ANY, cj, l) for l in range(L)],
                             dtype=float)
            if np.any((ldens == 0) & (gdens == 0)):
                if collect_support:
                    support.append({"head": x, "label": lx, "used": "skipped"})
                continue
            lnums = np.array([counts.count(j, l, x, lx) for l in range(L)], dtype=float)
            gnums = np.array([cluster_counts.count(s, cx, lx, cj, l) for l in range(L)],
                             dtype=float)
            p_loc = np.where(ldens > 0, lnums / np.where(ldens > 0, ldens, 1.0), 0.0)
            p_glob = np.where(gdens > 0, gnums / np.where(gdens > 0, gdens, 1.0), 0.0)
            if config.lambda_mode == "paper":
                n_prime = counts.count(j, ANY, x, lx)
                base = 0.0 if (mu == 0 and n_prime == 0) else mu / (n_prime + mu)
                lam = np.full(L, base)
            else:
                lam = mu / (ldens + mu)
            # Labels with no local support go fully global and vice versa; the
            # symmetric skip above guarantees these never overlap.
            lam = np.where(ldens == 0, 1.0, lam)
            lam = np.where(gdens == 0, 0.0, lam)
            p = (1.0 - lam) * p_loc + lam * p_glob
            log_scores = log_scores + np.log(p)
            if collect_support:
                support.append({"head": x, "label": lx, "lambda": lam.tolist(),
                                "used": "blend"})
    return _normalize_log_scores(log_scores, support)


def _checked_kind(model_kind: str, cluster_counts, partition) -> str:
    kind = model_kind.lower()
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}; expected one of {MODEL_KINDS}")
    if kind in CLUSTER_KINDS and (cluster_counts is None or partition is None):
        raise ValueError(f"model {kind} needs a partition and cluster-level counts")
    return kind


def predict(model_kind: str, graph: SignedGraph, query: PredictionQuery,
            counts: Optional[CooccurrenceCounts] = None,
            cluster_counts: Optional[ClusterCounts] = None,
            partition=None, config: Optional[SmoothingConfig] = None,
            collect_support: bool = False) -> LabelDistribution:
    """Dispatch a query to one model by kind name.

    Validates that the components the kind requires are present. The
    "prior" kind ignores the query and returns the training class prior.
    """
    kind = _checked_kind(model_kind, cluster_counts, partition)
    if config is None:
        config = SmoothingConfig()
    if kind in LOCAL_KINDS and counts is None:
        raise ValueError(f"model {kind} needs node-level counts")
    if kind == "prior":
        return class_prior(graph)
    if kind == "ltlgm":
        return predict_ltlgm(graph, counts, query, collect_support)
    if kind == "lcgm":
        return predict_lcgm(graph, counts, query, config, collect_support)
    if kind == "gtlgm":
        return predict_gtlgm(graph, cluster_counts, partition, query, collect_support)
    if kind == "gcgm":
        return predict_gcgm(graph, cluster_counts, partition, query, config, collect_support)
    if kind == "stlgm":
        return predict_stlgm(graph, counts, cluster_counts, partition, query, config, collect_support)
    return predict_scgm(graph, counts, cluster_counts, partition, query, config, collect_support)


# -- batched prediction ---------------------------------------------------------------

def predict_many(model_kind: str, graph: SignedGraph, initiators, receivers,
                 counts: Optional[CooccurrenceCounts] = None,
                 cluster_counts: Optional[ClusterCounts] = None,
                 partition=None, config: Optional[SmoothingConfig] = None):
    """Answer many queries at once, bit for bit as ``predict`` answers each.

    Query q is ``initiators[q] -> receivers[q]``. Node-level counts come
    from one receiver-blocked pass over ``graph`` (``context_evidence``),
    cluster-level counts from ``cluster_counts.table``, once per distinct
    key. Each entry's term is computed with the scalar models' arithmetic,
    and the terms are accumulated position by position in context order,
    so probabilities, defined flags and exact ties equal ``predict``'s.

    Args:
        counts: optional, since the node-level counts are taken from
            ``graph``; when given it must count over ``graph`` itself,
            without a node filter.
        cluster_counts, partition: required for the cluster-backed kinds.
        config: smoothing settings (defaults if None).

    Returns:
        (probs, defined): probs is (Q, L) with NaN rows where the answer is
        undefined; defined is a (Q,) bool array.
    """
    kind = _checked_kind(model_kind, cluster_counts, partition)
    if counts is not None and (counts.graph is not graph or counts.node_filter is not None):
        raise ValueError("counts must count over the same graph, without a node filter")
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
    evidence = ClusterEvidence(cluster_counts) if kind in CLUSTER_KINDS else None
    if kind not in TARGET_KINDS:
        with np.errstate(divide="ignore"):
            log_prior = np.log(_prior_vector(graph, config))
    for blk in context_evidence(graph, initiators, receivers,
                                with_counts=kind in LOCAL_KINDS):
        glob = None
        if evidence is not None:
            asg = partition.assignment
            q = blk.queries[blk.row]
            glob = evidence.lookup(asg[initiators[q]], asg[blk.heads], blk.labels,
                                   asg[receivers[q]])
        if kind in TARGET_KINDS:
            keep, term = _target_terms(kind, blk, glob, config)
            p, d = _average(blk, keep, term, L)
        else:
            keep, log_p = _factor_logs(kind, blk, glob, config, L)
            p, d = _log_product(blk, keep, log_p, log_prior)
        probs[blk.queries] = p
        defined[blk.queries] = d
    return probs, defined


def _target_terms(kind, blk, glob, config):
    """Per-entry distributions of the target-link models: (kept entries, their terms)."""
    if kind == "ltlgm":
        den = blk.num.sum(axis=1)
        keep = den > 0
        return keep, blk.num[keep].astype(float) / den[keep, None]
    gnum, gden, _ = glob
    if kind == "gtlgm":
        keep = gden > 0
        num = gnum[keep].astype(float)
        return keep, num / num.sum(axis=1)[:, None]
    lden = blk.num.sum(axis=1)
    keep = (lden > 0) | (gden > 0)
    num, lden, gnum, gden = blk.num[keep], lden[keep], gnum[keep].astype(float), gden[keep]
    has_l = lden > 0
    lterm = num.astype(float) / np.where(has_l, lden, 1)[:, None]
    gterm = gnum / np.where(gden > 0, gnum.sum(axis=1), 1.0)[:, None]
    term = np.where(has_l[:, None], lterm, gterm)       # one-sided entries
    both = has_l & (gden > 0)
    mu = config.mu
    if config.lambda_mode == "support":
        lam = (mu / (lden[both] + mu))[:, None]
        term[both] = (1.0 - lam) * lterm[both] + lam * gterm[both]
    else:
        n_l = blk.mirrored[keep][both].astype(float)
        lam = mu / (n_l + mu) if mu else np.zeros_like(n_l)
        blended = (1.0 - lam) * lterm[both] + lam * gterm[both]
        # The blend's sum is positive: gterm has a positive label and lam > 0
        # where mu > 0, and with mu = 0 the blend is lterm.
        term[both] = blended / blended.sum(axis=1)[:, None]
    return keep, term


def _factor_logs(kind, blk, glob, config, L):
    """Per-entry log factors of the context-generator models: (kept entries, logs)."""
    alpha, mu = config.lcgm_floor_alpha, config.mu
    if kind in ("lcgm", "gcgm"):
        nums, dens = (blk.num, blk.mirrored) if kind == "lcgm" else (glob[0], glob[2])
        keep = np.all(dens != 0, axis=1) if alpha == 0 else np.ones(dens.shape[0], bool)
        nums, dens = nums[keep].astype(float), dens[keep].astype(float)
        with np.errstate(divide="ignore"):
            return keep, np.log((nums + alpha) / (dens + alpha * L))
    gnum, _, gdens = glob
    ldens, gdens = blk.mirrored.astype(float), gdens.astype(float)
    keep = ~np.any((ldens == 0) & (gdens == 0), axis=1)
    ldens, gdens = ldens[keep], gdens[keep]
    lnums, gnums = blk.num[keep].astype(float), gnum[keep].astype(float)
    p_loc = np.where(ldens > 0, lnums / np.where(ldens > 0, ldens, 1.0), 0.0)
    p_glob = np.where(gdens > 0, gnums / np.where(gdens > 0, gdens, 1.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if config.lambda_mode == "paper":
            n_prime = blk.num[keep].sum(axis=1)
            base = mu / (n_prime + mu) if mu else np.zeros(n_prime.size)
            lam = np.repeat(base[:, None], L, axis=1)
        else:
            lam = mu / (ldens + mu)
        lam = np.where(ldens == 0, 1.0, lam)
        lam = np.where(gdens == 0, 0.0, lam)
        return keep, np.log((1.0 - lam) * p_loc + lam * p_glob)


def _by_position(position):
    """Entry indices grouped by context position 0, 1, 2, ..., each group ascending."""
    if position.size == 0:
        return []
    order = np.argsort(position, kind="stable")
    bounds = np.searchsorted(position[order], np.arange(position[order[-1]] + 2))
    return [order[a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _average(blk, keep, term, L):
    # Weighted mean over the kept entries, summed in context order as the
    # scalar target-link models sum it.
    rows = blk.row[keep]
    w = 1.0 / blk.sizes[rows]
    contrib = w[:, None] * term
    acc = np.zeros((blk.queries.size, L))
    weight = np.zeros(blk.queries.size)
    for sel in _by_position(blk.position[keep]):
        r = rows[sel]
        acc[r] += contrib[sel]
        weight[r] += w[sel]
    defined = weight > 0.0
    probs = np.full_like(acc, np.nan)
    probs[defined] = acc[defined] / weight[defined, None]
    return probs, defined


def _log_product(blk, keep, log_p, log_prior):
    # Prior times the kept factors in log space, in context order, then
    # normalized as _normalize_log_scores does.
    rows = blk.row[keep]
    scores = np.tile(log_prior, (blk.queries.size, 1))
    for sel in _by_position(blk.position[keep]):
        scores[rows[sel]] += log_p[sel]
    m = scores.max(axis=1)
    defined = m != -np.inf
    w = np.exp(scores[defined] - m[defined, None])
    probs = np.full_like(scores, np.nan)
    probs[defined] = w / w.sum(axis=1)[:, None]
    return probs, defined
