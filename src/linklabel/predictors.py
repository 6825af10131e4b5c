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

Per context edge (x, l_x) of a query i -> j, with s, c_x and c_j the
clusters of i, x and j, and cam(...) a cluster-level count:

* ltlgm: term_l = count(j, l, x, l_x) / count(j, ANY, x, l_x). Entries with
  a zero denominator are skipped and the uniform weights renormalize over
  the survivors; with no survivor the result is undefined.
* lcgm: score(l) = prior(l) * prod p(l_x | l), with p(l_x | l) =
  count(j, l, x, l_x) / count(x, ANY, j, l), Laplace-floored with alpha =
  lcgm_floor_alpha. With alpha = 0 a factor whose denominator is empty for
  some label is skipped for every label. Scores are normalized; all-zero
  scores are undefined and an empty context returns the prior.
* gtlgm: ltlgm over cluster incidence sets: term_l is cam(s, c_x, l_x,
  c_j, l), the cluster-s nodes reaching c_x with l_x and c_j with l,
  renormalized over labels (per-label counts can overlap at cluster level).
  Entries with cam(s, c_x, l_x, c_j, ANY) = 0 are skipped.
* gcgm: lcgm with p(l_x | l) = cam(s, c_x, l_x, c_j, l) / cam(s, c_x, ANY,
  c_j, l); the same floor, skip rule and prior.
* stlgm: each entry contributes (1 - lambda) * local + lambda * global,
  lambda = mu / (n + mu). In "support" mode n is the entry's local
  denominator, so lambda is label-independent; in "paper" mode n is
  count(x, ANY, j, l) and the blend is renormalized. An entry without a
  local term goes fully global, one without a global term stays local, one
  with neither is skipped; no survivor is undefined.
* scgm: each factor mixes the unfloored lcgm and the gcgm conditionals with
  lambda' = mu / (n' + mu), n' being the local factor's own denominator
  ("support", per label) or count(j, ANY, x, l_x) ("paper"). Labels without
  local support go global, labels without global support stay local, and a
  factor where some label has neither is skipped for every label. The
  product, normalization and empty context are lcgm's.

Every model returns a LabelDistribution which is either defined (a proper
distribution) or undefined, in which case ``decide`` substitutes the class
prior and flags the fallback. Undefined arises when no context entry has any
usable support; the skip rules below treat all labels symmetrically so no
label is ever favored by missing data alone.

One evidence layer and one combine serve every model and both entry
points. Evidence is an ``EvidenceBlock``: context entries with their
node-level counts, plus the entries' cluster-level counts. ``predict`` fills
a block of one query through ``CooccurrenceCounts.query_counts``, so any
count store serves it; ``predict_many`` fills blocks of many queries with
one pass over the graph (``context_evidence``). ``_target_terms`` and
``_factor_logs`` turn a block into per-entry terms or log factors, and
``_ordered_sum`` adds them per query in context order, the float order of
a loop over the context. The two entry points therefore give the same
floats, and ``predict``'s support records come from the same per-entry
arrays. ``decide_many`` is the matching form of ``decide``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counts import (ClusterCounts, CooccurrenceCounts, EvidenceBlock, cluster_evidence,
                     context_evidence)
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
    return kind


def predict(model_kind: str, graph: SignedGraph, query: PredictionQuery,
            counts: Optional[CooccurrenceCounts] = None,
            cluster_counts: Optional[ClusterCounts] = None,
            partition=None, config: Optional[SmoothingConfig] = None,
            collect_support: bool = False) -> LabelDistribution:
    """Answer one query with the model of the given kind.

    Validates that the components the kind requires are present and that
    any counts given count over ``graph``. The "prior" kind ignores the
    query and returns the training class prior.
    Node-level counts are read through ``counts.query_counts``, so a
    precomputed or stream-updated store serves them; the answer equals
    ``predict_many``'s for the same query.
    """
    kind = _checked_kind(model_kind, graph, counts, cluster_counts, partition)
    config = config or SmoothingConfig()
    if kind in LOCAL_KINDS and counts is None:
        raise ValueError(f"model {kind} needs node-level counts")
    if kind == "prior":
        return class_prior(graph)
    blk = _query_evidence(graph, counts, query, _mirrored(kind, config))
    glob = None
    if kind in CLUSTER_KINDS:
        asg = partition.assignment
        glob = cluster_evidence(cluster_counts, asg[query.initiator], asg[blk.heads],
                                blk.labels, asg[query.receiver])
    probs, defined, used, lam = _answer(kind, blk, glob, config, _log_prior(kind, graph, config))
    support = _support(kind, blk, glob, used, lam, config) if collect_support else None
    if not defined[0]:
        return LabelDistribution.undefined(support)
    return LabelDistribution.from_probs(probs[0], support)


def _mirrored(kind: str, config: SmoothingConfig) -> Optional[bool]:
    """The node-level counts a kind reads: None none, False ``num``, True also the mirrored."""
    if kind not in LOCAL_KINDS:
        return None
    return kind in ("lcgm", "scgm") or (kind == "stlgm" and config.lambda_mode == "paper")


def _query_evidence(graph: SignedGraph, counts, query: PredictionQuery,
                    mirrored: Optional[bool]):
    """The ``EvidenceBlock`` of one query, its counts read from ``counts`` as ``_mirrored`` says."""
    ctx = context_of(graph, query)
    m = len(ctx)
    num = mir = None
    if mirrored is not None:
        num, mir = counts.query_counts(query.receiver, ctx.heads, ctx.labels, mirrored)
    return EvidenceBlock(np.zeros(1, dtype=np.int64), np.array([m]),
                         np.zeros(m, dtype=np.int64), np.arange(m),
                         ctx.heads, ctx.labels, num, mir)


def predict_many(model_kind: str, graph: SignedGraph, initiators, receivers,
                 counts: Optional[CooccurrenceCounts] = None,
                 cluster_counts: Optional[ClusterCounts] = None,
                 partition=None, config: Optional[SmoothingConfig] = None):
    """Answer many queries at once, bit for bit as ``predict`` answers each.

    Query q is ``initiators[q] -> receivers[q]``. Node-level counts come
    from one receiver-blocked pass over ``graph`` (``context_evidence``),
    cluster-level counts from the dense table (``cluster_evidence``). The
    per-entry terms and their combine are those of ``predict``.

    Args:
        counts: optional, since the node-level counts are taken from
            ``graph``; when given it must count over ``graph`` itself.
        cluster_counts, partition: required for the cluster-backed kinds;
            the cluster counts must count over ``graph``.
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
    for blk in context_evidence(graph, initiators, receivers, _mirrored(kind, config)):
        glob = None
        if kind in CLUSTER_KINDS:
            asg = partition.assignment
            q = blk.queries[blk.row]
            glob = cluster_evidence(cluster_counts, asg[initiators[q]], asg[blk.heads],
                                    blk.labels, asg[receivers[q]])
        p, d, _, _ = _answer(kind, blk, glob, config, log_prior)
        probs[blk.queries] = p
        defined[blk.queries] = d
    return probs, defined


# -- per-entry terms and the combine ----------------------------------------------------

# How each context entry was used, by the ``used`` codes of _target_terms
# and _factor_logs: bit 1 marks local evidence, bit 2 global evidence.
_USED = ("skipped", "local", "global", "blend")


def _log_prior(kind, graph, config):
    if kind in TARGET_KINDS:
        return None
    with np.errstate(divide="ignore"):
        return np.log(_prior_vector(graph, config))


def _answer(kind, blk, glob, config, log_prior):
    """(probs, defined, used, lam) of the block's queries: terms, then the combine.

    Float warnings are silenced: a 0/0 only fills a masked entry or the NaN
    row of an undefined query, and log(0) = -inf is a factor of zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind in TARGET_KINDS:
            used, term, lam = _target_terms(kind, blk, glob, config)
            return (*_average(blk, used, term), used, lam)
        used, log_p, lam = _factor_logs(kind, blk, glob, config)
        return (*_log_product(blk, log_p, log_prior), used, lam)


def _target_terms(kind, blk, glob, config):
    """Per-entry distributions of the target-link models.

    Returns (used, term, lam): the ``used`` code and (m, L) term of every
    entry, all zero where the entry is skipped, and stlgm's blend weight
    (None for the other kinds). A one-sided stlgm entry has weight 0 or 1,
    so its blend is its local or global term exactly.
    """
    if kind == "ltlgm":
        den = blk.num.sum(axis=1)
        has = den > 0
        return has * 1, blk.num / np.where(has, den, 1)[:, None], None
    gnum, gden, _ = glob
    gterm = gnum / np.where(gden > 0, gnum.sum(axis=1), 1)[:, None]
    if kind == "gtlgm":
        return (gden > 0) * 2, gterm, None
    lden = blk.num.sum(axis=1)
    has_l, has_g = lden > 0, gden > 0
    lden = np.where(has_l, lden, 1)
    lterm = blk.num / lden[:, None]
    mu = config.mu
    if config.lambda_mode == "support":
        lam = np.where(has_l, np.where(has_g, mu / (lden + mu), 0.0), 1.0)
        term = (1.0 - lam)[:, None] * lterm + lam[:, None] * gterm
    else:
        # mu = 0 is "no smoothing", also where the mirrored count is 0.
        lam = mu / (blk.mirrored + mu) if mu else np.zeros(lterm.shape)
        lam = np.where(has_l[:, None], np.where(has_g[:, None], lam, 0.0), 1.0)
        term = (1.0 - lam) * lterm + lam * gterm
        # Only a two-sided blend is renormalized. Its sum is positive: gterm
        # has a positive label and lam > 0 where mu > 0, and with mu = 0 the
        # blend is lterm.
        term /= np.where(has_l & has_g, term.sum(axis=1), 1.0)[:, None]
    return has_l + 2 * has_g, term, lam


def _factor_logs(kind, blk, glob, config):
    """Per-entry log factors of the context-generator models.

    Returns (used, log factor, lam): the ``used`` code and (m, L) log
    factor of every entry, zero where the factor is skipped, and scgm's
    (m, L) blend weight (None for the other kinds).
    """
    alpha, mu = config.lcgm_floor_alpha, config.mu
    if kind in ("lcgm", "gcgm"):
        nums, dens = (blk.num, blk.mirrored) if kind == "lcgm" else (glob[0], glob[2])
        keep = np.all(dens != 0, axis=1) if alpha == 0 else np.ones(dens.shape[0], bool)
        logs = np.log((nums + alpha) / (dens + alpha * dens.shape[1]))
        return keep * (1 if kind == "lcgm" else 2), np.where(keep[:, None], logs, 0.0), None
    gnums, _, gdens = glob
    lnums, ldens = blk.num, blk.mirrored
    has_l, has_g = ldens > 0, gdens > 0
    keep = np.all(has_l | has_g, axis=1)
    p_loc = np.where(has_l, lnums / ldens, 0.0)
    p_glob = np.where(has_g, gnums / gdens, 0.0)
    if config.lambda_mode == "paper":
        n_prime = lnums.sum(axis=1)
        lam = (mu / (n_prime + mu) if mu else np.zeros(n_prime.size))[:, None]
    else:
        lam = mu / (ldens + mu)
    # Labels with no local support go fully global and vice versa; the
    # symmetric skip guarantees these never overlap on a kept factor.
    lam = np.where(has_g, np.where(has_l, lam, 1.0), 0.0)
    logs = np.log((1.0 - lam) * p_loc + lam * p_glob)
    return keep * 3, np.where(keep[:, None], logs, 0.0), lam


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


def _support(kind, blk, glob, used, lam, config) -> list:
    """``collect_support`` records of one query, from its per-entry arrays.

    Every record has the entry's head, label and use. Target-link records
    carry the entry's ANY count, context-generator records the per-label
    denominators of a used factor; the smoothed models add lambda for used
    entries, a float where it is label-independent.
    """
    cols = {"head": blk.heads.tolist(), "label": blk.labels.tolist(),
            "used": [_USED[u] for u in used.tolist()]}
    if kind in ("ltlgm", "stlgm"):
        cols["n_local"] = blk.num.sum(axis=1).tolist()
    elif kind == "gtlgm":
        cols["n_global"] = glob[1].tolist()
    elif kind == "lcgm":
        cols["n_local"] = blk.mirrored.tolist()
    elif kind == "gcgm":
        cols["n_global"] = glob[2].tolist()
    if kind == "scgm":
        cols["lambda"] = lam.tolist()
    elif kind == "stlgm":
        rows = lam.tolist()
        cols["lambda"] = rows if lam.ndim == 1 else [
            row if u == 3 else row[0] for row, u in zip(rows, used.tolist())]
    drop = ("lambda",) if kind in TARGET_KINDS else ("lambda", "n_local", "n_global")
    return [{k: v[e] for k, v in cols.items() if u or k not in drop}
            for e, u in enumerate(used.tolist())]
