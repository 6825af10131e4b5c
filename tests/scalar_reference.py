"""The six models computed one context entry at a time, as the test reference.

``linklabel.predict`` and ``predict_many`` compute every model from per-entry
evidence arrays and one ordered-sum combine. This module restates each model
as a plain loop over the context entries, reading ``CooccurrenceCounts.count``
and ``ClusterCounts.count`` one value at a time, so the tests can require the
library to give the same floats, defined flags and support records bit for
bit. The float order here is the contract: target-link terms and weights are
summed in context order starting from 0, log factors in context order
starting from the log prior.
"""

import numpy as np

from linklabel import ANY, LabelDistribution, SmoothingConfig, class_prior, context_of


def _prior_vector(graph, config):
    if config.prior_mode == "empirical":
        return class_prior(graph).probs
    L = graph.alphabet.size
    return np.full(L, 1.0 / L)


def _normalize_log_scores(log_scores, support):
    m = log_scores.max()
    if m == -np.inf:
        return LabelDistribution.undefined(support)
    w = np.exp(log_scores - m)
    return LabelDistribution.from_probs(w / w.sum(), support)


def ltlgm(graph, counts, query, collect_support=False):
    ctx = context_of(graph, query)
    j = query.receiver
    L = graph.alphabet.size
    support = [] if collect_support else None
    acc = np.zeros(L)
    weight = 0.0
    for x, lx in ctx.entries():
        w = 1.0 / len(ctx)
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


def lcgm(graph, counts, query, config, collect_support=False):
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


def gtlgm(graph, cluster_counts, partition, query, collect_support=False):
    ctx = context_of(graph, query)
    asg = partition.assignment
    s = int(asg[query.initiator])
    cj = int(asg[query.receiver])
    L = graph.alphabet.size
    support = [] if collect_support else None
    acc = np.zeros(L)
    weight = 0.0
    for x, lx in ctx.entries():
        w = 1.0 / len(ctx)
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


def gcgm(graph, cluster_counts, partition, query, config, collect_support=False):
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


def stlgm(graph, counts, cluster_counts, partition, query, config, collect_support=False):
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
    for x, lx in ctx.entries():
        w = 1.0 / len(ctx)
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


def scgm(graph, counts, cluster_counts, partition, query, config, collect_support=False):
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


def predict_reference(kind, graph, query, counts=None, cluster_counts=None,
                      partition=None, config=None, collect_support=False):
    """The reference answer of model ``kind``, with the arguments of ``predict``."""
    config = config or SmoothingConfig()
    if kind == "prior":
        return class_prior(graph)
    if kind == "ltlgm":
        return ltlgm(graph, counts, query, collect_support)
    if kind == "lcgm":
        return lcgm(graph, counts, query, config, collect_support)
    if kind == "gtlgm":
        return gtlgm(graph, cluster_counts, partition, query, collect_support)
    if kind == "gcgm":
        return gcgm(graph, cluster_counts, partition, query, config, collect_support)
    if kind == "stlgm":
        return stlgm(graph, counts, cluster_counts, partition, query, config, collect_support)
    return scgm(graph, counts, cluster_counts, partition, query, config, collect_support)
