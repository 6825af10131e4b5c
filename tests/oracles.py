"""Independent brute-force reference implementations for the test suite.

Everything here is computed from a raw list of (src, dst, label) triples
with explicit python sets and loops: no CSR arrays, no cached tail sets, no
shared code with the library beyond the edge list itself. Estimator
policies (skip rules, fallback, lambda modes) are restated from the
contracts so that the two code bases can disagree only by implementation
bugs, which is the point.
"""

import math


def tail_sets(edges, n, n_labels):
    """T[u] and T[u][l]: who points at u (with label l)."""
    t_any = {u: set() for u in range(n)}
    t_lab = {u: {l: set() for l in range(n_labels)} for u in range(n)}
    for s, d, l in edges:
        t_any[d].add(s)
        t_lab[d][l].add(s)
    return t_any, t_lab


def out_edges(edges, n):
    out = {u: [] for u in range(n)}
    for s, d, l in edges:
        out[s].append((d, l))
    return out


def nam(edges, n, n_labels):
    """Returns count(m, l, n, l') with l/l' = None meaning any label."""
    t_any, t_lab = tail_sets(edges, n, n_labels)

    def count(m, l, nn, lp):
        a = t_any[m] if l is None else t_lab[m][l]
        b = t_any[nn] if lp is None else t_lab[nn][lp]
        return len(a & b)

    return count


def incidence_set(outs, assignment=None):
    """A tail's (head, label) incidences plus one (head, -1) per head.

    ``outs`` is the tail's out-edge list of (head, label); with
    ``assignment`` each head is replaced by its cluster.
    """
    if assignment is not None:
        outs = [(int(assignment[h]), l) for h, l in outs]
    return set(outs) | {(h, -1) for h, _ in outs}


def move_incidences(table, old, new, prefix=()):
    """Move one tail's incidence pairs in ``table`` from set ``old`` to ``new``.

    Incidences are (head, label) with label -1 for "any label"; the ordered
    pair (a, b) of a tail's incidence set counts under the key
    ``prefix + a + b``. Only the pairs with an incidence in ``old ^ new``
    change, and zeros are pruned. This is the dict kernel both count tables
    once used, the cluster table with the tail's cluster as ``prefix``.
    """
    for d, gone, sign in ((old, old - new, -1), (new, new - old, +1)):
        for a in d:
            for b in (d if a in gone else gone):
                k = prefix + a + b
                v = table.get(k, 0) + sign
                if v:
                    table[k] = v
                else:
                    del table[k]


def nam_table(edges, n):
    """The node-level count table as a dict: all four key families, -1 = any label.

    Each tail adds the ordered pairs of its incidences.
    """
    table = {}
    for outs in out_edges(edges, n).values():
        move_incidences(table, set(), incidence_set(outs))
    return table


def pair_codes(edges, n, n_labels, upper=False):
    """The code of every ordered pair of each tail's out-edges, self-pairs
    included, once per tail: pair ((m, l), (x, lx)) has the code
    ((m * L + l) * R + x) * L + lx, with the node radix R = 2**31 // (L + 1).

    Counting equal codes gives the concrete counts count(m, l, x, lx). With
    ``upper`` only the pairs with (m, l) <= (x, lx) are emitted: the node
    store's codes, one per unordered pair.
    """
    L, R = n_labels, (1 << 31) // (n_labels + 1)
    return [((m * L + l) * R + x) * L + lx
            for outs in out_edges(edges, n).values() for m, l in outs for x, lx in outs
            if not upper or (m, l) <= (x, lx)]


def cam_table(edges, assignment, n):
    """The cluster-level count table as a dict, keys (s, m, l, n, lp), -1 = any label.

    Each tail adds the ordered pairs of its cluster incidences, keyed with
    its own cluster in front.
    """
    table = {}
    for u, outs in out_edges(edges, n).items():
        move_incidences(table, set(), incidence_set(outs, assignment), (int(assignment[u]),))
    return table


def cluster_sets(edges, assignment, n, n_clusters, n_labels):
    """T[s][m][l] (and l=None for any): cluster-s nodes with an edge into cluster m labeled l."""
    t = {s: {m: {l: set() for l in list(range(n_labels)) + [None]}
             for m in range(n_clusters)} for s in range(n_clusters)}
    for s, d, l in edges:
        cs, cd = assignment[s], assignment[d]
        t[cs][cd][l].add(s)
        t[cs][cd][None].add(s)
    return t


def cam(edges, assignment, n, n_clusters, n_labels):
    tsets = cluster_sets(edges, assignment, n, n_clusters, n_labels)

    def count(s, m, l, nn, lp):
        return len(tsets[s][m][l] & tsets[s][nn][lp])

    return count


def context(edges, i, j):
    """The initiator's labeled out-edges excluding any edge to the receiver."""
    return [(d, l) for s, d, l in edges if s == i and d != j]


def ltlgm(edges, n, n_labels, i, j, ncount=None):
    """Returns (defined, probs or None)."""
    count = ncount or nam(edges, n, n_labels)
    ctx = context(edges, i, j)
    terms = []
    for x, lx in ctx:
        den = count(j, None, x, lx)
        if den == 0:
            continue
        terms.append([count(j, l, x, lx) / den for l in range(n_labels)])
    if not terms:
        return False, None
    probs = [sum(t[l] for t in terms) / len(terms) for l in range(n_labels)]
    return True, probs


def _normalize_scores(scores):
    tot = sum(scores)
    if tot == 0.0:
        return False, None
    return True, [s / tot for s in scores]


def _log_normalize(log_scores):
    m = max(log_scores)
    if m == -math.inf:
        return False, None
    w = [math.exp(s - m) for s in log_scores]
    tot = sum(w)
    return True, [x / tot for x in w]


def _prior(edges, n_labels, prior_mode):
    if prior_mode == "empirical":
        counts = [0] * n_labels
        for _, _, l in edges:
            counts[l] += 1
        return [c / len(edges) for c in counts]
    return [1.0 / n_labels] * n_labels


def _safe_log(x):
    return -math.inf if x == 0.0 else math.log(x)


def lcgm(edges, n, n_labels, i, j, alpha, prior_mode="uniform", ncount=None):
    count = ncount or nam(edges, n, n_labels)
    ctx = context(edges, i, j)
    prior = _prior(edges, n_labels, prior_mode)
    log_scores = [_safe_log(p) for p in prior]
    for x, lx in ctx:
        dens = [count(x, None, j, l) for l in range(n_labels)]
        if alpha == 0 and any(d == 0 for d in dens):
            continue
        for l in range(n_labels):
            num = count(j, l, x, lx)
            p = (num + alpha) / (dens[l] + alpha * n_labels)
            log_scores[l] += _safe_log(p)
    return _log_normalize(log_scores)


def gtlgm(edges, assignment, n, n_clusters, n_labels, i, j, ccount=None):
    count = ccount or cam(edges, assignment, n, n_clusters, n_labels)
    ctx = context(edges, i, j)
    s, cj = assignment[i], assignment[j]
    terms = []
    for x, lx in ctx:
        cx = assignment[x]
        den = count(s, cx, lx, cj, None)
        if den == 0:
            continue
        nums = [count(s, cx, lx, cj, l) for l in range(n_labels)]
        tot = sum(nums)
        terms.append([v / tot for v in nums])
    if not terms:
        return False, None
    probs = [sum(t[l] for t in terms) / len(terms) for l in range(n_labels)]
    return True, probs


def gcgm(edges, assignment, n, n_clusters, n_labels, i, j, alpha,
         prior_mode="uniform", ccount=None):
    count = ccount or cam(edges, assignment, n, n_clusters, n_labels)
    ctx = context(edges, i, j)
    s, cj = assignment[i], assignment[j]
    prior = _prior(edges, n_labels, prior_mode)
    log_scores = [_safe_log(p) for p in prior]
    for x, lx in ctx:
        cx = assignment[x]
        dens = [count(s, cx, None, cj, l) for l in range(n_labels)]
        if alpha == 0 and any(d == 0 for d in dens):
            continue
        for l in range(n_labels):
            num = count(s, cx, lx, cj, l)
            p = (num + alpha) / (dens[l] + alpha * n_labels)
            log_scores[l] += _safe_log(p)
    return _log_normalize(log_scores)


def stlgm(edges, assignment, n, n_clusters, n_labels, i, j, mu,
          lambda_mode="support", ncount=None, ccount=None):
    ncount = ncount or nam(edges, n, n_labels)
    ccount = ccount or cam(edges, assignment, n, n_clusters, n_labels)
    ctx = context(edges, i, j)
    s, cj = assignment[i], assignment[j]
    terms = []
    for x, lx in ctx:
        cx = assignment[x]
        lden = ncount(j, None, x, lx)
        gden = ccount(s, cx, lx, cj, None)
        if lden == 0 and gden == 0:
            continue
        lterm = gterm = None
        if lden:
            lterm = [ncount(j, l, x, lx) / lden for l in range(n_labels)]
        if gden:
            gnums = [ccount(s, cx, lx, cj, l) for l in range(n_labels)]
            tot = sum(gnums)
            gterm = [v / tot for v in gnums]
        if lden == 0:
            terms.append(gterm)
        elif gden == 0:
            terms.append(lterm)
        elif lambda_mode == "support":
            lam = mu / (lden + mu)
            terms.append([(1 - lam) * a + lam * b for a, b in zip(lterm, gterm)])
        else:
            blended = []
            for l in range(n_labels):
                nl = ncount(x, None, j, l)
                lam = 0.0 if (mu == 0 and nl == 0) else mu / (nl + mu)
                blended.append((1 - lam) * lterm[l] + lam * gterm[l])
            tot = sum(blended)
            if tot == 0.0:
                continue
            terms.append([b / tot for b in blended])
    if not terms:
        return False, None
    probs = [sum(t[l] for t in terms) / len(terms) for l in range(n_labels)]
    return True, probs


def scgm(edges, assignment, n, n_clusters, n_labels, i, j, mu,
         lambda_mode="support", prior_mode="uniform", ncount=None, ccount=None):
    ncount = ncount or nam(edges, n, n_labels)
    ccount = ccount or cam(edges, assignment, n, n_clusters, n_labels)
    ctx = context(edges, i, j)
    s, cj = assignment[i], assignment[j]
    prior = _prior(edges, n_labels, prior_mode)
    log_scores = [_safe_log(p) for p in prior]
    for x, lx in ctx:
        cx = assignment[x]
        ldens = [ncount(x, None, j, l) for l in range(n_labels)]
        gdens = [ccount(s, cx, None, cj, l) for l in range(n_labels)]
        if any(ld == 0 and gd == 0 for ld, gd in zip(ldens, gdens)):
            continue
        for l in range(n_labels):
            p_loc = (ncount(j, l, x, lx) / ldens[l]) if ldens[l] else 0.0
            p_glob = (ccount(s, cx, lx, cj, l) / gdens[l]) if gdens[l] else 0.0
            if lambda_mode == "paper":
                np_ = ncount(j, None, x, lx)
                lam = 0.0 if (mu == 0 and np_ == 0) else mu / (np_ + mu)
            else:
                lam = 1.0 if ldens[l] == 0 else mu / (ldens[l] + mu)
            if ldens[l] == 0:
                lam = 1.0
            if gdens[l] == 0:
                lam = 0.0
            p = (1 - lam) * p_loc + lam * p_glob
            log_scores[l] += _safe_log(p)
    return _log_normalize(log_scores)


def entropy_objective(edges, assignment, n_labels):
    """phi in bits: sum over cluster pairs of |E_cd| * H(label distribution)."""
    pair_counts = {}
    for s, d, l in edges:
        key = (assignment[s], assignment[d])
        vec = pair_counts.setdefault(key, [0] * n_labels)
        vec[l] += 1
    phi = 0.0
    for vec in pair_counts.values():
        tot = sum(vec)
        h = 0.0
        for c in vec:
            if c:
                p = c / tot
                h -= p * math.log2(p)
        phi += tot * h
    return phi


def balanced_accuracy(truths, preds, n_labels):
    tprs = []
    for c in range(n_labels):
        total = sum(1 for t in truths if t == c)
        if total == 0:
            continue
        hit = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
        tprs.append(hit / total)
    return sum(tprs) / len(tprs)


def read_edge_lines(path, tokens, nodes=None):
    """Reference edge-list reader: one line at a time, as the file iterates.

    Same contract as ``linklabel.graph.read_edge_lines``: the ``(src ids,
    dst ids, labels)`` lists of the data lines, ``# node <id>`` lines
    registered into ``nodes``, and the first bad line's error.
    """
    from linklabel.graph import EdgeListParseError

    node_comment = "# node "
    src, dst, lbl = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if nodes is not None and line.startswith(node_comment):
                    name = line[len(node_comment):].strip()
                    if name:
                        nodes.add(name)
                continue
            parts = line.split()
            if len(parts) != 3:
                raise EdgeListParseError(
                    f"{path}:{lineno}: expected 'src dst sign', got {len(parts)} fields")
            try:
                lbl.append(tokens[parts[2]])
            except KeyError:
                raise EdgeListParseError(
                    f"{path}:{lineno}: unknown sign token {parts[2]!r}") from None
            src.append(parts[0])
            dst.append(parts[1])
    return src, dst, lbl
