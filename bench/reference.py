"""Independent reference computations for the benchmark's output checks.

Imports nothing from the package under test and nothing from its tests. It
works from raw edge lists: co-pointing counts come from dense 0/1
adjacency matrices (a count ``count(m, l, n, l')`` is the number of nodes
whose row has a 1 in column ``m`` of the label-``l`` matrix and in column
``n`` of the label-``l'`` matrix), cluster-level counts from per-node
incidence matrices, and exact probability ties from ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TOKENS = {"+": 0, "-": 1}


# -- raw files -------------------------------------------------------------------

def read_edge_file(path):
    """Parse an edge list the way its format is documented.

    Dense ids follow the sorted external tokens, self-loops drop and a
    repeated ordered pair keeps its last label. Returns
    ``(tokens, src, dst, lbl)`` with edges sorted by ``(src, dst)``.
    """
    nodes, last = set(), {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# node "):
                nodes.add(line[7:].strip())
            if not line or line.startswith("#"):
                continue
            s, d, sign = line.split()
            nodes.update((s, d))
            if s != d:
                last[(s, d)] = TOKENS[sign]
    tokens = sorted(nodes)
    idx = {t: i for i, t in enumerate(tokens)}
    rows = sorted((idx[s], idx[d], l) for (s, d), l in last.items())
    arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return tokens, arr[:, 0], arr[:, 1], arr[:, 2]


def read_partition_file(path):
    """``{token: cluster}`` and K from the ``# clusters K`` header."""
    asg, K = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "#":
                if len(parts) == 3 and parts[1] == "clusters":
                    K = int(parts[2])
                continue
            asg[parts[0]] = int(parts[1])
    return asg, K


# -- documented sampling rules ------------------------------------------------------

def sparsify_rule(edge_count: int, density: float, seed: int) -> np.ndarray:
    """Indices (canonical edge order) kept at ``density``: round(d*E) sampled edges."""
    keep = round(density * edge_count)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(edge_count, size=keep, replace=False))


def fold_rule(edge_count: int, k: int, seed: int) -> np.ndarray:
    """Fold of every edge: a seeded shuffle dealt round-robin into k folds."""
    perm = np.random.default_rng(seed).permutation(edge_count)
    fold = np.empty(edge_count, dtype=np.int64)
    fold[perm] = np.arange(edge_count) % k
    return fold


# -- metrics and objective -------------------------------------------------------------

def balanced_accuracy(confusion) -> float:
    confusion = np.asarray(confusion)
    totals = confusion.sum(axis=1)
    present = totals > 0
    return float(np.mean(np.diag(confusion)[present] / totals[present]))


def phi(src, dst, lbl, asg, K: int, L: int) -> float:
    """sum over ordered cluster pairs of |E_cd| * H(label split) in bits."""
    cnt = np.zeros((K, K, L), dtype=np.int64)
    np.add.at(cnt, (asg[src], asg[dst], lbl), 1)
    terms = []
    for vec in cnt.reshape(-1, L).tolist():
        tot = sum(vec)
        if tot:
            terms.append(tot * math.log2(tot))
            terms.extend(-c * math.log2(c) for c in vec if c)
    return math.fsum(terms)


# -- local target-link model over a whole fold -------------------------------------------

def ltlgm_winners(n: int, L: int, train, queries):
    """Exact argmax label sets of the local target-link model.

    ``train`` is ``(src, dst, lbl)`` sorted by ``(src, dst)``; ``queries`` is
    ``(qsrc, qdst)``. For query (i, j) every out-edge (x, l_x) of i is an
    entry with term_l = count(j, l, x, l_x) / count(j, ANY, x, l_x); entries
    with a zero denominator drop out and the rest are averaged. Returns a
    list holding, per query, the tuple of labels whose averaged probability
    is exactly maximal, or None when no entry survives.
    """
    src, dst, lbl = train
    qsrc, qdst = queries
    A = np.zeros((L, n, n))
    A[lbl, src, dst] = 1.0
    num = np.stack([np.stack([A[l].T @ A[lx] for lx in range(L)]) for l in range(L)])
    den = num.sum(axis=0)                       # ANY in the first slot
    ptr = np.searchsorted(src, np.arange(n + 1))
    k = ptr[qsrc + 1] - ptr[qsrc]
    Q = qsrc.size
    offset = np.concatenate(([0], np.cumsum(k)))
    rows = np.repeat(np.arange(Q), k)
    ents = np.arange(rows.size) + np.repeat(ptr[qsrc] - offset[:-1], k)
    xs, lxs, js = dst[ents], lbl[ents], qdst[rows]
    d = den[lxs, js, xs]
    nm = num[:, lxs, js, xs]
    alive = d > 0
    terms = np.where(alive, nm / np.where(alive, d, 1.0), 0.0)
    survivors = np.bincount(rows, weights=alive, minlength=Q)
    sums = np.stack([np.bincount(rows, weights=terms[l], minlength=Q) for l in range(L)], 1)
    out = []
    for q in range(Q):
        if survivors[q] == 0:
            out.append(None)
            continue
        s = sums[q]
        near = np.flatnonzero(s >= s.max() - 1e-9 * survivors[q])
        if near.size == 1:
            out.append((int(near[0]),))
            continue
        part = slice(offset[q], offset[q + 1])
        e = ents[part][alive[part]]
        exact = [sum((Fraction(int(num[l, lbl[x], qdst[q], dst[x]]),
                               int(den[lbl[x], qdst[q], dst[x]])) for x in e), Fraction(0))
                 for l in near.tolist()]
        top = max(exact)
        out.append(tuple(int(l) for l, v in zip(near.tolist(), exact) if v == top))
    return out


def bracket_confusions(winners, truth, prior_label: int, L: int):
    """Confusions when every exact tie goes against, and in favour of, the truth."""
    low = np.zeros((L, L), dtype=np.int64)
    high = np.zeros((L, L), dtype=np.int64)
    for w, t in zip(winners, truth.tolist()):
        if w is None:
            low[t, prior_label] += 1
            high[t, prior_label] += 1
            continue
        worst = next((l for l in w if l != t), t)
        best = t if t in w else w[0]
        low[t, worst] += 1
        high[t, best] += 1
    return low, high


# -- smoothed target-link model for single queries -------------------------------------------

class Snapshot:
    """A graph and partition held as dense 0/1 matrices for exact counting."""

    def __init__(self, n: int, src, dst, lbl, asg, K: int, L: int):
        self.L = L
        self.asg = np.asarray(asg)
        self.A = np.zeros((L, n, n), dtype=bool)
        self.A[lbl, src, dst] = True
        self.Aany = self.A.any(axis=0)
        # B[l, v, c]: v has an edge labeled l into cluster c.
        self.B = np.zeros((L, n, K), dtype=bool)
        self.B[lbl, src, self.asg[dst]] = True
        self.Bany = self.B.any(axis=0)

    def count(self, m: int, l: int, n: int, lp: int) -> int:
        """Node-level co-pointing count; ``l`` and ``lp`` may be -1 (any label)."""
        a = self.Aany[:, m] if l < 0 else self.A[l][:, m]
        b = self.Aany[:, n] if lp < 0 else self.A[lp][:, n]
        return int(np.count_nonzero(a & b))

    def stlgm(self, i: int, j: int, mu: float):
        """Probability vector of the smoothed target-link model, or None."""
        L = self.L
        xs = np.flatnonzero(self.Aany[i])
        xs = xs[xs != j]
        lxs = np.argmax(self.A[:, i, xs], axis=0)
        cols = self.A[lxs, :, xs]                        # (k, n)
        lden = np.count_nonzero(cols & self.Aany[:, j], axis=1)
        lnum = np.stack([np.count_nonzero(cols & self.A[l][:, j], axis=1) for l in range(L)], 1)
        members = self.asg == self.asg[i]
        cj = self.asg[j]
        inc = self.B[lxs][:, members][np.arange(xs.size), :, self.asg[xs]]   # (k, |s|)
        gden = np.count_nonzero(inc & self.Bany[members, cj], axis=1)
        gnum = np.stack([np.count_nonzero(inc & self.B[l][members, cj], axis=1)
                         for l in range(L)], 1)
        acc = np.zeros(L)
        used = 0
        for e in range(xs.size):
            if lden[e] == 0 and gden[e] == 0:
                continue
            lterm = lnum[e] / lden[e] if lden[e] else None
            gterm = gnum[e] / gnum[e].sum() if gden[e] else None
            if lterm is None:
                term = gterm
            elif gterm is None:
                term = lterm
            else:
                lam = mu / (lden[e] + mu)
                term = (1.0 - lam) * lterm + lam * gterm
            acc += term
            used += 1
        return acc / used if used else None
