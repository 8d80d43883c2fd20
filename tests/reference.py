"""Independent reference implementations used as test oracles.

Everything here is written scalar-first with plain python containers and the
math module, deliberately avoiding the vectorized code paths under test. The one
exception, loop_best_split, keeps the GBDT's former per-feature numpy loop.
"""
import math
from fractions import Fraction

import numpy as np


def as_lists(a):
    """Convert an array (or nested sequence) to nested python lists of floats."""
    if hasattr(a, "tolist"):
        return a.tolist()
    return a


def matvec(m, v):
    return [sum(m[r][c] * v[c] for c in range(len(v))) for r in range(len(m))]


def vadd(*vs):
    return [sum(col) for col in zip(*vs)]


def vtanh(v):
    return [math.tanh(x) for x in v]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def scalar_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def scalar_attention(w_src, w_dst, attn, h_center, h_neighbors):
    """Softmax attention over [center] + neighbors, one candidate at a time."""
    cands = [h_center] + list(h_neighbors)
    base = matvec(w_src, h_center)
    scores = [dot(attn, vtanh(vadd(base, matvec(w_dst, hv)))) for hv in cands]
    top = max(scores)
    exps = [math.exp(s - top) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def scalar_breadth_layer(layer, h, adjacency):
    """One attention-aggregation step for every node.

    layer: dict with keys w_agg, w_src, w_dst, attn (nested lists).
    h: list of K-vectors per node. adjacency: list of neighbor-index lists.
    """
    out = []
    for u in range(len(h)):
        cands = [u] + list(adjacency[u])
        weights = scalar_attention(
            layer["w_src"], layer["w_dst"], layer["attn"], h[u], [h[v] for v in adjacency[u]]
        )
        k = len(h[u])
        agg = [0.0] * k
        for w, v in zip(weights, cands):
            for c in range(k):
                agg[c] += w * h[v][c]
        out.append(vtanh(matvec(layer["w_agg"], agg)))
    return out


def scalar_lstm(w_x, w_h, bias, xs):
    """Final hidden state of an LSTM run over one node's sequence.

    Gate layout along the stacked 4K dimension: input, forget, cell, output.
    xs: list of K-vectors (the sequence for a single node).
    """
    k = len(xs[0])
    h = [0.0] * k
    c = [0.0] * k
    for x in xs:
        a = vadd(matvec(w_x, x), matvec(w_h, h), bias)
        i = [scalar_sigmoid(v) for v in a[:k]]
        f = [scalar_sigmoid(v) for v in a[k:2 * k]]
        g = [math.tanh(v) for v in a[2 * k:3 * k]]
        o = [scalar_sigmoid(v) for v in a[3 * k:]]
        c = [f[j] * c[j] + i[j] * g[j] for j in range(k)]
        h = [o[j] * math.tanh(c[j]) for j in range(k)]
    return h


def scalar_geniepath_forward(named, adjacency, accounts, features, n_layers):
    """Fraud probability per account, computed node by node.

    named: dict of parameter name -> nested lists, using the checkpoint
    naming scheme (w_in, layer0.w_agg, ..., lstm.w_x, w_out, b_out).
    accounts: account node indices aligned with feature rows.
    """
    n = len(adjacency)
    k = len(named["w_in"])
    h = [[0.0] * k for _ in range(n)]
    for row, u in enumerate(accounts):
        h[u] = vtanh(matvec(named["w_in"], features[row]))

    stacks = {u: [list(h[u])] for u in accounts}
    for t in range(n_layers):
        layer = {
            key: named[f"layer{t}.{key}"] for key in ("w_agg", "w_src", "w_dst", "attn")
        }
        h = scalar_breadth_layer(layer, h, adjacency)
        for u in accounts:
            stacks[u].append(list(h[u]))

    probs = []
    for u in accounts:
        final = scalar_lstm(named["lstm.w_x"], named["lstm.w_h"], named["lstm.bias"], stacks[u])
        logit = dot(named["w_out"], final) + named["b_out"][0]
        probs.append(scalar_sigmoid(logit))
    return probs


def union_find_components(n, edges):
    """Connected components as a list of frozensets (order independent)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for node in range(n):
        groups.setdefault(find(node), set()).add(node)
    return {frozenset(members) for members in groups.values()}


def bfs_distance_map(adjacency, start, max_depth):
    """Hop distance from start for every node within max_depth."""
    dist = {start: 0}
    frontier = [start]
    for d in range(1, max_depth + 1):
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def brute_force_pr_points(scores, labels):
    """PR points at every distinct score, thresholding by score >= t.

    scores: list of floats; labels: list of bools. Returns a list of
    (threshold, precision, recall) in descending threshold order.
    """
    n_pos = sum(1 for flag in labels if flag)
    points = []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and not y)
        fn = n_pos - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        points.append((t, prec, rec))
    return points


def brute_force_confusion(scores, labels, threshold):
    tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y)
    fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and not y)
    fn = sum(1 for s, y in zip(scores, labels) if s < threshold and y)
    tn = sum(1 for s, y in zip(scores, labels) if s < threshold and not y)
    return tp, fp, tn, fn


def loop_best_split(x, g, h, rows, feats, min_leaf, l2_lambda=1.0):
    """GBDT split search one feature at a time: (gain, feature, threshold) or None.

    Sorts each sampled feature on its own and keeps the first strictly best
    cut; the vectorised search must return the same tuple bit for bit.
    """
    g_total = g[rows].sum()
    h_total = h[rows].sum()
    parent = g_total**2 / (h_total + l2_lambda)
    best = None
    for f in feats:
        values = x[rows, f]
        order = np.argsort(values, kind="stable")
        xs = values[order]
        gl = np.cumsum(g[rows][order])
        hl = np.cumsum(h[rows][order])
        # split after position i keeps rows 0..i on the left
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        cut = cut[(cut + 1 >= min_leaf) & (len(rows) - cut - 1 >= min_leaf)]
        if len(cut) == 0:
            continue
        gains = 0.5 * (
            gl[cut] ** 2 / (hl[cut] + l2_lambda)
            + (g_total - gl[cut]) ** 2 / (h_total - hl[cut] + l2_lambda)
            - parent
        )
        j = int(np.argmax(gains))
        if gains[j] > 0.0 and (best is None or gains[j] > best[0]):
            thr = 0.5 * (xs[cut[j]] + xs[cut[j] + 1])
            best = (float(gains[j]), int(f), float(thr))
    return best


def fraction_best_f1(scores, labels):
    """(threshold, F1) maximizing exact rational F1; ties go to the highest threshold.

    scores: list of floats; labels: list of bools. F1 is a Fraction.
    """
    n_pos = sum(1 for flag in labels if flag)
    best = None
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y)
        n_pred = sum(1 for s in scores if s >= t)
        value = Fraction(2 * tp, n_pred + n_pos)
        if best is None or value > best[1]:
            best = (t, value)
    return best


def softplus(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def naive_sgns_loss(w_center, w_context, centers, contexts, negatives_by_center):
    """Skip-gram loss averaged over a raw (center, context) pair list.

    Each pair adds softplus(-u_c . v_o) plus softplus(u_c . v_n) for every
    negative n listed for its center in negatives_by_center (a dict).
    """
    total = 0.0
    for c, o in zip(centers, contexts):
        u = w_center[c]
        total += softplus(-dot(u, w_context[o]))
        for n in negatives_by_center.get(c, ()):
            total += softplus(dot(u, w_context[n]))
    return total / len(centers)


def window_pairs(walks, window):
    """Every (center, context) pair within window steps of each other in a walk."""
    centers, contexts = [], []
    for walk in walks:
        for i, center in enumerate(walk):
            for j in range(max(0, i - window), min(len(walk), i + window + 1)):
                if j != i:
                    centers.append(center)
                    contexts.append(walk[j])
    return centers, contexts
