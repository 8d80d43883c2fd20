"""Independent reference implementations used as test oracles.

Everything here is written scalar-first with plain python containers and the
math module, deliberately avoiding the vectorized code paths under test. The
exceptions keep a former numpy version as an exact-arithmetic reference:
loop_best_split (the GBDT's per-feature loop), block_sort_best_split (its
split search sorting each node's block), full_forward and
add_at_backward (the GNN forward pass over every node and its backward pass
scattering with np.add.at), cached_add_at_backward (that backward pass over
the current forward cache), masked_sigmoid, edge_transition_weights
(node2vec's unnormalized step weights on any graph), padded_walks (walk
lists as one array padded with -1, as node2vec built its skip-gram input
while its walks were lists), per_offset_walk_pairs and
per_offset_forward_pairs (node2vec's raw window pairs, both ways round or
forward only, as one concatenation of per-offset arrays),
one_shot_pair_table (node2vec's window pair counts from one np.unique over
all raw pairs),
flat_key_sgns_loss_grad (the skip-gram step scattering its negatives with
one flat bincount),
allocating_adam_step (the Adam update with a fresh array
per operation), all_row_scores and all_row_compare_models (evaluate scoring
every dataset row with every model and keeping the Test rows only in the
report), and the GBDT as trees of Node objects: node_gbdt_fit,
node_predict_batch and node_load_gbdt (the recursive tree growth, predictor and
loader, with the loader's non-finite and count checks added), read back into
the flat layout by flatten_trees. per_value_save_features,
per_value_save_ground_truth, per_event_save_claim_events and
per_event_save_login_events are the savers as they wrote one value or event
at a time. gbdt_predict, breadth_layer, depth_layer and
khop_neighbor_counts are thin wrappers over the package's batch kernels that
only tests call: one row's GBDT probability, one attention layer over every
node, the LSTM over a sequence, and the mean hop counts around a set of seeds.
"""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from fraudring.baselines.gbdt import L2_LAMBDA, MODEL_HEADER, ModelFormatError, gbdt_predict_batch, load_gbdt
from fraudring.baselines.node2vec import _PairTable, _flat_keys, concat_rows, load_embeddings
from fraudring.evaluation import (
    EvalReport,
    ModelRow,
    _hop_counts,
    best_f1_threshold,
    confusion,
    detection_expansion,
    label_column,
    pr_curve,
    precision,
    recall,
)
from fraudring.features import FeatureFormatError
from fraudring.geniepath import _breadth_forward, _candidates, _lstm_forward, load_params, sigmoid
from fraudring.train import score_accounts


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


def breadth_layer(layer, g, h):
    """One attention-pooling step over every node's neighborhood-plus-self, by the package's kernel."""
    h = np.asarray(h, dtype=np.float64)
    nodes = np.arange(g.num_nodes)
    h_next, _ = _breadth_forward(layer, h, *_candidates(g, nodes), nodes)
    return h_next


def depth_layer(lstm, sequence):
    """Final LSTM hidden state over a (T+1)-long sequence of (n, K) embeddings, by the package's kernel."""
    if len(sequence) < 1:
        raise ValueError("sequence must contain at least one step")
    h, _ = _lstm_forward(lstm, [np.asarray(x, dtype=np.float64) for x in sequence])
    return h


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


def bfs_hop_counts(adjacency, seed, max_hop, counted):
    """Counts of the counted nodes at hops 1..max_hop from seed, one breadth-first search."""
    counts = [0] * max_hop
    for node, d in bfs_distance_map(adjacency, seed, max_hop).items():
        if d >= 1 and counted[node]:
            counts[d - 1] += 1
    return counts


def khop_neighbor_counts(g, seeds, max_hop, counted=None):
    """Average number of nodes at shortest-path distance exactly h from the seeds.

    Element h-1 of the result is the mean over the distinct seeds of the
    count at hop h, counting only the nodes of the bool mask counted if
    given (g.is_account counts accounts). Seeds are any collection or
    array of account node indices. A wrapper over the package's
    evaluation._hop_counts that only tests call.
    """
    seeds = np.unique(np.fromiter(seeds, dtype=np.int64))
    if not len(seeds):
        raise ValueError("seeds must be nonempty")
    if max_hop < 1:
        raise ValueError("max_hop must be >= 1")
    outside = (seeds < 0) | (seeds >= g.num_nodes)
    not_account = ~np.append(g.is_account, False)[np.where(outside, g.num_nodes, seeds)]
    if not_account.any():
        raise ValueError(f"seed {seeds[np.argmax(not_account)]} is not an Account node")

    counted = np.ones(g.num_nodes, dtype=bool) if counted is None else np.asarray(counted, dtype=bool)
    if counted.shape != (g.num_nodes,):
        raise ValueError(f"counted mask of shape {counted.shape} for {g.num_nodes} nodes")
    return (_hop_counts(g, seeds, max_hop, counted).sum(axis=0) / len(seeds)).tolist()


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
            best = (float(gains[j]), int(f), cut_threshold(xs[cut[j]], xs[cut[j] + 1]))
    return best


def cut_threshold(below, above):
    """The midpoint of two sorted values, or the upper one where the midpoint is not strictly between."""
    below, above = float(below), float(above)
    mid = 0.5 * (below + above)
    return mid if below < mid < math.inf else above


def block_sort_best_split(x, g, h, rows, feats, min_leaf):
    """GBDT split search that stably sorts the node's (rows x feats) block: (gain, feature, threshold) or None.

    The search as it was before columns were sorted once per fit. Ties go to
    the lowest cut position within a feature, then to the earliest feature in
    feats.
    """
    g_rows = g[rows]
    h_rows = h[rows]
    g_total = g_rows.sum()
    h_total = h_rows.sum()
    parent = g_total**2 / (h_total + L2_LAMBDA)
    block = x[rows[:, None], feats]
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    gl = np.cumsum(g_rows[order], axis=0)[:-1]
    hl = np.cumsum(h_rows[order], axis=0)[:-1]
    # a cut after position i keeps sorted rows 0..i on the left
    n_left = np.arange(1, len(rows))[:, None]
    valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (len(rows) - n_left >= min_leaf)
    gains = 0.5 * (
        gl**2 / (hl + L2_LAMBDA) + (g_total - gl) ** 2 / (h_total - hl + L2_LAMBDA) - parent
    )
    gains[~valid] = -np.inf
    cut = np.argmax(gains, axis=0)
    col_gains = gains[cut, np.arange(len(feats))]
    j = int(np.argmax(col_gains))
    if not col_gains[j] > 0.0:
        return None
    return float(col_gains[j]), int(feats[j]), cut_threshold(xs[cut[j], j], xs[cut[j] + 1, j])


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


def dict_bce(probabilities, positives, negatives, clamp=1e-12):
    """Cross-entropy over a positive and a negative set of keys, one key at a time.

    probabilities: dict of key -> probability, clamped to [clamp, 1 - clamp].
    Overlapping sets are rejected.
    """
    overlap = set(positives) & set(negatives)
    if overlap:
        raise ValueError(f"positive and negative sets overlap on {sorted(overlap)[:5]}")
    total = 0.0
    for v in positives:
        total -= math.log(min(max(probabilities[v], clamp), 1.0 - clamp))
    for v in negatives:
        total -= math.log(1.0 - min(max(probabilities[v], clamp), 1.0 - clamp))
    return total


def naive_build_graph(claims, logins, window):
    """The device-sharing graph from ClaimEvent and LoginEvent lists, one event at a time.

    Returns (ids, is_account, edges): the node ids and kinds in index order,
    and the distinct edges as sorted (u, v) tuples with u < v.
    """
    first_claim = {}
    for claim in claims:
        if window.claim_start <= claim.timestamp < window.reference_time:
            prev = first_claim.get(claim.account_external_id)
            if prev is None or claim.timestamp < prev:
                first_claim[claim.account_external_id] = claim.timestamp

    accounts = sorted(first_claim, key=lambda a: (first_claim[a], a))
    account_index = {a: i for i, a in enumerate(accounts)}

    first_login = {}
    pairs = set()
    for login in logins:
        if login.account_external_id not in account_index:
            continue
        if not (window.device_start <= login.timestamp < window.reference_time):
            continue
        pairs.add((login.account_external_id, login.device_umid))
        prev = first_login.get(login.device_umid)
        if prev is None or login.timestamp < prev:
            first_login[login.device_umid] = login.timestamp

    devices = sorted(first_login, key=lambda d: (first_login[d], d))
    device_index = {d: len(accounts) + j for j, d in enumerate(devices)}

    edges = sorted((account_index[a], device_index[d]) for a, d in pairs)
    return accounts + devices, [True] * len(accounts) + [False] * len(devices), edges


def loop_edge_error(is_account, edges):
    """The message of the first bad edge, checked one edge at a time, or None if all are good."""
    n = len(is_account)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) references a missing node"
        if u == v:
            return f"self-loop on node {u}"
        if is_account[u] == is_account[v]:
            return f"edge ({u}, {v}) joins two {'A' if is_account[u] else 'D'} nodes; graph must be bipartite"
    return None


def line_by_line_graph(path):
    """A graph TSV read one line at a time: (ids, is_account, edges), or the error message.

    Lines split at "\n" only. The node section ends at the first blank or
    whitespace-only line. A node line fails on its field count, then a
    non-integer index, an index out of order, an unknown kind, an empty id and
    an id repeated within its kind. Blank edge lines are skipped but counted;
    an edge line fails on its field count, then non-integer endpoints, a
    missing node, u >= v, two nodes of one kind and a repeated edge.
    """
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    if raw[-1] == "":
        raw.pop()

    def fail(lineno, message):
        return f"{path}:{lineno}: {message}"

    if not raw or raw[0].strip() != "#nodes":
        return fail(1, "expected '#nodes' header")
    ids, is_account, seen_ids = [], [], set()
    i = 1
    while i < len(raw) and raw[i].strip() != "":
        parts = raw[i].split("\t")
        if len(parts) != 3:
            return fail(i + 1, f"expected 3 tab-separated node fields, got {len(parts)}")
        idx_text, kind, ext_id = parts
        try:
            idx = int(idx_text)
        except ValueError:
            return fail(i + 1, f"node index {idx_text!r} is not an integer")
        if idx != len(ids):
            return fail(i + 1, f"node index {idx} out of order; expected {len(ids)}")
        if kind not in ("A", "D"):
            return fail(i + 1, f"unknown node kind {kind!r}; expected A or D")
        if not ext_id:
            return fail(i + 1, "empty external id")
        if (kind, ext_id) in seen_ids:
            return fail(i + 1, f"duplicate external id {ext_id!r} for kind {kind}")
        seen_ids.add((kind, ext_id))
        ids.append(ext_id)
        is_account.append(kind == "A")
        i += 1

    if i >= len(raw):
        return fail(len(raw), "missing '#edges' section")
    i += 1
    if i >= len(raw) or raw[i].strip() != "#edges":
        return fail(i + 1, "expected '#edges' header after blank line")

    edges, seen = [], set()
    n = len(ids)
    for lineno in range(i + 2, len(raw) + 1):
        line = raw[lineno - 1]
        if line.strip() == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            return fail(lineno, f"expected 2 tab-separated edge fields, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            return fail(lineno, f"edge endpoints {line!r} are not integers")
        if not (0 <= u < n and 0 <= v < n):
            return fail(lineno, f"edge ({u}, {v}) references a missing node")
        if u >= v:
            return fail(lineno, f"edge ({u}, {v}) must be written with src < dst")
        if is_account[u] == is_account[v]:
            return fail(lineno, f"edge ({u}, {v}) joins two {'A' if is_account[u] else 'D'} nodes; graph must be bipartite")
        if (u, v) in seen:
            return fail(lineno, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return ids, is_account, edges


def line_by_line_events(path, id_names):
    """An event TSV read one line at a time: (id columns, timestamps), or the error message.

    Blank lines are skipped but counted; within a line a wrong field count
    comes first, then the first empty id, then a timestamp that is not an
    integer or falls outside int64.
    """
    columns = [[] for _ in id_names]
    timestamps = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(id_names) + 1:
                return f"{path}:{lineno}: expected {len(id_names) + 1} fields, got {len(parts)}"
            if "" in parts[:-1]:
                return f"{path}:{lineno}: empty {id_names[parts.index('')]}"
            try:
                ts = int(parts[-1])
            except ValueError:
                return f"{path}:{lineno}: timestamp {parts[-1]!r} is not an integer"
            if not -(2**63) <= ts < 2**63:
                return f"{path}:{lineno}: timestamp {parts[-1]!r} is outside the int64 range"
            for column, value in zip(columns, parts):
                column.append(value)
            timestamps.append(ts)
    return columns, timestamps


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    if raw[-1] == "":
        raw.pop()
    return raw


def _reference_account_rows(graph):
    return {ext: r for r, ext in enumerate(ext for ext, a in zip(graph.ids, graph.is_account) if a)}


def _reference_missing_rows(path, row_of, seen):
    missing = [ext for ext, ok in zip(row_of, seen) if not ok]
    return FeatureFormatError(f"{path}: no row for {len(missing)} graph account(s), e.g. {missing[:5]}")


def line_by_line_features(path, graph):
    """A features TSV read one line at a time: (features, high_risk) over the graph's accounts.

    Raises FeatureFormatError naming path:line. Whitespace-only lines are
    skipped but counted; a line fails on its field count, then an unknown
    account id, the tag, a non-numeric value, a non-finite value and an
    account an earlier line has. With no bad line, a missing account fails.
    """
    row_of = _reference_account_rows(graph)
    raw = _lines(path)
    if not raw:
        raise FeatureFormatError(f"{path}:1: empty features file")
    header = raw[0].split("\t")
    if len(header) < 3 or header[0] != "account_id" or header[1] != "tag":
        raise FeatureFormatError(f"{path}:1: bad header {raw[0]!r}")
    p = len(header) - 2

    features = np.zeros((len(row_of), p))
    high_risk = np.zeros(len(row_of), dtype=bool)
    seen = np.zeros(len(row_of), dtype=bool)
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != p + 2:
            raise FeatureFormatError(f"{path}:{lineno}: expected {p + 2} fields, got {len(parts)}")
        ext_id = parts[0]
        if ext_id not in row_of:
            raise FeatureFormatError(f"{path}:{lineno}: unknown account id {ext_id!r}")
        if parts[1] not in ("HIGH_RISK", "NO_OBSERVABLE_RISK"):
            raise FeatureFormatError(f"{path}:{lineno}: unknown tag {parts[1]!r}")
        try:
            values = [float(v) for v in parts[2:]]
        except ValueError:
            raise FeatureFormatError(f"{path}:{lineno}: non-numeric feature value") from None
        if not all(map(math.isfinite, values)):
            raise FeatureFormatError(f"{path}:{lineno}: non-finite feature value")
        r = row_of[ext_id]
        if seen[r]:
            raise FeatureFormatError(f"{path}:{lineno}: duplicate row for account {ext_id!r}")
        seen[r] = True
        features[r] = values
        high_risk[r] = parts[1] == "HIGH_RISK"
    if not seen.all():
        raise _reference_missing_rows(path, row_of, seen)
    return features, high_risk


def line_by_line_ground_truth(path, graph):
    """A ground-truth TSV read one line at a time: the fraud column over the graph's accounts.

    Raises FeatureFormatError naming path:line. Whitespace-only lines are
    skipped but counted; a line fails on its field count, then an unknown
    account id, an is_fraud other than 0 or 1 and an account an earlier line
    has. With no bad line, a missing account fails.
    """
    row_of = _reference_account_rows(graph)
    truth = np.zeros(len(row_of), dtype=bool)
    seen = np.zeros(len(row_of), dtype=bool)
    raw = _lines(path)
    if not raw or raw[0] != "account_id\tis_fraud":
        raise FeatureFormatError(f"{path}:1: bad ground-truth header")
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FeatureFormatError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        if parts[0] not in row_of:
            raise FeatureFormatError(f"{path}:{lineno}: unknown account id {parts[0]!r}")
        if parts[1] not in ("0", "1"):
            raise FeatureFormatError(f"{path}:{lineno}: is_fraud must be 0 or 1, got {parts[1]!r}")
        r = row_of[parts[0]]
        if seen[r]:
            raise FeatureFormatError(f"{path}:{lineno}: duplicate row for account {parts[0]!r}")
        seen[r] = True
        truth[r] = parts[1] == "1"
    if not seen.all():
        raise _reference_missing_rows(path, row_of, seen)
    return truth


def per_value_save_features(ds, path):
    """The features TSV with each value formatted on its own, as f"{v:.9g}" of the numpy scalar."""
    header = "account_id\ttag\t" + "\t".join(f"f{j}" for j in range(ds.feature_dim))
    lines = [header]
    for ext, tagged, row in zip(_reference_account_rows(ds.graph), ds.high_risk, ds.features):
        tag = "HIGH_RISK" if tagged else "NO_OBSERVABLE_RISK"
        values = "\t".join(f"{v:.9g}" for v in row)
        lines.append(f"{ext}\t{tag}\t{values}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def per_value_save_ground_truth(ds, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("account_id\tis_fraud\n")
        for ext, flag in zip(_reference_account_rows(ds.graph), ds.truth):
            fh.write(f"{ext}\t{1 if flag else 0}\n")


def _reference_tsv_id(value, what):
    if "\t" in value or "\n" in value or "\r" in value or not value:
        raise ValueError(f"{what} {value!r} must be nonempty and free of tabs/newlines")


def per_event_save_claim_events(events, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            _reference_tsv_id(ev.account_external_id, "account id")
            fh.write(f"{ev.account_external_id}\t{ev.timestamp}\n")


def per_event_save_login_events(events, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            _reference_tsv_id(ev.account_external_id, "account id")
            _reference_tsv_id(ev.device_umid, "device umid")
            fh.write(f"{ev.account_external_id}\t{ev.device_umid}\t{ev.timestamp}\n")


def line_by_line_embeddings(path, g):
    """An embeddings TSV read one line at a time: the (num_nodes, d) vectors.

    Raises ValueError naming path:line. Whitespace-only lines are skipped but
    counted; the k-th other line fails on an id that is not node k's, then a
    non-numeric value, a non-finite value and a width other than the first
    row's. With no bad line, too few rows fail.
    """
    rows = []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        k = len(rows)
        if k == g.num_nodes or parts[0] != g.ids[k]:
            if parts[0] not in g.ids:
                raise ValueError(f"{path}:{lineno}: unknown node id {parts[0]!r}")
            expected = f"node {k} is {g.ids[k]!r}" if k < g.num_nodes else f"the graph has {k} nodes"
            raise ValueError(f"{path}:{lineno}: row for node id {parts[0]!r} out of place; {expected}")
        try:
            vec = [float(v) for v in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric embedding value") from None
        if not all(map(math.isfinite, vec)):
            raise ValueError(f"{path}:{lineno}: non-finite embedding value")
        if rows and len(vec) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: inconsistent embedding width")
        rows.append(vec)
    if not rows or len(rows) < g.num_nodes:
        raise ValueError(f"{path}: embeddings missing for some graph nodes")
    return np.array(rows, dtype=np.float64)


def full_forward(params, g, features):
    """geniepath.forward as it computed every layer at every node: the exact-arithmetic reference.

    Returns (probs, cache); the cache is a SimpleNamespace of the full-graph
    intermediates add_at_backward reads.
    """
    offsets, targets = g.csr()
    n, k = g.num_nodes, params.hidden_dim
    seg_len = np.diff(offsets) + 1
    seg_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(seg_len[:-1], out=seg_starts[1:])
    cand_dst = np.empty(int(seg_len.sum()), dtype=np.int64)
    cand_dst[seg_starts] = np.arange(n)
    not_self = np.ones(len(cand_dst), dtype=bool)
    not_self[seg_starts] = False
    cand_dst[not_self] = targets
    cand_src = np.repeat(np.arange(n), seg_len)

    accounts = g.account_indices()
    features = np.asarray(features, dtype=np.float64)
    h = np.zeros((n, k))
    h[accounts] = np.tanh(features @ params.w_in.T)
    h_stack, layer_caches = [h], []
    for layer in params.layers:
        z = np.tanh((h @ layer.w_src.T)[cand_src] + (h @ layer.w_dst.T)[cand_dst])
        scores = np.einsum("ij,j->i", z, layer.attn)
        shifted = np.exp(scores - np.maximum.reduceat(scores, seg_starts)[cand_src])
        alpha = shifted / np.add.reduceat(shifted, seg_starts)[cand_src]
        agg = np.add.reduceat(alpha[:, None] * h[cand_dst], seg_starts, axis=0)
        h = np.tanh(agg @ layer.w_agg.T)
        h_stack.append(h)
        layer_caches.append(SimpleNamespace(z=z, alpha=alpha, agg=agg))

    lstm = params.lstm
    h_lstm = np.zeros((len(accounts), k))
    c = np.zeros_like(h_lstm)
    lstm_steps = []
    for x in [layer_out[accounts] for layer_out in h_stack]:
        a = x @ lstm.w_x.T + h_lstm @ lstm.w_h.T + lstm.bias
        i, f = masked_sigmoid(a[:, :k]), masked_sigmoid(a[:, k:2 * k])
        gg, o = np.tanh(a[:, 2 * k:3 * k]), masked_sigmoid(a[:, 3 * k:])
        c_new = f * c + i * gg
        tanh_c = np.tanh(c_new)
        lstm_steps.append(SimpleNamespace(x=x, h_prev=h_lstm, c_prev=c, i=i, f=f, g=gg, o=o, tanh_c=tanh_c))
        h_lstm, c = o * tanh_c, c_new

    probs = masked_sigmoid(h_lstm @ params.w_out + params.b_out[0])
    return probs, SimpleNamespace(
        accounts=accounts, features=features, cand_src=cand_src, cand_dst=cand_dst, seg_starts=seg_starts,
        h_stack=h_stack, layer_caches=layer_caches, lstm_steps=lstm_steps, h_final=h_lstm, probs=probs,
    )


def _head_and_lstm_backward(params, cache, dprobs, grads):
    """Gradients of the sigmoid head and the LSTM; returns the gradient at each LSTM input."""
    dlogits = np.asarray(dprobs, dtype=np.float64) * cache.probs * (1.0 - cache.probs)
    grads.w_out[:] = cache.h_final.T @ dlogits
    grads.b_out[0] = dlogits.sum()

    dh = dlogits[:, None] * params.w_out
    dc = np.zeros_like(dh)
    dxs = [np.empty(0)] * len(cache.lstm_steps)
    for t in range(len(cache.lstm_steps) - 1, -1, -1):
        s = cache.lstm_steps[t]
        do = dh * s.tanh_c
        dc = dc + dh * s.o * (1.0 - s.tanh_c**2)
        di = dc * s.g
        df = dc * s.c_prev
        dg = dc * s.i
        dc = dc * s.f
        da = np.concatenate(
            [
                di * s.i * (1.0 - s.i),
                df * s.f * (1.0 - s.f),
                dg * (1.0 - s.g**2),
                do * s.o * (1.0 - s.o),
            ],
            axis=1,
        )
        grads.lstm.w_x += da.T @ s.x
        grads.lstm.w_h += da.T @ s.h_prev
        grads.lstm.bias += da.sum(axis=0)
        dxs[t] = da @ params.lstm.w_x
        dh = da @ params.lstm.w_h
    return dxs


def _input_layer_add_at(layer, grad, h, is_account_row, lc, dagg):
    """geniepath's layer-0 backward with an np.add.at scatter: the gradient at every row of h.

    The rows of h are the layer's input, zero where is_account_row is
    False. lc holds the candidate lists (centre src, row dst, seg_starts),
    the centres' rows centre_rows, the weights alpha and the tanh tables
    z_self, z_centre and z_input of geniepath's _InputLayerCache. Each score
    gradient is summed per node, in candidate order.
    """
    src, dst, seg_starts, alpha = lc.src, lc.dst, lc.seg_starts, lc.alpha
    acc = np.flatnonzero(is_account_row[dst])
    dagg_acc = dagg[src[acc]]
    dalpha = np.zeros(len(src))
    dalpha[acc] = np.einsum("ij,ij->i", dagg_acc, h[dst[acc]])
    seg_dot = np.add.reduceat(alpha * dalpha, seg_starts)
    dscores = alpha * (dalpha - seg_dot[src])
    other = np.ones(len(src), dtype=bool)
    other[seg_starts] = False
    d_self = dscores[seg_starts]
    d_centre, d_input = np.zeros(len(seg_starts)), np.zeros(len(h))
    np.add.at(d_centre, src[other], dscores[other])
    np.add.at(d_input, dst[other], dscores[other])
    grad.attn += lc.z_self.T @ d_self + lc.z_centre.T @ d_centre + lc.z_input.T @ d_input

    dpre_self = (1.0 - lc.z_self**2) * (d_self[:, None] * layer.attn)
    dpre_src = (1.0 - lc.z_centre**2) * (d_centre[:, None] * layer.attn) + dpre_self
    dpre_dst = (1.0 - lc.z_input**2) * (d_input[:, None] * layer.attn)
    dpre_dst[lc.centre_rows] += dpre_self
    grad.w_src += dpre_src.T @ h[lc.centre_rows]
    grad.w_dst += dpre_dst.T @ h

    dh = np.zeros_like(h)
    np.add.at(dh, dst[acc], alpha[acc, None] * dagg_acc)
    rest = dpre_dst @ layer.w_dst
    rest[lc.centre_rows] += dpre_src @ layer.w_src
    return dh + rest


def _breadth_add_at(layer, grad, lc, dst, centres, dagg, dh_prev):
    """geniepath's backward of a layer above the first, scattering into dh_prev's rows dst and centres with np.add.at.

    lc holds the candidate lists (centre src, seg_starts), the weights
    alpha, the centres' rows h_centres and the candidates' rows h_dst and
    tanh terms z.
    """
    dagg_per_cand = dagg[lc.src]
    dalpha = np.einsum("ij,ij->i", dagg_per_cand, lc.h_dst)
    np.add.at(dh_prev, dst, lc.alpha[:, None] * dagg_per_cand)
    seg_dot = np.add.reduceat(lc.alpha * dalpha, lc.seg_starts)
    dscores = lc.alpha * (dalpha - seg_dot[lc.src])
    grad.attn += lc.z.T @ dscores
    dpre = (dscores[:, None] * layer.attn) * (1.0 - lc.z**2)
    dpre_seg = np.add.reduceat(dpre, lc.seg_starts, axis=0)
    grad.w_src += dpre_seg.T @ lc.h_centres
    grad.w_dst += dpre.T @ lc.h_dst
    dh_prev[centres] += dpre_seg @ layer.w_src
    np.add.at(dh_prev, dst, dpre @ layer.w_dst)


def add_at_backward(params, g, features, dprobs):
    """geniepath.backward as it scattered into every node with np.add.at, after full_forward.

    Layer 0 sums its score gradients per node, as geniepath's does; its
    tanh tables are full_forward's terms at every node.
    """
    _, cache = full_forward(params, g, features)
    grads = params.zeros_like()
    k = params.hidden_dim
    accounts = cache.accounts
    dxs = _head_and_lstm_backward(params, cache, dprobs, grads)

    n = cache.h_stack[0].shape[0]
    dh_node = np.zeros((n, k))
    dh_node[accounts] = dxs[-1]

    for t in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[t]
        h = cache.h_stack[t]
        lists = SimpleNamespace(src=cache.cand_src, dst=cache.cand_dst, seg_starts=cache.seg_starts,
                                centre_rows=np.arange(n), h_centres=h, h_dst=h[cache.cand_dst],
                                **vars(cache.layer_caches[t]))
        dpre_out = dh_node * (1.0 - cache.h_stack[t + 1] ** 2)
        grads.layers[t].w_agg += dpre_out.T @ lists.agg
        dagg = dpre_out @ layer.w_agg
        if t:
            dh_prev = np.zeros((n, k))
            _breadth_add_at(layer, grads.layers[t], lists, cache.cand_dst, np.arange(n), dagg, dh_prev)
        else:
            src_term, dst_term = h @ layer.w_src.T, h @ layer.w_dst.T
            lists.z_self, lists.z_centre, lists.z_input = (
                np.tanh(src_term + dst_term), np.tanh(src_term), np.tanh(dst_term)
            )
            dh_prev = _input_layer_add_at(layer, grads.layers[0], h, g.is_account, lists, dagg)
        dh_prev[accounts] += dxs[t]
        dh_node = dh_prev

    dpre_in = dh_node[accounts] * (1.0 - cache.h_stack[0][accounts] ** 2)
    grads.w_in[:] = dpre_in.T @ cache.features
    return grads


def cached_add_at_backward(params, cache, dprobs):
    """geniepath.backward with np.add.at scatters into every node's row, reading geniepath.forward's cache.

    Each layer's cache holds its candidate lists (centre row src, input row
    dst) and its centres' input rows; cache.nodes[t] names the nodes of the
    rows of cache.h_stack[t]. The scatters add in the order backward's
    np.bincount adds, and every product has backward's shapes, so the two
    agree bit for bit.
    """
    grads = params.zeros_like()
    k = params.hidden_dim
    dxs = _head_and_lstm_backward(params, cache, dprobs, grads)

    n = int(cache.nodes[0].max(initial=-1)) + 1
    row_nodes = cache.nodes[-1]
    dh_node = np.zeros((n, k))
    dh_node[row_nodes] = dxs[-1]

    for t in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[t]
        lc = cache.layer_caches[t]
        centres = cache.nodes[t + 1]
        dpre_out = dh_node[centres] * (1.0 - cache.h_stack[t + 1] ** 2)
        grads.layers[t].w_agg += dpre_out.T @ lc.agg
        dagg = dpre_out @ layer.w_agg
        dh_prev = np.zeros((n, k))
        if t:
            _breadth_add_at(layer, grads.layers[t], lc, cache.nodes[t][lc.dst], centres, dagg, dh_prev)
        else:
            h = cache.h_stack[0]
            is_account_row = np.zeros(len(h), dtype=bool)
            is_account_row[cache.input_accounts] = True
            dh_prev[cache.nodes[0]] = _input_layer_add_at(layer, grads.layers[0], h, is_account_row, lc, dagg)
        dh_prev[row_nodes] += dxs[t]
        dh_node = dh_prev

    acc = cache.input_accounts
    dpre_in = dh_node[cache.nodes[0][acc]] * (1.0 - cache.h_stack[0][acc] ** 2)
    grads.w_in[:] = dpre_in.T @ cache.features
    return grads


def masked_sigmoid(x):
    """The logistic function on masks: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def edge_transition_weights(prev, prev_neighbors, cur_neighbors, p, q):
    """Unnormalized weights over cur's neighbors for a walk arriving from prev.

    Returning to prev weighs 1/p, moving to a node adjacent to prev weighs 1,
    anything else 1/q. prev_neighbors must be sorted.
    """
    w = np.full(len(cur_neighbors), 1.0 / q)
    if len(prev_neighbors):
        pos = np.minimum(
            np.searchsorted(prev_neighbors, cur_neighbors), len(prev_neighbors) - 1
        )
        w[prev_neighbors[pos] == cur_neighbors] = 1.0
    w[cur_neighbors == prev] = 1.0 / p
    return w


def scalar_biased_walks(g, config):
    """biased_walks one walker and one step at a time, over python neighbor lists.

    The draws are biased_walks' own: at every step, one uniform per live
    walker in walker order, and a second such round on a second-order
    step. A second-order step from prev to cur returns when
    u * (b + (d - 1) * o) <= b, with b = q / max(p, q) and o = p / max(p, q)
    the weights 1/p and 1/q times p * q / max(p, q); otherwise it takes the
    floor(v * (d - 1))-th of cur's other neighbors.
    """
    rng = np.random.default_rng(config.seed)
    p, q = config.return_param, config.inout_param
    back, other = q / max(p, q), p / max(p, q)
    neighbors = [[int(x) for x in g.neighbors(v)] for v in range(g.num_nodes)]
    walks = [[v] for _ in range(config.walks_per_node) for v in range(g.num_nodes)]
    live = [walk for walk in walks if neighbors[walk[0]]]
    for step in range(1, config.walk_length):
        first = rng.random(len(live)).tolist()
        second = None if step == 1 or p == q else rng.random(len(live)).tolist()
        for i, walk in enumerate(live):
            options = neighbors[walk[-1]]
            if second is None:
                walk.append(options[min(int(first[i] * len(options)), len(options) - 1)])
            elif first[i] * (back + (len(options) - 1) * other) <= back:
                walk.append(walk[-2])
            else:
                others = [x for x in options if x != walk[-2]]
                walk.append(others[min(int(second[i] * len(others)), len(others) - 1)])
    return walks


def padded_walks(walks, length=None):
    """The walks as rows of one int64 array, -1 past each walk's end; length columns, by default the longest walk's."""
    lengths = np.fromiter(map(len, walks), np.int64, len(walks))
    filled = np.arange(lengths.max() if length is None else length) < lengths[:, None]
    padded = np.full(filled.shape, -1, dtype=np.int64)
    padded[filled] = np.fromiter(itertools.chain.from_iterable(walks), np.int64, lengths.sum())
    return padded


def per_offset_forward_pairs(padded, window):
    """(center, context) of every forward window pair, steps i and i + off, of the padded walks: offset by offset."""
    padded = np.asarray(padded)
    centers, contexts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for off in range(1, min(window + 1, padded.shape[1])):
        a = padded[:, :-off].ravel()
        b = padded[:, off:].ravel()
        ok = (a >= 0) & (b >= 0)
        centers.append(a[ok])
        contexts.append(b[ok])
    return np.concatenate(centers), np.concatenate(contexts)


def per_offset_walk_pairs(padded, window):
    """(center, context) of every window pair of the padded walks: per offset, the pairs forward then reversed."""
    padded = np.asarray(padded)
    centers, contexts = [], []
    for off in range(1, min(window + 1, padded.shape[1])):
        a = padded[:, :-off].ravel()
        b = padded[:, off:].ravel()
        ok = (a >= 0) & (b >= 0)
        centers += [a[ok], b[ok]]
        contexts += [b[ok], a[ok]]
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(centers), np.concatenate(contexts)


def one_shot_pair_table(padded, window, n_nodes, d):
    """node2vec's window pair table from one np.unique over every raw pair at once; None when there is none."""
    raw_centers, raw_contexts = per_offset_walk_pairs(padded, window)
    if len(raw_centers) == 0:
        return None
    keys, counts = np.unique(raw_centers * n_nodes + raw_contexts, return_counts=True)
    weight = counts / len(raw_centers)
    center = keys // n_nodes
    context = keys % n_nodes
    mass = np.bincount(center, weights=weight, minlength=n_nodes)
    centers = np.flatnonzero(mass)
    return _PairTable(
        center, context, weight, centers, mass[centers], _flat_keys(center, d), _flat_keys(context, d)
    )


def flat_key_sgns_loss_grad(w_center, w_context, pairs, negatives):
    """The skip-gram loss and gradients as _sgns_loss_grad computed them with one bincount per scatter.

    Rows are scattered over flat node * d + dim keys, the negatives' (center,
    draw, dim) products included, and the loss uses np.logaddexp.
    """
    n, d = w_center.shape

    def scatter(index, rows):
        keys = (index[:, None] * d + np.arange(d)).ravel()
        return np.bincount(keys, weights=rows.ravel(), minlength=n * d).reshape(n, d)

    u_pair = w_center[pairs.center]
    v_pair = w_context[pairs.context]
    s_pos = np.einsum("bd,bd->b", u_pair, v_pair)
    u = w_center[pairs.centers]
    v_neg = w_context[negatives]
    s_neg = np.einsum("cd,ckd->ck", u, v_neg)
    loss = float(
        pairs.weight @ np.logaddexp(0.0, -s_pos)
        + pairs.center_weight @ np.logaddexp(0.0, s_neg).sum(axis=1)
    )
    g_pos = (pairs.weight * (masked_sigmoid(s_pos) - 1.0))[:, None]
    g_neg = pairs.center_weight[:, None] * masked_sigmoid(s_neg)
    d_center = scatter(pairs.center, v_pair * g_pos)
    d_center[pairs.centers] += np.einsum("ck,ckd->cd", g_neg, v_neg)
    d_context = scatter(pairs.context, u_pair * g_pos)
    d_context += scatter(negatives.ravel(), (g_neg[..., None] * u[:, None, :]).reshape(-1, d))
    return loss, d_center, d_context


def allocating_adam_step(w, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of w, m and v in place, each operation into a fresh array."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    w -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class Node:
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _node_build_tree(x, g, h, rows, feats, depth, config):
    if depth >= config.max_depth or len(rows) < 2 * config.min_samples_leaf:
        return Node()
    best = block_sort_best_split(x, g, h, rows, feats, config.min_samples_leaf)
    if best is None:
        return Node()
    _, f, thr = best
    mask = x[rows, f] < thr
    node = Node(feature=f, threshold=thr)
    node.left = _node_build_tree(x, g, h, rows[mask], feats, depth + 1, config)
    node.right = _node_build_tree(x, g, h, rows[~mask], feats, depth + 1, config)
    return node


def _node_leaf_values(node, x, rows, g, h, out):
    """Set each leaf to -G/(H+lambda) over the full-data rows routed to it."""
    if node.is_leaf:
        node.value = float(-g[rows].sum() / (h[rows].sum() + L2_LAMBDA))
        out[rows] = node.value
        return
    mask = x[rows, node.feature] < node.threshold
    _node_leaf_values(node.left, x, rows[mask], g, h, out)
    _node_leaf_values(node.right, x, rows[~mask], g, h, out)


def node_gbdt_fit(x, y, config):
    """The boosted ensemble as (base_score, list of Node roots, train_loss_history)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    n_pos = int(y.sum())
    base = math.log(n_pos / (n - n_pos))
    margins = np.full(n, base)
    rng = np.random.default_rng(config.seed)
    trees, losses = [], []
    n_rows = max(1, int(round(config.row_sample_rate * n)))
    n_feats = max(1, math.ceil(config.feature_sample_rate * p))
    for _ in range(config.n_trees):
        prob = sigmoid(margins)
        g = prob - y
        h = prob * (1.0 - prob)
        rows = np.sort(rng.choice(n, size=n_rows, replace=False))
        feats = np.sort(rng.choice(p, size=n_feats, replace=False))
        root = _node_build_tree(x, g, h, rows, feats, 0, config)
        contribution = np.zeros(n)
        _node_leaf_values(root, x, np.arange(n), g, h, contribution)
        margins += config.learning_rate * contribution
        trees.append(root)
        losses.append(float(np.logaddexp(0.0, (1.0 - 2.0 * y) * margins).mean()))
    return base, trees, losses


def _node_predict(node, x, rows, out):
    if node.is_leaf:
        out[rows] = node.value
        return
    mask = x[rows, node.feature] < node.threshold
    _node_predict(node.left, x, rows[mask], out)
    _node_predict(node.right, x, rows[~mask], out)


def gbdt_predict(model, x):
    """One feature row's probability, by gbdt_predict_batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise ValueError(f"feature vector shape {x.shape} does not match model's {model.n_features} features")
    return float(gbdt_predict_batch(model, x[None, :])[0])


def node_predict_batch(base_score, learning_rate, trees, x):
    """Margins (not probabilities), one recursive walk per tree, added tree by tree."""
    margins = np.full(x.shape[0], base_score)
    rows = np.arange(x.shape[0])
    contribution = np.zeros(x.shape[0])
    for tree in trees:
        _node_predict(tree, x, rows, contribution)
        margins += learning_rate * contribution
    return margins


def _count_nodes(node):
    return 1 if node.is_leaf else 1 + _count_nodes(node.left) + _count_nodes(node.right)


def flatten_trees(trees):
    """(roots, feature, threshold, value, right) of the trees in the flat preorder layout."""
    roots, feature, threshold, value, right = [], [], [], [], []

    def visit(node):
        k = len(feature)
        feature.append(node.feature)
        threshold.append(-math.inf if node.is_leaf else node.threshold)
        value.append(node.value)
        right.append(k)
        if not node.is_leaf:
            visit(node.left)
            right[k] = len(feature)
            visit(node.right)

    for tree in trees:
        roots.append(len(feature))
        visit(tree)
    return (np.array(roots, dtype=np.int64), np.array(feature, dtype=np.int64),
            np.array(threshold, dtype=np.float64), np.array(value, dtype=np.float64),
            np.array(right, dtype=np.int64))


def node_load_gbdt(path):
    """(base_score, learning_rate, n_features, trees) read one line at a time, Node by Node.

    The first bad line raises ModelFormatError naming path:line.
    """
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    if raw[-1] == "":
        raw.pop()

    def fail(lineno, message):
        return ModelFormatError(f"{path}:{lineno}: {message}")

    def scalar(lineno, key, parse):
        if lineno > len(raw):
            raise fail(lineno, f"missing {key}")
        parts = raw[lineno - 1].split()
        if len(parts) != 2 or parts[0] != key:
            raise fail(lineno, f"expected '{key} <value>', got {raw[lineno - 1]!r}")
        try:
            value = parse(parts[1])
        except ValueError:
            raise fail(lineno, f"bad {key} value {parts[1]!r}") from None
        if parse is float and not math.isfinite(value):
            raise fail(lineno, f"{key} must be finite, got {parts[1]!r}")
        if key == "n_features" and value < 1:
            raise fail(lineno, f"{key} must be >= 1, got {parts[1]!r}")
        if key == "n_trees" and value < 0:
            raise fail(lineno, f"{key} must be >= 0, got {parts[1]!r}")
        return value

    if not raw or raw[0] != MODEL_HEADER:
        raise fail(1, f"expected header {MODEL_HEADER!r}")
    base = scalar(2, "base_score", float)
    lr = scalar(3, "learning_rate", float)
    n_features = scalar(4, "n_features", int)
    n_trees = scalar(5, "n_trees", int)

    lineno = 5
    trees = []
    for i in range(n_trees):
        lineno += 1
        if lineno > len(raw):
            raise fail(lineno, f"missing tree {i}")
        parts = raw[lineno - 1].split()
        if len(parts) != 3 or parts[0] != "tree" or parts[1] != str(i):
            raise fail(lineno, f"expected 'tree {i} <n_nodes>', got {raw[lineno - 1]!r}")
        try:
            n_nodes = int(parts[2])
        except ValueError:
            raise fail(lineno, f"bad node count {parts[2]!r} for tree {i}") from None

        def read_node():
            nonlocal lineno
            lineno += 1
            if lineno > len(raw):
                raise fail(lineno, f"tree {i} is truncated")
            fields = raw[lineno - 1].split()
            if len(fields) == 2 and fields[0] == "leaf":
                try:
                    value = float(fields[1])
                except ValueError:
                    raise fail(lineno, f"bad leaf value {fields[1]!r}") from None
                if not math.isfinite(value):
                    raise fail(lineno, f"non-finite leaf value {fields[1]!r}")
                return Node(value=value)
            if len(fields) == 3 and fields[0] == "split":
                try:
                    feature = int(fields[1])
                    threshold = float(fields[2])
                except ValueError:
                    raise fail(lineno, f"bad split line {raw[lineno - 1]!r}") from None
                if not (0 <= feature < n_features):
                    raise fail(lineno, f"split feature {feature} out of range")
                if not math.isfinite(threshold):
                    raise fail(lineno, f"non-finite split threshold {fields[2]!r}")
                node = Node(feature=feature, threshold=threshold)
                node.left = read_node()
                node.right = read_node()
                return node
            raise fail(lineno, f"bad node line {raw[lineno - 1]!r}")

        root = read_node()
        if _count_nodes(root) != n_nodes:
            raise fail(lineno, f"tree {i} has {_count_nodes(root)} nodes, header says {n_nodes}")
        trees.append(root)

    lineno += 1
    if lineno > len(raw) or raw[lineno - 1] != "end":
        raise fail(lineno, "missing 'end' terminator")
    return base, lr, n_features, trees


def all_row_scores(ds, gnn_ckpt, gbdt_path, n2v_path, emb_path):
    """Each model's probability of every dataset row, from its files."""
    return {
        "gnn": score_accounts(ds, load_params(gnn_ckpt)),
        "gbdt": gbdt_predict_batch(load_gbdt(gbdt_path), ds.features),
        "node2vec-gbdt": gbdt_predict_batch(load_gbdt(n2v_path), concat_rows(load_embeddings(emb_path, ds.graph), ds)),
    }


def all_row_compare_models(ds, all_scores, label_source):
    """compare_models on scores of every dataset row, each model's Test rows picked out here."""
    test_accounts = ds.graph.account_indices()[ds.is_test].tolist()
    labels = dict(zip(test_accounts, label_column(ds, label_source)[ds.is_test].tolist()))
    rows, curves = [], {}
    for name, scores_of_all in all_scores.items():
        scores = dict(zip(test_accounts, scores_of_all[ds.is_test].tolist()))
        threshold, best = best_f1_threshold(scores, labels)
        counts = confusion(scores, labels, threshold)
        rows.append(ModelRow(name, threshold, precision(counts), recall(counts), best, detection_expansion(counts)))
        curves[name] = pr_curve(scores, labels)
    return EvalReport(rows, curves, label_source=label_source)
