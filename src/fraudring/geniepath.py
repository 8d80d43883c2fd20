"""Graph neural network over the device-sharing graph.

Each layer pools a node's one-hop neighborhood (itself included) with learned
attention weights; an LSTM then runs over the per-node sequence of layer
outputs so the model can pick which receptive depth to trust. A sigmoid head
turns the LSTM state into a fraud probability per account. Forward and exact
reverse-mode gradients are implemented directly on numpy arrays; a
finite-difference checker validates the gradients end to end.

Device nodes carry no features: their initial embedding is zero and they act
as mixing hubs through which account signals travel in two hops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import DeviceSharingGraph
from .textio import open_new, read_lines


class CheckpointFormatError(ValueError):
    """Malformed model checkpoint file."""


def sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """The logistic function with no overflow at either end; e is exp(-|x|) when the caller has it."""
    e = np.exp(-np.abs(x)) if e is None else e
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


@dataclass
class BreadthLayerParams:
    """One attention-pooling layer.

    Attention score of candidate v around center u is
    attn . tanh(w_src h_u + w_dst h_v); the layer output is
    tanh(w_agg sum_v softmax(score)_v h_v) over v in neighbors(u) + {u}.
    """

    w_agg: np.ndarray
    w_src: np.ndarray
    w_dst: np.ndarray
    attn: np.ndarray


@dataclass
class LSTMParams:
    """Single-layer LSTM; gate order in the stacked arrays is input, forget, cell, output."""

    w_x: np.ndarray
    w_h: np.ndarray
    bias: np.ndarray


class GeniePathParams:
    """Every weight of the network in one flat float64 vector.

    w_in, layers[t].w_agg/w_src/w_dst/attn, lstm.w_x/w_h/bias, w_out and
    b_out are views into vector, carved in _tensor_spec order, which is also
    the checkpoint's tensor order. Write a weight in place, through its view
    with [:] or +=; rebinding the attribute detaches it from the vector.
    """

    def __init__(self, feature_dim: int, hidden_dim: int, n_layers: int, vector: np.ndarray | None = None) -> None:
        """Views into vector, which is taken as is when it is a flat float64 array; zeros by default."""
        spec = _tensor_spec(feature_dim, hidden_dim, n_layers)
        sizes = [math.prod(shape) for _, shape in spec]
        ends = list(itertools.accumulate(sizes))
        vector = np.zeros(ends[-1]) if vector is None else np.ascontiguousarray(vector, dtype=np.float64)
        if vector.shape != (ends[-1],):
            raise ValueError(f"vector has shape {vector.shape}, parameters need {ends[-1]} entries")
        self.feature_dim, self.hidden_dim, self.n_layers = feature_dim, hidden_dim, n_layers
        self.vector = vector
        self._named = [
            (name, vector[end - n : end].reshape(shape)) for (name, shape), n, end in zip(spec, sizes, ends)
        ]
        views = (view for _, view in self._named)
        self.w_in = next(views)
        self.layers = [BreadthLayerParams(*itertools.islice(views, 4)) for _ in range(n_layers)]
        self.lstm = LSTMParams(*itertools.islice(views, 3))
        self.w_out, self.b_out = views

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return list(self._named)

    def validate(self) -> None:
        for name, arr in self._named:
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    def from_vector(self, vec: np.ndarray) -> "GeniePathParams":
        """New params with this instance's shapes and a copy of the given flat values."""
        return GeniePathParams(self.feature_dim, self.hidden_dim, self.n_layers, np.array(vec, dtype=np.float64))

    def zeros_like(self) -> "GeniePathParams":
        return GeniePathParams(self.feature_dim, self.hidden_dim, self.n_layers)

    def copy(self) -> "GeniePathParams":
        return self.from_vector(self.vector)


def _tensor_spec(feature_dim: int, hidden_dim: int, n_layers: int) -> list[tuple[str, tuple[int, ...]]]:
    p, k = feature_dim, hidden_dim
    spec: list[tuple[str, tuple[int, ...]]] = [("w_in", (k, p))]
    for t in range(n_layers):
        spec += [
            (f"layer{t}.w_agg", (k, k)),
            (f"layer{t}.w_src", (k, k)),
            (f"layer{t}.w_dst", (k, k)),
            (f"layer{t}.attn", (k,)),
        ]
    spec += [
        ("lstm.w_x", (4 * k, k)),
        ("lstm.w_h", (4 * k, k)),
        ("lstm.bias", (4 * k,)),
        ("w_out", (k,)),
        ("b_out", (1,)),
    ]
    return spec


def check_shape(hidden_dim: int, n_layers: int) -> None:
    """The rule init_params applies to the model's width and depth, checked without building arrays."""
    for name, value in (("hidden_dim", hidden_dim), ("n_layers", n_layers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


def init_params(
    feature_dim: int, hidden_dim: int, n_layers: int, seed: int = 0
) -> GeniePathParams:
    """Uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)); forget-gate bias +1."""
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    check_shape(hidden_dim, n_layers)
    rng = np.random.default_rng(seed)
    params = GeniePathParams(feature_dim, hidden_dim, n_layers)
    for name, view in params.named_arrays():
        if name != "lstm.bias" and name != "b_out":
            fan_out = view.shape[0]
            fan_in = view.shape[1] if view.ndim > 1 else 1
            a = math.sqrt(6.0 / (fan_in + fan_out))
            view[:] = rng.uniform(-a, a, size=view.shape)
    params.lstm.bias[hidden_dim : 2 * hidden_dim] = 1.0
    return params


def _candidates(g: DeviceSharingGraph, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate lists [self, neighbors...] of the ascending centre nodes, flattened.

    Returns (src, dst, seg_starts): candidate j is node dst[j] in the list of
    centre row src[j], a position in centres. Each list keeps CSR order.
    """
    offsets, targets = g.csr()
    deg = offsets[centres + 1] - offsets[centres]
    seg_starts = np.zeros(len(centres), dtype=np.int64)
    np.cumsum(deg[:-1] + 1, out=seg_starts[1:])
    src = np.repeat(np.arange(len(centres)), deg + 1)
    dst = np.empty(len(src), dtype=np.int64)
    dst[seg_starts] = centres
    is_neighbor = np.ones(len(src), dtype=bool)
    is_neighbor[seg_starts] = False
    # The m-th neighbour entry of all lists is the centre's CSR entry number
    # m minus the neighbour entries of the lists before it.
    before = seg_starts - np.arange(len(centres))
    dst[is_neighbor] = targets[np.repeat(offsets[centres] - before, deg) + np.arange(len(src) - len(centres))]
    return src, dst, seg_starts


@dataclass
class _Segments:
    """What backward() reads of every breadth layer.

    Candidate j is input row dst[j] in the list of centre row src[j], with
    attention weight alpha[j]; centre_rows are the centres' input rows. The
    rows of h_centres and of agg are the layer's centres.
    """

    src: np.ndarray
    dst: np.ndarray
    seg_starts: np.ndarray
    centre_rows: np.ndarray
    h_centres: np.ndarray
    alpha: np.ndarray
    agg: np.ndarray


@dataclass
class _LayerCache(_Segments):
    """A layer above the first: h_dst and z hold each candidate's input row and its tanh term."""

    h_dst: np.ndarray
    z: np.ndarray


@dataclass
class _InputLayerCache(_Segments):
    """Layer 0, from per-node tables (see _input_layer_forward).

    accounts are the candidates whose node is an account. z_self is the tanh
    term of each centre's self entry, z_centre that of the other entries
    around an account centre, and z_input, at the input rows, that of the
    entries naming an account around a device centre.
    """

    accounts: np.ndarray
    z_self: np.ndarray
    z_centre: np.ndarray
    z_input: np.ndarray


@dataclass
class _LSTMStepCache:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tanh_c: np.ndarray


@dataclass
class ForwardCache:
    """What backward() reads.

    h_stack holds each layer's input, then the last layer's output; the
    rows of h_stack[t] are the ascending nodes nodes[t]. Layer t's centres
    are nodes[t + 1]: the last layer's are the accounts of the probability
    rows, and each layer below adds its successor's centres' neighbours.
    row_pos[t] places those accounts in nodes[t]. input_accounts are the
    account positions in nodes[0], and features their feature rows.
    layer_caches[0] is layer 0's _InputLayerCache, the others _LayerCache.
    """

    nodes: list[np.ndarray]
    row_pos: list[np.ndarray]
    input_accounts: np.ndarray
    features: np.ndarray
    h_stack: list[np.ndarray]
    layer_caches: list[_Segments]
    lstm_steps: list[_LSTMStepCache]
    h_final: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def _take_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a's rows at the ascending rows; a itself when they are all of its rows."""
    return a if len(rows) == len(a) else np.take(a, rows, axis=0)


def _scores(z: np.ndarray, attn: np.ndarray) -> np.ndarray:
    """attn . z[j] for each row j, summed in the same order whatever the row count.

    OpenBLAS's gemv sums the last n % 4 rows of an n-row product in another
    order, and numpy's one-row product differs again, so z @ attn would
    depend on the rows beside a row: per-node tables could not equal it
    over candidates.
    """
    return np.einsum("ij,j->i", z, attn)


def _segment_softmax(scores: np.ndarray, src: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    seg_max = np.maximum.reduceat(scores, seg_starts)
    shifted = np.exp(scores - seg_max[src])
    denom = np.add.reduceat(shifted, seg_starts)
    return shifted / denom[src]


def _breadth_forward(
    layer: BreadthLayerParams,
    h: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    seg_starts: np.ndarray,
    centre_rows: np.ndarray,
) -> tuple[np.ndarray, _LayerCache]:
    """The layer's output at its centres, given its input rows h and candidate lists (src, dst, seg_starts)."""
    h_centres = _take_rows(h, centre_rows)
    src_term = h_centres @ layer.w_src.T
    dst_term = h @ layer.w_dst.T
    h_dst = np.take(h, dst, axis=0)
    z = np.tanh(np.take(src_term, src, axis=0) + np.take(dst_term, dst, axis=0))
    alpha = _segment_softmax(_scores(z, layer.attn), src, seg_starts)
    agg = np.add.reduceat(alpha[:, None] * h_dst, seg_starts, axis=0)
    h_next = np.tanh(agg @ layer.w_agg.T)
    return h_next, _LayerCache(src, dst, seg_starts, centre_rows, h_centres, alpha, agg, h_dst, z)


def _input_layer_forward(
    layer: BreadthLayerParams,
    h: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    seg_starts: np.ndarray,
    centre_rows: np.ndarray,
    is_account: np.ndarray,
) -> tuple[np.ndarray, _InputLayerCache]:
    """_breadth_forward of layer 0, whose input h is zero at the device rows (is_account False).

    Every edge joins an account to a device, so each candidate but a
    centre's self entry has a zero row on one side of
    tanh(w_src h_u + w_dst h_v): its score is a value of its centre (an
    account) or of its own row (around a device). Adding that exact zero
    changes nothing, so the scores, the weights and agg equal
    _breadth_forward's, and no (candidates x hidden) array is built.
    """
    h_centres = _take_rows(h, centre_rows)
    src_term = h_centres @ layer.w_src.T
    dst_term = h @ layer.w_dst.T
    z_self = np.tanh(src_term + np.take(dst_term, centre_rows, axis=0))
    z_centre = np.tanh(src_term)
    z_input = np.tanh(dst_term)
    scores = np.take(_scores(z_centre, layer.attn), src) + np.take(_scores(z_input, layer.attn), dst)
    scores[seg_starts] = _scores(z_self, layer.attn)
    alpha = _segment_softmax(scores, src, seg_starts)
    # A device centre's list names its self entry, a zero row, then
    # accounts; it is summed whole. An account centre's other entries are
    # zero rows, which add exactly nothing, so its list is cut to its self
    # entry. reduceat groups a sum by position, so cutting only whole tails
    # keeps every sum's bits.
    named = is_account[dst]
    accounts = np.flatnonzero(named)
    named[seg_starts] = True
    kept = np.flatnonzero(named)
    agg = np.add.reduceat(alpha[kept, None] * np.take(h, dst[kept], axis=0), np.searchsorted(kept, seg_starts), axis=0)
    h_next = np.tanh(agg @ layer.w_agg.T)
    return h_next, _InputLayerCache(
        src, dst, seg_starts, centre_rows, h_centres, alpha, agg, accounts, z_self, z_centre, z_input
    )


def attention_weights(
    layer: BreadthLayerParams, h_center: np.ndarray, h_neighbors: np.ndarray
) -> np.ndarray:
    """Attention weights over [center, neighbor_0, ...]; positive, summing to 1."""
    h_neighbors = np.asarray(h_neighbors, dtype=np.float64).reshape(-1, h_center.shape[0])
    cands = np.vstack([h_center[None, :], h_neighbors])
    z = np.tanh((layer.w_src @ h_center)[None, :] + cands @ layer.w_dst.T)
    scores = z @ layer.attn
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def _lstm_forward(
    lstm: LSTMParams, xs: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[_LSTMStepCache]]:
    n, k = xs[0].shape
    h = np.zeros((n, k))
    c = np.zeros((n, k))
    steps: list[_LSTMStepCache] = []
    for x in xs:
        a = x @ lstm.w_x.T + h @ lstm.w_h.T + lstm.bias
        gates = sigmoid(a[:, : 2 * k])
        i, f = gates[:, :k], gates[:, k:]
        g = np.tanh(a[:, 2 * k : 3 * k])
        o = sigmoid(a[:, 3 * k :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        steps.append(_LSTMStepCache(x, h, c, i, f, g, o, tanh_c))
        h = o * tanh_c
        c = c_new
    return h, steps


def forward(
    params: GeniePathParams, g: DeviceSharingGraph, features: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Fraud probability of the accounts at the ascending account rows, every account by default.

    features rows align with g.account_indices(). Returns (probs, cache);
    the cache feeds backward(). Each layer runs only where the next one
    reads it: the last layer, the LSTM and the head at the rows' accounts,
    each layer below at its successor's centres and their neighbours.
    """
    accounts = g.account_indices()
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != len(accounts) or features.shape[1] != params.feature_dim:
        raise ValueError(
            f"feature matrix shape {features.shape} does not match "
            f"{len(accounts)} accounts x {params.feature_dim} model input dims"
        )
    rows = np.arange(len(accounts)) if rows is None else np.asarray(rows, dtype=np.int64)
    if len(rows) and (rows[0] < 0 or rows[-1] >= len(accounts) or np.any(rows[1:] <= rows[:-1])):
        raise ValueError(f"rows must be ascending account rows below {len(accounts)}")

    # The centre sets, last layer first; a layer's input rows are the nodes
    # its candidate lists name, which are the centres of the layer below.
    nodes = [accounts[rows]]
    row_pos = [np.arange(len(rows))]
    candidates: list[tuple[np.ndarray, ...]] = []
    input_row = np.empty(g.num_nodes, dtype=np.int64)
    for _ in params.layers:
        centres = nodes[0]
        src, dst, seg_starts = _candidates(g, centres)
        named = np.zeros(g.num_nodes, dtype=bool)
        named[dst] = True
        inputs = np.flatnonzero(named)
        input_row[inputs] = np.arange(len(inputs))
        candidates.insert(0, (src, input_row[dst], seg_starts, input_row[centres]))
        nodes.insert(0, inputs)
        row_pos.insert(0, input_row[nodes[-1]])

    is_input_account = g.is_account[nodes[0]]
    input_accounts = np.flatnonzero(is_input_account)
    account_row = np.cumsum(g.is_account) - 1
    input_features = features[account_row[nodes[0][input_accounts]]]
    h0 = np.zeros((len(nodes[0]), params.hidden_dim))
    h0[input_accounts] = np.tanh(input_features @ params.w_in.T)

    h_next, cache = _input_layer_forward(params.layers[0], h0, *candidates[0], is_input_account)
    h_stack = [h0, h_next]
    xs = [_take_rows(h0, row_pos[0]), _take_rows(h_next, row_pos[1])]
    layer_caches: list[_Segments] = [cache]
    for layer, layer_candidates, pos in zip(params.layers[1:], candidates[1:], row_pos[2:]):
        h_next, cache = _breadth_forward(layer, h_stack[-1], *layer_candidates)
        h_stack.append(h_next)
        xs.append(_take_rows(h_next, pos))
        layer_caches.append(cache)

    h_final, lstm_steps = _lstm_forward(params.lstm, xs)

    logits = h_final @ params.w_out + params.b_out[0]
    probs = sigmoid(logits)
    return probs, ForwardCache(
        nodes, row_pos, input_accounts, input_features, h_stack, layer_caches, lstm_steps, h_final, logits, probs,
    )


def backward(
    params: GeniePathParams, cache: ForwardCache, dprobs: np.ndarray
) -> GeniePathParams:
    """Exact gradients of a scalar loss given its gradient at the probabilities forward() returned.

    Over no rows they are all zero.
    """
    grads = params.zeros_like()
    if not len(cache.probs):
        return grads

    dlogits = np.asarray(dprobs, dtype=np.float64) * cache.probs * (1.0 - cache.probs)
    grads.w_out[:] = cache.h_final.T @ dlogits
    grads.b_out[0] = dlogits.sum()

    dh = dlogits[:, None] * params.w_out
    dc = np.zeros_like(dh)
    dxs: list[np.ndarray] = [np.empty(0)] * len(cache.lstm_steps)
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

    dh_out = dxs[-1]
    for t in range(params.n_layers - 1, -1, -1):
        layer, lc = params.layers[t], cache.layer_caches[t]
        dpre_out = dh_out * (1.0 - cache.h_stack[t + 1] ** 2)
        grads.layers[t].w_agg += dpre_out.T @ lc.agg
        dagg = dpre_out @ layer.w_agg
        if t:
            dh_out = _breadth_backward(layer, grads.layers[t], lc, cache.h_stack[t], dagg)
            dh_out[cache.row_pos[t]] += dxs[t]
        else:
            dh_out = _input_layer_backward(layer, grads.layers[0], lc, cache.h_stack[0], dagg, cache.input_accounts)
            dh_out[np.searchsorted(cache.input_accounts, cache.row_pos[0])] += dxs[0]

    dpre_in = dh_out * (1.0 - cache.h_stack[0][cache.input_accounts] ** 2)
    grads.w_in[:] = dpre_in.T @ cache.features
    return grads


def _softmax_backward(alpha: np.ndarray, dalpha: np.ndarray, src: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """The gradient at the scores of _segment_softmax, given the one at its weights alpha."""
    seg_dot = np.add.reduceat(alpha * dalpha, seg_starts)
    return alpha * (dalpha - seg_dot[src])


def _tanh_backward(z: np.ndarray, dscores: np.ndarray, attn: np.ndarray) -> np.ndarray:
    """The gradient at the pre-tanh rows of the tanh terms z, given the one at their scores attn . z."""
    dpre = np.square(z)
    np.subtract(1.0, dpre, out=dpre)
    dpre *= dscores[:, None] * attn
    return dpre


def _breadth_backward(
    layer: BreadthLayerParams, grad: BreadthLayerParams, lc: _LayerCache, h: np.ndarray, dagg: np.ndarray
) -> np.ndarray:
    """Adds the layer's attention gradients to grad; returns the gradient at its input rows h.

    dagg is the gradient at lc.agg.
    """
    n_rows, k = h.shape
    dagg_per_cand = np.take(dagg, lc.src, axis=0)
    dscores = _softmax_backward(lc.alpha, np.einsum("ij,ij->i", dagg_per_cand, lc.h_dst), lc.src, lc.seg_starts)
    grad.attn += lc.z.T @ dscores
    dpre = _tanh_backward(lc.z, dscores, layer.attn)
    # A segment's candidates share their centre's row, so w_src's gradient
    # and the centre rows' gradient read each segment's sum once.
    dpre_seg = np.add.reduceat(dpre, lc.seg_starts, axis=0)
    grad.w_src += dpre_seg.T @ lc.h_centres
    grad.w_dst += dpre.T @ lc.h_dst

    # The scatter into rows as np.bincount over flat (row, dim) keys: first
    # every entry of an (n_rows, k) array, then every entry of a
    # (candidates, k) array, keyed by the candidate's row. bincount adds in
    # input order, as np.add.at does, so the sums round the same way.
    # values holds the addends in the same layout, rows being its candidate
    # part. Into each candidate's row go its attention-weighted row, then
    # the centre rows' gradient, then its w_dst row.
    keys = np.concatenate([np.arange(n_rows * k), (lc.dst[:, None] * k + np.arange(k)).ravel()])
    values = np.empty(len(keys))
    head, rows = values[: n_rows * k].reshape(n_rows, k), values[n_rows * k :].reshape(-1, k)
    np.multiply(lc.alpha[:, None], dagg_per_cand, out=rows)
    head[:] = np.bincount(keys[n_rows * k :], values[n_rows * k :], minlength=n_rows * k).reshape(n_rows, k)
    head[lc.centre_rows] += dpre_seg @ layer.w_src
    np.matmul(dpre, layer.w_dst, out=rows)
    return np.bincount(keys, values, minlength=n_rows * k).reshape(n_rows, k)


def _input_layer_backward(
    layer: BreadthLayerParams,
    grad: BreadthLayerParams,
    lc: _InputLayerCache,
    h: np.ndarray,
    dagg: np.ndarray,
    input_accounts: np.ndarray,
) -> np.ndarray:
    """_breadth_backward of layer 0 from its per-node tables; returns the gradient at the input_accounts rows of h.

    The input is zero at the devices, so only the account rows take a
    gradient, and only the account candidates carry one through agg.
    """
    acc, k = lc.accounts, h.shape[1]
    dagg_acc = np.take(dagg, lc.src[acc], axis=0)
    dalpha = np.zeros(len(lc.src))
    dalpha[acc] = np.einsum("ij,ij->i", dagg_acc, np.take(h, lc.dst[acc], axis=0))
    dscores = _softmax_backward(lc.alpha, dalpha, lc.src, lc.seg_starts)
    # Each score is a value of a node, so its gradient gathers per node: at
    # the self entries, and of the other entries by centre and by input row.
    # Both sums take every other entry. A device's tanh terms and input row
    # are zero, so what lands at a device adds nothing to the weights'
    # gradients, and its input gradient is dropped.
    d_self = dscores[lc.seg_starts]
    dscores[lc.seg_starts] = 0.0
    d_centre = np.bincount(lc.src, dscores, minlength=len(lc.seg_starts))
    d_input = np.bincount(lc.dst, dscores, minlength=len(h))
    grad.attn += lc.z_self.T @ d_self + lc.z_centre.T @ d_centre + lc.z_input.T @ d_input

    # The gradients at the pre-tanh terms: w_src's input is the centre row,
    # w_dst's the input row, and a self entry's is both.
    dpre_self = _tanh_backward(lc.z_self, d_self, layer.attn)
    dpre_src = _tanh_backward(lc.z_centre, d_centre, layer.attn)
    dpre_src += dpre_self
    dpre_dst = _tanh_backward(lc.z_input, d_input, layer.attn)
    dpre_dst[lc.centre_rows] += dpre_self
    grad.w_src += dpre_src.T @ lc.h_centres
    grad.w_dst += dpre_dst.T @ h

    dh = dpre_dst @ layer.w_dst
    dh[lc.centre_rows] += dpre_src @ layer.w_src
    # alpha * dagg into the account candidates' rows, as np.bincount over
    # flat (account row, dim) keys, which adds as np.add.at does.
    account = np.full(len(h), -1)
    account[input_accounts] = np.arange(len(input_accounts))
    keys = (account[lc.dst[acc]][:, None] * k + np.arange(k)).ravel()
    scattered = np.bincount(keys, (lc.alpha[acc, None] * dagg_acc).ravel(), minlength=len(input_accounts) * k)
    return scattered.reshape(-1, k) + np.take(dh, input_accounts, axis=0)


PROB_CLAMP = 1e-12


def _log_likelihoods(probs: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log-likelihoods: log p on the positive rows, log(1 - p) on the negative rows.

    pos and neg are boolean masks or index arrays. Probabilities are clamped
    to [PROB_CLAMP, 1 - PROB_CLAMP] so every term stays finite.
    """
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return np.log(p[pos]), np.log(1.0 - p[neg])


def clamped_bce(probs: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """Cross-entropy over the positive and negative rows: minus their summed log-likelihoods."""
    log_pos, log_neg = _log_likelihoods(probs, pos, neg)
    return float(-log_pos.sum() - log_neg.sum())


def bce_dprobs(probs: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """d clamped_bce / d probs, evaluated at the clamped probabilities."""
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    d = np.zeros_like(probs)
    d[pos] = -1.0 / p[pos]
    d[neg] = 1.0 / (1.0 - p[neg])
    return d


def gradient_check(
    params: GeniePathParams,
    g: DeviceSharingGraph,
    features: np.ndarray,
    positives: Iterable[int],
    negatives: Iterable[int],
    eps: float,
    corrupt: str | None = None,
) -> float:
    """Max relative error between analytic and central finite-difference gradients.

    The analytic gradient comes from the pass training runs, the forward and
    backward over the positive and negative rows alone. The finite
    difference of each parameter is the math.fsum of the per-row
    cross-entropy differences of the full forward, divided by 2 * eps.
    positives/negatives index rows of the account feature matrix; at least
    one of them must be non-empty. The corrupt hook deliberately breaks one
    analytic gradient block (test fixture). eps must be finite and > 0.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    n_acc = len(g.account_indices())
    pos_mask = np.zeros(n_acc, dtype=bool)
    neg_mask = np.zeros(n_acc, dtype=bool)
    pos_mask[list(positives)] = True
    neg_mask[list(negatives)] = True
    if np.any(pos_mask & neg_mask):
        raise ValueError("positive and negative sets overlap")

    rows = np.flatnonzero(pos_mask | neg_mask)
    if not len(rows):
        raise ValueError("positives and negatives are both empty: the check needs a labelled row")
    probs, cache = forward(params, g, features, rows)
    grads = backward(params, cache, bce_dprobs(probs, pos_mask[rows], neg_mask[rows]))
    if corrupt is not None:
        if corrupt != "ws":
            raise ValueError(f"unknown corruption target {corrupt!r}")
        grads.layers[0].w_src += 0.1

    def log_likelihoods(bumped: GeniePathParams) -> np.ndarray:
        probs, _ = forward(bumped, g, features)
        return np.concatenate(_log_likelihoods(probs, pos_mask, neg_mask))

    analytic, vec = grads.vector, params.vector
    bumped = params.copy()
    fd = np.zeros_like(analytic)
    for j in range(vec.size):
        bumped.vector[j] = vec[j] + eps
        hi = log_likelihoods(bumped)
        bumped.vector[j] = vec[j] - eps
        # The loss difference summed row by row and exactly: two rounded
        # loss totals lose the small differences to rounding.
        fd[j] = math.fsum(log_likelihoods(bumped) - hi) / (2.0 * eps)
        bumped.vector[j] = vec[j]

    rel = np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
    return float(rel.max())


CHECKPOINT_HEADER = "geniepath-checkpoint v1"


def save_params(params: GeniePathParams, path: str) -> None:
    """Text checkpoint at full float64 precision; load_params restores it exactly."""
    params.validate()
    lines = [CHECKPOINT_HEADER, f"dims {params.feature_dim} {params.hidden_dim} {params.n_layers}"]
    for name, arr in params.named_arrays():
        lines.append(f"tensor {name} {' '.join(str(d) for d in arr.shape)}")
        rows = arr if arr.ndim == 2 else arr[None, :]
        for row in rows:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append("end")
    with open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path: str) -> GeniePathParams:
    """Read what save_params writes; the first bad line raises CheckpointFormatError naming path:line.

    Each tensor row is checked as it is read: numbers, value count, finiteness.
    """
    raw = read_lines(path, CheckpointFormatError)

    def fail(lineno: int, message: str) -> CheckpointFormatError:
        return CheckpointFormatError(f"{path}:{lineno}: {message}")

    if not raw or raw[0] != CHECKPOINT_HEADER:
        raise fail(1, f"expected header {CHECKPOINT_HEADER!r}")
    if len(raw) < 2 or not raw[1].startswith("dims "):
        raise fail(2, "expected 'dims P K T'")
    try:
        p, k, t = (int(v) for v in raw[1].split()[1:])
    except ValueError:
        raise fail(2, f"bad dims line {raw[1]!r}") from None
    if p < 1 or k < 1 or t < 1:
        raise fail(2, f"dims must be positive, got {p} {k} {t}")

    blocks: list[np.ndarray] = []
    lineno = 2
    for name, shape in _tensor_spec(p, k, t):
        lineno += 1
        if lineno > len(raw):
            raise fail(lineno, f"missing tensor {name}")
        parts = raw[lineno - 1].split()
        if parts[:2] != ["tensor", name]:
            raise fail(lineno, f"expected tensor {name}, got {raw[lineno - 1]!r}")
        try:
            dims = tuple(int(d) for d in parts[2:])
        except ValueError:
            raise fail(lineno, f"bad shape {parts[2:]} for tensor {name}") from None
        if dims != shape:
            raise fail(lineno, f"tensor {name} has shape {parts[2:]}, expected {shape}")
        n_rows = shape[0] if len(shape) == 2 else 1
        n_cols = shape[1] if len(shape) == 2 else shape[0]
        rows = []
        for _ in range(n_rows):
            lineno += 1
            if lineno > len(raw):
                raise fail(lineno, f"tensor {name} is truncated")
            try:
                row = np.array([float(v) for v in raw[lineno - 1].split()], dtype=np.float64)
            except ValueError:
                raise fail(lineno, f"non-numeric value in tensor {name}") from None
            if row.size != n_cols:
                raise fail(lineno, f"tensor {name} row has {row.size} values, expected {n_cols}")
            if not np.all(np.isfinite(row)):
                raise fail(lineno, f"tensor {name} contains non-finite values")
            rows.append(row)
        blocks.append(np.concatenate(rows))

    lineno += 1
    if lineno > len(raw) or raw[lineno - 1] != "end":
        raise fail(lineno, "missing 'end' terminator")
    return GeniePathParams(p, k, t, np.concatenate(blocks))
