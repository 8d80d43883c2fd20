"""Bipartite account/device graph: construction from event logs, pruning, queries, serialization."""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat, starmap
from typing import Collection, Iterable, Iterator, Sequence, TextIO

import numpy as np

SECONDS_PER_DAY = 86_400


class GraphFormatError(ValueError):
    """Malformed graph or event file, or a structural rule violated on load."""


@dataclass(frozen=True)
class ClaimEvent:
    account_external_id: str
    timestamp: int


@dataclass(frozen=True)
class LoginEvent:
    account_external_id: str
    device_umid: str
    timestamp: int


class _EventColumns:
    """Equality for the columnar logs: lists compare as lists, arrays element by element."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in zip(vars(self).values(), vars(other).values())
        )


@dataclass(frozen=True, eq=False)
class ClaimLog(_EventColumns):
    """A claim log in columns: row i is a claim by accounts[i] at timestamps[i] (int64)."""

    accounts: list[str]
    timestamps: np.ndarray

    @classmethod
    def from_events(cls, events: Iterable[ClaimEvent]) -> ClaimLog:
        events = list(events)
        return cls(
            [ev.account_external_id for ev in events],
            np.array([ev.timestamp for ev in events], dtype=np.int64),
        )


@dataclass(frozen=True, eq=False)
class LoginLog(_EventColumns):
    """A login log in columns: row i is accounts[i] logging into devices[i] at timestamps[i] (int64)."""

    accounts: list[str]
    devices: list[str]
    timestamps: np.ndarray

    @classmethod
    def from_events(cls, events: Iterable[LoginEvent]) -> LoginLog:
        events = list(events)
        return cls(
            [ev.account_external_id for ev in events],
            [ev.device_umid for ev in events],
            np.array([ev.timestamp for ev in events], dtype=np.int64),
        )


@dataclass(frozen=True)
class WindowConfig:
    """Half-open event windows ending at reference_time: [reference - window, reference)."""

    reference_time: int
    claim_window_days: int = 30
    device_window_days: int = 40

    def __post_init__(self) -> None:
        if self.claim_window_days <= 0 or self.device_window_days <= 0:
            raise ValueError("window lengths must be positive")

    @property
    def claim_start(self) -> int:
        return self.reference_time - self.claim_window_days * SECONDS_PER_DAY

    @property
    def device_start(self) -> int:
        return self.reference_time - self.device_window_days * SECONDS_PER_DAY


class DeviceSharingGraph:
    """Undirected bipartite graph over account and device nodes.

    Node i is ids[i], an account where is_account[i] and a device elsewhere;
    an id is unique within its kind. Adjacency is stored as sorted neighbor
    lists behind a prefix-offset index (CSR layout). Instances are immutable
    once built; all queries are read-only and safe to use concurrently. Edges
    come as any iterable of (u, v) pairs or an (m, 2) integer array, in either
    orientation; duplicate edges collapse.
    """

    def __init__(
        self,
        ids: Sequence[str],
        is_account: Sequence[bool] | np.ndarray,
        edges: Iterable[tuple[int, int]] | np.ndarray,
    ):
        self.ids: list[str] = list(ids)
        self.is_account = np.array(is_account, dtype=bool)
        n = len(self.ids)
        if self.is_account.shape != (n,):
            raise ValueError(f"{n} ids but an account mask of shape {self.is_account.shape}")
        if dup := _first_duplicate(self.ids, self.is_account):
            raise ValueError(dup[1])

        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            pairs = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            pairs = np.asarray(edges, dtype=object)
        pairs = pairs.reshape(0, 2) if pairs.size == 0 else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got an array of shape {pairs.shape}")
        if bad := _first_bad_edge(pairs[:, 0], pairs[:, 1], self.is_account, written=False):
            raise ValueError(bad[1])
        # Each undirected edge once, as the key lo * n + hi; both directions of
        # the sorted keys, sorted again, are the CSR layout.
        keys = _sorted_unique(pairs.min(axis=1) * n + pairs.max(axis=1))
        self.edge_count = len(keys)
        both = np.sort(np.concatenate([keys, keys % n * n + keys // n]))
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(both // n, minlength=n), out=self._offsets[1:])
        self._targets = both % n

    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    def neighbors(self, index: int) -> np.ndarray:
        """Sorted neighbor indices of a node (a view, do not mutate)."""
        return self._targets[self._offsets[index]:self._offsets[index + 1]]

    def account_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_account)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges as (u, v) with u < v, in sorted order."""
        sources = self._sources()
        upper = sources < self._targets
        return zip(sources[upper].tolist(), self._targets[upper].tolist())

    def _sources(self) -> np.ndarray:
        """The source node of every CSR target."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self._offsets))

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (offsets, targets) arrays in CSR layout (views, do not mutate)."""
        return self._offsets, self._targets

    def subgraph(self, keep: np.ndarray) -> DeviceSharingGraph:
        """The subgraph induced by a node mask; kept nodes keep their order, indices re-densified."""
        sources = self._sources()
        upper = (sources < self._targets) & keep[sources] & keep[self._targets]
        new_index = np.cumsum(keep) - 1
        edges = np.column_stack((new_index[sources[upper]], new_index[self._targets[upper]]))
        return DeviceSharingGraph(list(compress(self.ids, keep.tolist())), self.is_account[keep], edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceSharingGraph):
            return NotImplemented
        return (
            self.ids == other.ids
            and np.array_equal(self.is_account, other.is_account)
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._targets, other._targets)
        )

    def __repr__(self) -> str:
        n_acc = int(self.is_account.sum())
        return (
            f"DeviceSharingGraph({n_acc} accounts, {self.num_nodes - n_acc} devices, "
            f"{self.edge_count} edges)"
        )


def build_graph(claims: ClaimLog, logins: LoginLog, window: WindowConfig) -> DeviceSharingGraph:
    """Build the device-sharing graph from claim and login event logs.

    Accounts are those with at least one claim inside the claim window;
    devices are UMIDs those accounts logged into inside the device window.
    One undirected edge per distinct (account, device) pair. Node indexing
    is deterministic: accounts first, ordered by first in-window claim time
    then external id; devices next, by first in-window login time then UMID.
    """
    account_ids, (claim_account, login_account) = _codes(claims.accounts, logins.accounts)
    device_ids, (login_device,) = _codes(logins.devices)

    in_claim = (claims.timestamps >= window.claim_start) & (claims.timestamps < window.reference_time)
    accounts, account_node = _ordered_nodes(account_ids, claim_account[in_claim], claims.timestamps[in_claim], 0)

    in_device = (logins.timestamps >= window.device_start) & (logins.timestamps < window.reference_time)
    in_device &= account_node[login_account] >= 0
    login_account, login_device = login_account[in_device], login_device[in_device]
    devices, device_node = _ordered_nodes(
        device_ids, login_device, logins.timestamps[in_device], len(accounts)
    )

    pairs = _sorted_unique(login_account * len(device_ids) + login_device)
    edges = np.column_stack((account_node[pairs // len(device_ids)], device_node[pairs % len(device_ids)]))
    is_account = np.arange(len(accounts) + len(devices)) < len(accounts)
    return DeviceSharingGraph(accounts + devices, is_account, edges)


def _first_bad_edge(u: np.ndarray, v: np.ndarray, is_account: np.ndarray, written: bool) -> tuple[int, str] | None:
    """(row, message) of the first bad edge, or None if every edge is good.

    The checks, in order: an end is no node; u == v, or u >= v if written (graph.tsv
    holds each edge once, as u < v); both ends are of one kind; if written, an earlier row has the edge.
    """
    n = len(is_account)
    missing = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    # A missing end reads as the extra node n, so that every row can be indexed.
    a, b = (np.where(missing, n, ends).astype(np.int64) for ends in (u, v))
    backward = a >= b if written else a == b
    kinds = np.append(is_account, False)
    same_kind = kinds[a] == kinds[b]
    repeated = np.zeros(len(a), dtype=bool)
    if written:
        keys = a * n + b
        order = np.argsort(keys, kind="stable")
        repeated[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = missing | backward | same_kind | repeated
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    edge = f"edge ({u[row]}, {v[row]})"
    if missing[row]:
        return row, f"{edge} references a missing node"
    if backward[row]:
        return row, f"{edge} must be written with src < dst" if written else f"self-loop on node {u[row]}"
    if same_kind[row]:
        return row, f"{edge} joins two {'A' if is_account[a[row]] else 'D'} nodes; graph must be bipartite"
    return row, f"duplicate {edge}"


def _first_duplicate(ids: list[str], is_account: np.ndarray) -> tuple[int, str] | None:
    """(position, message) of the first node whose id an earlier node of its kind has, or None."""
    if len(set(ids)) < len(ids):
        seen = set()
        for i, (account, ext) in enumerate(zip(is_account.tolist(), ids)):
            if (account, ext) in seen:
                return i, f"duplicate external id {ext!r} for kind {'A' if account else 'D'}"
            seen.add((account, ext))
    return None


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique by sorting: numpy's hash-based unique left about 1 MB more resident per process."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _codes(*columns: list[str]) -> tuple[list[str], list[np.ndarray]]:
    """The distinct ids of the columns in first-seen order, and each column as int64 positions in it."""
    ids = list(dict.fromkeys(chain(*columns)))
    code = dict(zip(ids, range(len(ids))))
    return ids, [np.fromiter(map(code.__getitem__, col), np.int64, len(col)) for col in columns]


def _ordered_nodes(
    ids: list[str], codes: np.ndarray, timestamps: np.ndarray, first_index: int
) -> tuple[list[str], np.ndarray]:
    """The ids seen in codes, ordered by (first timestamp, id), and every code's node index (-1 if unseen).

    Ties go by Python str order: numpy's fixed-width strings would drop trailing NULs.
    """
    first = np.full(len(ids), np.iinfo(np.int64).max)
    np.minimum.at(first, codes, timestamps)
    seen = np.zeros(len(ids), dtype=bool)
    seen[codes] = True
    by_id = np.array(sorted(np.flatnonzero(seen).tolist(), key=ids.__getitem__), dtype=np.int64)
    order = by_id[np.argsort(first[by_id], kind="stable")]
    node = np.full(len(ids), -1, dtype=np.int64)
    node[order] = first_index + np.arange(len(order))
    return [ids[c] for c in order.tolist()], node


def component_labels(g: DeviceSharingGraph) -> np.ndarray:
    """Label every node with the smallest node index in its connected component.

    Hook and shortcut (Shiloach & Vishkin, 1982), repeated until nothing
    changes: along every edge (u, v) the node labels[u] takes labels[v] if
    that is smaller, then labels = labels[labels]. Labels only decrease and
    never leave the component, so the fixed point is the component minimum.
    """
    sources, targets = g._sources(), g.csr()[1]
    labels = np.arange(g.num_nodes)
    while True:
        lowest = labels.copy()
        np.minimum.at(lowest, labels[sources], labels[targets])
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            return labels
        labels = lowest


def _kept_nodes(g: DeviceSharingGraph, labels: np.ndarray) -> np.ndarray:
    """Mask of the nodes whose component holds at least two accounts: what pruning keeps."""
    return np.bincount(labels[g.is_account], minlength=g.num_nodes)[labels] >= 2


def connected_components(g: DeviceSharingGraph) -> list[set[int]]:
    """Partition node indices into connected components, ordered by smallest member."""
    labels = component_labels(g)
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    return [set(part.tolist()) for part in np.split(order, bounds)] if g.num_nodes else []


def prune_singletons(g: DeviceSharingGraph) -> DeviceSharingGraph:
    """Drop every connected component that contains fewer than two account nodes.

    Surviving nodes keep their relative order; indices are re-densified.
    Idempotent.
    """
    return g.subgraph(_kept_nodes(g, component_labels(g)))


def _hop_counts(g: DeviceSharingGraph, seeds: np.ndarray, max_hop: int, counted: np.ndarray) -> np.ndarray:
    """(len(seeds), max_hop) int64: [i, h - 1] counts the counted nodes at distance exactly h from seeds[i].

    Every seed's frontier expands at once, one hop a step, as sorted keys
    position * n + node. The graph is bipartite, so the neighbours of the
    nodes at distance h lie at h - 1 or h + 1: the next frontier is the
    neighbour keys minus the previous frontier's.
    """
    n = g.num_nodes
    offsets, targets = g.csr()
    counts = np.zeros((len(seeds), max_hop), dtype=np.int64)
    previous, frontier = np.zeros(0, dtype=np.int64), np.arange(len(seeds)) * n + seeds
    for hop in range(max_hop):
        nodes = frontier % n
        degree = np.diff(offsets)[nodes]
        at = np.arange(degree.sum()) + np.repeat(offsets[nodes] - np.cumsum(degree) + degree, degree)
        reached = _sorted_unique(np.repeat(frontier - nodes, degree) + targets[at])
        # reached[i] is in previous exactly where its insertion point holds it
        known = np.append(previous, -1)[np.searchsorted(previous, reached)] == reached
        previous, frontier = frontier, reached[~known]
        counts[:, hop] = np.bincount(frontier[counted[frontier % n]] // n, minlength=len(seeds))
    return counts


def khop_neighbor_counts(
    g: DeviceSharingGraph,
    seeds: Collection[int],
    max_hop: int,
    counted: np.ndarray | None = None,
) -> list[float]:
    """Average number of nodes at shortest-path distance exactly h from the seeds.

    Element h-1 of the result is the mean over the distinct seeds of the
    count at hop h, counting only the nodes of the bool mask counted if
    given (g.is_account counts accounts). Seeds are any collection or
    array of account node indices.
    """
    seeds = _sorted_unique(np.fromiter(seeds, dtype=np.int64))
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


def _check_tsv_id(value: str, what: str) -> str:
    if "\t" in value or "\n" in value or "\r" in value or not value:
        raise ValueError(f"{what} {value!r} must be nonempty and free of tabs/newlines")
    return value


def save_graph(g: DeviceSharingGraph, path: str) -> None:
    """Write the graph as UTF-8 TSV: a #nodes section, a blank line, a #edges section."""
    for ext in g.ids:
        _check_tsv_id(ext, "external id")
    kinds = np.where(g.is_account, "A", "D").tolist()
    rows = chain(
        ["#nodes"],
        map("{}\t{}\t{}".format, count(), kinds, g.ids),
        ["", "#edges"],
        starmap("{}\t{}".format, g.edges()),
    )
    with _open_new(path) as fh:
        fh.write("\n".join(rows) + "\n")


def load_graph(path: str) -> DeviceSharingGraph:
    """Load a graph TSV written by save_graph, validating structure; nodes may come in any kind order.

    The first bad line in file order raises GraphFormatError naming path:line;
    within a line the checks of _node_columns and _edge_pairs go in the order written.
    The node section ends at the first blank or whitespace-only line; such edge lines
    are skipped but counted.
    """
    lines = _read_lines(path)
    stripped = list(map(str.strip, lines))
    if not lines or stripped[0] != "#nodes":
        raise GraphFormatError(f"{path}:1: expected '#nodes' header")
    end = stripped.index("") if "" in stripped else len(lines)
    ids, is_account = _node_columns(path, lines[1:end])
    if end == len(lines):
        raise GraphFormatError(f"{path}:{len(lines)}: missing '#edges' section")
    if end + 1 == len(lines) or stripped[end + 1] != "#edges":
        raise GraphFormatError(f"{path}:{end + 2}: expected '#edges' header after blank line")
    first = end + 2
    edges = _edge_pairs(path, list(compress(lines[first:], stripped[first:])), first, is_account)
    return DeviceSharingGraph(ids, is_account, edges)


def _node_columns(path: str, rows: list[str]) -> tuple[list[str], np.ndarray]:
    """The ids and the account mask of graph.tsv's node lines, from file line 2 on."""
    (index_texts, kinds, ids), errors = _split_rows(rows, 3, "tab-separated node fields")
    index, bad = _numbers(index_texts)
    if bad < len(index_texts):
        errors.append((bad, 1, f"node index {index_texts[bad]!r} is not an integer"))
    out_of_order = np.flatnonzero(index != np.arange(len(index)))
    if len(out_of_order):
        row = int(out_of_order[0])
        errors.append((row, 2, f"node index {index[row]} out of order; expected {row}"))
    if (row := _first_outside(kinds, ("A", "D"))) is not None:
        errors.append((row, 3, f"unknown node kind {kinds[row]!r}; expected A or D"))
    if "" in ids:
        errors.append((ids.index(""), 4, "empty external id"))
    is_account = np.fromiter(map("A".__eq__, kinds), bool, len(kinds))
    if dup := _first_duplicate(ids, is_account):
        errors.append((dup[0], 5, dup[1]))
    _raise_first(path, errors, 1)
    return ids, is_account


def _edge_pairs(path: str, rows: list[str], first: int, is_account: np.ndarray) -> np.ndarray:
    """The (m, 2) edges of graph.tsv's nonblank edge lines, from 0-based file line first on."""
    (u_texts, v_texts), errors = _split_rows(rows, 2, "tab-separated edge fields")
    (u, bad_u), (v, bad_v) = _numbers(u_texts), _numbers(v_texts)
    m = min(bad_u, bad_v)
    if m < len(u_texts):
        errors.append((m, 1, "edge endpoints %r are not integers" % (u_texts[m] + "\t" + v_texts[m])))
    if bad := _first_bad_edge(u[:m], v[:m], is_account, written=True):
        errors.append((bad[0], 2, bad[1]))
    _raise_first(path, errors, first, str.strip)
    return np.column_stack((u, v))


def export_dot(
    g: DeviceSharingGraph,
    path: str,
    high_risk: Collection[int] | None = None,
) -> None:
    """Emit the graph in DOT: accounts as boxes, devices as ellipses, flagged accounts filled red.

    high_risk is any collection or array of the flagged node indices. DOT
    node n<i> is node i, labelled with its external id, so an account and a
    device with the same id stay apart.
    """
    flagged = set() if high_risk is None else set(map(int, high_risk))

    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph device_sharing {"]
    for index, (ext, account) in enumerate(zip(g.ids, g.is_account.tolist())):
        attrs = f"label={quote(ext)}, " + ("shape=box" if account else "shape=ellipse")
        if index in flagged:
            attrs += ', style=filled, fillcolor="red"'
        lines.append(f"  n{index} [{attrs}];")
    for u, v in g.edges():
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    with _open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def save_claim_events(events: Sequence[ClaimEvent], path: str) -> None:
    with _open_new(path) as fh:
        for ev in events:
            _check_tsv_id(ev.account_external_id, "account id")
            fh.write(f"{ev.account_external_id}\t{ev.timestamp}\n")


def _open_new(path: str) -> TextIO:
    """path opened for UTF-8 writing as a new file: ext4 flushes a truncated old one on close, a wait per save."""
    with suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "w", encoding="utf-8")


def _read_lines(path: str) -> list[str]:
    """A UTF-8 file's lines, as str.splitlines gives them but split at "\n" only.

    Text mode already folds "\r\n" and "\r"; splitlines would also split at
    characters the savers do not escape, such as U+2028.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _split_rows(rows: list[str], width: int, what: str) -> tuple[list[list[str]], list[tuple[int, int, str]]]:
    """The rows in width columns, up to the first row with another field count, and that row's error.

    Errors are (row, precedence, message). The rows list is emptied once
    joined, so that the lines and their fields are not held at once.
    """
    counts = list(map(str.count, rows, repeat("\t")))
    errors = []
    if counts.count(width - 1) != len(counts):
        bad = next(i for i, c in enumerate(counts) if c != width - 1)
        errors.append((bad, 0, f"expected {width} {what}, got {counts[bad] + 1}"))
        del rows[bad:]
    joined = "\t".join(rows)
    rows.clear()
    del counts
    fields = joined.split("\t") if joined else []
    del joined
    return [fields[j::width] for j in range(width)], errors


def _numbers(texts: list[str], parse: type = int) -> tuple[np.ndarray, int]:
    """The texts as parse (int or float) reads them, up to the first it rejects, and that row (len(texts) if none).

    Floats are float64. Ints are int64 if every text parses within int64, else
    Python ints in an object array.
    """
    dtype = np.int64 if parse is int else np.float64
    try:
        return np.fromiter(map(parse, texts), dtype, len(texts)), len(texts)
    except (ValueError, OverflowError):
        values: list = []
        with suppress(ValueError):
            values.extend(map(parse, texts))
        return np.array(values, dtype=object if parse is int else dtype), len(values)


def _first_outside(texts: list[str], allowed: tuple[str, ...]) -> int | None:
    """The row of the first text that is none of allowed, or None."""
    if sum(map(texts.count, allowed)) == len(texts):
        return None
    return next(i for i, text in enumerate(texts) if text not in allowed)


def _raise_first(path: str, errors: list, first: int = 0, keep=None, error: type = GraphFormatError) -> None:
    """Raise the earliest (row, precedence, message) error as error naming path:line.

    Rows count the file's lines from 0-based line first on that keep passes,
    by default the nonempty ones; the file is read again to find the line.
    """
    if errors:
        row, _, message = min(errors)
        lines = _read_lines(path)[first:]
        numbers = compress(count(first + 1), map(keep, lines) if keep else lines)
        raise error(f"{path}:{next(islice(numbers, row, None))}: {message}")


def _read_events(path: str, id_names: Sequence[str]) -> tuple[list[list[str]], np.ndarray]:
    """Columns of an event TSV: one list per id field, and the int64 timestamps.

    Blank lines are skipped but counted. The first bad line in file order fails
    with path:line; within a line a wrong field count comes first, then the
    first empty id, then the timestamp.
    """
    columns, errors = _split_rows(list(filter(None, _read_lines(path))), len(id_names) + 1, "fields")
    n = len(columns[-1])
    empty = [col.index("") if "" in col else n for col in columns[:-1]]
    if min(empty) < n:
        errors.append((min(empty), 1, f"empty {id_names[empty.index(min(empty))]}"))
    timestamps, bad = _numbers(columns[-1])
    if bad < n:
        errors.append((bad, 2, f"timestamp {columns[-1][bad]!r} is not an integer"))
    outside = (timestamps < -(2**63)) | (timestamps >= 2**63)
    if outside.any():
        row = int(np.argmax(outside))
        errors.append((row, 2, f"timestamp {columns[-1][row]!r} is outside the int64 range"))
    _raise_first(path, errors)
    return columns[:-1], timestamps


def load_claim_events(path: str) -> ClaimLog:
    (accounts,), timestamps = _read_events(path, ["account id"])
    return ClaimLog(accounts, timestamps)


def save_login_events(events: Sequence[LoginEvent], path: str) -> None:
    with _open_new(path) as fh:
        for ev in events:
            _check_tsv_id(ev.account_external_id, "account id")
            _check_tsv_id(ev.device_umid, "device umid")
            fh.write(f"{ev.account_external_id}\t{ev.device_umid}\t{ev.timestamp}\n")


def load_login_events(path: str) -> LoginLog:
    (accounts, devices), timestamps = _read_events(path, ["account id", "device umid"])
    return LoginLog(accounts, devices, timestamps)
