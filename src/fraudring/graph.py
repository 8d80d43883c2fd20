"""Bipartite account/device graph: construction from event logs, pruning, queries, serialization."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

SECONDS_PER_DAY = 86_400


class GraphFormatError(ValueError):
    """Malformed graph or event file, or a structural rule violated on load."""


class NodeKind(Enum):
    ACCOUNT = "A"
    DEVICE = "D"


class CountKind(Enum):
    ALL = "all"
    ACCOUNT_ONLY = "account_only"


@dataclass(frozen=True)
class NodeRef:
    """A graph node: dense index plus the external identity it stands for."""

    index: int
    kind: NodeKind
    external_id: str


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

    Adjacency is stored as sorted neighbor lists behind a prefix-offset index
    (CSR layout). Instances are immutable once built; all queries are
    read-only and safe to use concurrently. Edges come as any iterable of
    (u, v) pairs or an (m, 2) integer array, in either orientation; duplicate
    edges collapse.
    """

    def __init__(self, nodes: Sequence[NodeRef], edges: Iterable[tuple[int, int]] | np.ndarray):
        self.nodes: list[NodeRef] = list(nodes)
        n = len(self.nodes)
        is_account = [nd.kind is NodeKind.ACCOUNT for nd in self.nodes]
        accounts = [nd.external_id for nd, acc in zip(self.nodes, is_account) if acc]
        devices = [nd.external_id for nd, acc in zip(self.nodes, is_account) if not acc]
        if (
            [nd.index for nd in self.nodes] != list(range(n))
            or len(set(accounts)) < len(accounts)
            or len(set(devices)) < len(devices)
        ):
            self._raise_first_node_error()
        self._is_account = np.array(is_account, dtype=bool)

        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = self._check_edges(edges)
        # Each undirected edge once, as the key lo * n + hi; both directions of
        # the sorted keys, sorted again, are the CSR layout.
        keys = _sorted_unique(pairs.min(axis=1) * n + pairs.max(axis=1))
        self.edge_count = len(keys)
        both = np.sort(np.concatenate([keys, keys % n * n + keys // n]))
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(both // n, minlength=n), out=self._offsets[1:])
        self._targets = both % n

    def _raise_first_node_error(self) -> None:
        seen_ids: dict[NodeKind, set[str]] = {NodeKind.ACCOUNT: set(), NodeKind.DEVICE: set()}
        for pos, node in enumerate(self.nodes):
            if node.index != pos:
                raise ValueError(f"node index {node.index} at position {pos}: indices must be dense, 0..n-1")
            if node.external_id in seen_ids[node.kind]:
                raise ValueError(f"duplicate external id {node.external_id!r} for kind {node.kind.value}")
            seen_ids[node.kind].add(node.external_id)

    def _check_edges(self, edges: list[tuple[int, int]] | np.ndarray) -> np.ndarray:
        """The edges as an (m, 2) int64 array; the first bad one in input order raises ValueError."""
        try:
            pairs = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            pairs = np.asarray(edges, dtype=object)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got an array of shape {pairs.shape}")
        n = self.num_nodes
        missing = ((pairs < 0) | (pairs >= n)).any(axis=1)
        present = pairs[~missing].astype(np.int64)
        loop = np.zeros(len(pairs), dtype=bool)
        loop[~missing] = present[:, 0] == present[:, 1]
        same_kind = np.zeros(len(pairs), dtype=bool)
        same_kind[~missing] = self._is_account[present[:, 0]] == self._is_account[present[:, 1]]
        bad = missing | loop | same_kind
        if bad.any():
            first = int(np.argmax(bad))
            u, v = edges[first]
            if missing[first]:
                raise ValueError(f"edge ({u}, {v}) references a missing node")
            if loop[first]:
                raise ValueError(f"self-loop on node {u}")
            raise ValueError(f"edge ({u}, {v}) joins two {self.nodes[u].kind.value} nodes; graph must be bipartite")
        return pairs.astype(np.int64, copy=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def neighbors(self, index: int) -> np.ndarray:
        """Sorted neighbor indices of a node (a view, do not mutate)."""
        return self._targets[self._offsets[index]:self._offsets[index + 1]]

    def degree(self, index: int) -> int:
        return int(self._offsets[index + 1] - self._offsets[index])

    def is_account(self, index: int) -> bool:
        return bool(self._is_account[index])

    def account_indices(self) -> np.ndarray:
        return np.flatnonzero(self._is_account)

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
        kept = [self.nodes[old] for old in np.flatnonzero(keep).tolist()]
        nodes = [NodeRef(new, nd.kind, nd.external_id) for new, nd in enumerate(kept)]
        edges = np.column_stack((new_index[sources[upper]], new_index[self._targets[upper]]))
        return DeviceSharingGraph(nodes, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceSharingGraph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._targets, other._targets)
        )

    def __repr__(self) -> str:
        n_acc = int(self._is_account.sum())
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
    nodes = [NodeRef(i, NodeKind.ACCOUNT, a) for i, a in enumerate(accounts)]
    nodes += [NodeRef(len(accounts) + j, NodeKind.DEVICE, d) for j, d in enumerate(devices)]
    return DeviceSharingGraph(nodes, edges)


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
    return np.bincount(labels[g._is_account], minlength=g.num_nodes)[labels] >= 2


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


def _bfs_distances(g: DeviceSharingGraph, start: int, max_depth: int) -> np.ndarray:
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if dist[u] >= max_depth:
            continue
        for v in g.neighbors(u):
            v = int(v)
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def khop_neighbor_counts(
    g: DeviceSharingGraph,
    seeds: Collection[int],
    max_hop: int,
    count_kind: CountKind = CountKind.ALL,
) -> list[float]:
    """Average number of nodes at shortest-path distance exactly h from the seeds.

    Element h-1 of the result is the mean over seeds of the count at hop h,
    restricted to account nodes when count_kind is ACCOUNT_ONLY. Seeds must
    be account nodes.
    """
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if max_hop < 1:
        raise ValueError("max_hop must be >= 1")
    seed_list = sorted(set(int(s) for s in seeds))
    for s in seed_list:
        if not (0 <= s < g.num_nodes) or not g.is_account(s):
            raise ValueError(f"seed {s} is not an Account node")

    totals = np.zeros(max_hop, dtype=np.float64)
    for s in seed_list:
        dist = _bfs_distances(g, s, max_hop)
        for h in range(1, max_hop + 1):
            at_h = dist == h
            if count_kind is CountKind.ACCOUNT_ONLY:
                at_h &= g._is_account
            totals[h - 1] += int(at_h.sum())
    return (totals / len(seed_list)).tolist()


def _check_tsv_id(value: str, what: str) -> str:
    if "\t" in value or "\n" in value or not value:
        raise ValueError(f"{what} {value!r} must be nonempty and free of tabs/newlines")
    return value


def save_graph(g: DeviceSharingGraph, path: str) -> None:
    """Write the graph as UTF-8 TSV: a #nodes section, a blank line, a #edges section."""
    lines = ["#nodes"]
    for node in g.nodes:
        _check_tsv_id(node.external_id, "external id")
        lines.append(f"{node.index}\t{node.kind.value}\t{node.external_id}")
    lines.append("")
    lines.append("#edges")
    for u, v in g.edges():
        lines.append(f"{u}\t{v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path: str) -> DeviceSharingGraph:
    """Load a graph TSV written by save_graph, validating structure.

    Raises GraphFormatError naming the offending line for malformed rows,
    non-bipartite or duplicate edges, bad indices, and section errors.
    """
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    def fail(lineno: int, message: str) -> GraphFormatError:
        return GraphFormatError(f"{path}:{lineno}: {message}")

    if not raw or raw[0].strip() != "#nodes":
        raise fail(1, "expected '#nodes' header")

    nodes: list[NodeRef] = []
    kinds: list[NodeKind] = []
    i = 1
    while i < len(raw) and raw[i].strip() != "":
        parts = raw[i].split("\t")
        if len(parts) != 3:
            raise fail(i + 1, f"expected 3 tab-separated node fields, got {len(parts)}")
        idx_text, kind_text, ext_id = parts
        try:
            idx = int(idx_text)
        except ValueError:
            raise fail(i + 1, f"node index {idx_text!r} is not an integer") from None
        if idx != len(nodes):
            raise fail(i + 1, f"node index {idx} out of order; expected {len(nodes)}")
        try:
            kind = NodeKind(kind_text)
        except ValueError:
            raise fail(i + 1, f"unknown node kind {kind_text!r}; expected A or D") from None
        nodes.append(NodeRef(idx, kind, ext_id))
        kinds.append(kind)
        i += 1

    if i >= len(raw):
        raise fail(len(raw), "missing '#edges' section")
    i += 1  # skip blank separator
    if i >= len(raw) or raw[i].strip() != "#edges":
        raise fail(i + 1, "expected '#edges' header after blank line")
    i += 1

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    n = len(nodes)
    for lineno in range(i, len(raw)):
        line = raw[lineno]
        if line.strip() == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise fail(lineno + 1, f"expected 2 tab-separated edge fields, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise fail(lineno + 1, f"edge endpoints {line!r} are not integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise fail(lineno + 1, f"edge ({u}, {v}) references a missing node")
        if u >= v:
            raise fail(lineno + 1, f"edge ({u}, {v}) must be written with src < dst")
        if kinds[u] == kinds[v]:
            raise fail(lineno + 1, f"edge ({u}, {v}) joins two {kinds[u].value} nodes; graph must be bipartite")
        if (u, v) in seen:
            raise fail(lineno + 1, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))

    return DeviceSharingGraph(nodes, edges)


def export_dot(
    g: DeviceSharingGraph,
    path: str,
    high_risk: Collection[int] | None = None,
) -> None:
    """Emit the graph in DOT: accounts as boxes, devices as ellipses, flagged accounts filled red."""
    flagged = set(int(i) for i in high_risk) if high_risk else set()

    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph device_sharing {"]
    for node in g.nodes:
        attrs = "shape=box" if node.kind is NodeKind.ACCOUNT else "shape=ellipse"
        if node.index in flagged:
            attrs += ', style=filled, fillcolor="red"'
        lines.append(f"  {quote(node.external_id)} [{attrs}];")
    for u, v in g.edges():
        lines.append(f"  {quote(g.nodes[u].external_id)} -- {quote(g.nodes[v].external_id)};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_claim_events(events: Sequence[ClaimEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            _check_tsv_id(ev.account_external_id, "account id")
            fh.write(f"{ev.account_external_id}\t{ev.timestamp}\n")


def _read_events(path: str, id_names: Sequence[str]) -> tuple[list[list[str]], np.ndarray]:
    """Columns of an event TSV: one list per id field, and the int64 timestamps.

    Blank lines are skipped but counted. The first bad line in file order fails
    with path:line; within a line a wrong field count comes first, then the
    first empty id, then the timestamp.
    """
    width = len(id_names) + 1
    with open(path, encoding="utf-8") as fh:
        rows = list(filter(None, fh.read().split("\n")))
    counts = list(map(str.count, rows, repeat("\t")))
    errors = []  # (row, precedence, message) of the first error of each kind
    if counts.count(width - 1) != len(counts):
        bad = next(i for i, c in enumerate(counts) if c != width - 1)
        errors.append((bad, 0, f"expected {width} fields, got {counts[bad] + 1}"))
        del rows[bad:]
    n = len(rows)
    joined = "\t".join(rows)
    del rows, counts
    fields = joined.split("\t") if joined else []
    del joined
    columns = [fields[j::width] for j in range(width)]
    del fields

    empty = [col.index("") if "" in col else n for col in columns[:-1]]
    if min(empty) < n:
        errors.append((min(empty), 1, f"empty {id_names[empty.index(min(empty))]}"))
    try:
        timestamps = np.fromiter(map(int, columns[-1]), np.int64, n)
    except (ValueError, OverflowError):
        errors.append(_first_bad_timestamp(columns[-1]))
    if errors:
        row, _, message = min(errors)
        raise GraphFormatError(f"{path}:{_line_number(path, row)}: {message}")
    return columns[:-1], timestamps


def _first_bad_timestamp(texts: list[str]) -> tuple[int, int, str]:
    """(row, precedence, message) of the first timestamp that is not an integer within int64."""
    for row, text in enumerate(texts):
        try:
            value = int(text)
        except ValueError:
            return row, 2, f"timestamp {text!r} is not an integer"
        if not -(2**63) <= value < 2**63:
            return row, 2, f"timestamp {text!r} is outside the int64 range"
    raise AssertionError("no bad timestamp")


def _line_number(path: str, row: int) -> int:
    """The 1-based file line of the row-th nonblank line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return [i for i, line in enumerate(lines, start=1) if line][row]


def load_claim_events(path: str) -> ClaimLog:
    (accounts,), timestamps = _read_events(path, ["account id"])
    return ClaimLog(accounts, timestamps)


def save_login_events(events: Sequence[LoginEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            _check_tsv_id(ev.account_external_id, "account id")
            _check_tsv_id(ev.device_umid, "device umid")
            fh.write(f"{ev.account_external_id}\t{ev.device_umid}\t{ev.timestamp}\n")


def load_login_events(path: str) -> LoginLog:
    (accounts, devices), timestamps = _read_events(path, ["account id", "device umid"])
    return LoginLog(accounts, devices, timestamps)
