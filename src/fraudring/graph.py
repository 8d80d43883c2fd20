"""Bipartite account/device graph: construction from event logs, pruning, queries, serialization."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
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
    read-only and safe to use concurrently. Duplicate edges collapse.
    """

    def __init__(self, nodes: Sequence[NodeRef], edges: Iterable[tuple[int, int]]):
        self.nodes: list[NodeRef] = list(nodes)
        n = len(self.nodes)
        seen_ids: dict[NodeKind, set[str]] = {NodeKind.ACCOUNT: set(), NodeKind.DEVICE: set()}
        for pos, node in enumerate(self.nodes):
            if node.index != pos:
                raise ValueError(f"node index {node.index} at position {pos}: indices must be dense, 0..n-1")
            if node.external_id in seen_ids[node.kind]:
                raise ValueError(f"duplicate external id {node.external_id!r} for kind {node.kind.value}")
            seen_ids[node.kind].add(node.external_id)

        self._is_account = np.array([nd.kind is NodeKind.ACCOUNT for nd in self.nodes], dtype=bool)

        unique: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing node")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if self._is_account[u] == self._is_account[v]:
                raise ValueError(f"edge ({u}, {v}) joins two {self.nodes[u].kind.value} nodes; graph must be bipartite")
            unique.add((u, v) if u < v else (v, u))

        self.edge_count = len(unique)
        if unique:
            pairs = np.array(sorted(unique), dtype=np.int64)
            src = np.concatenate([pairs[:, 0], pairs[:, 1]])
            dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            self._offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=n), out=self._offsets[1:])
            self._targets = dst
        else:
            self._offsets = np.zeros(n + 1, dtype=np.int64)
            self._targets = np.empty(0, dtype=np.int64)

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
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if v > u:
                    yield u, int(v)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (offsets, targets) arrays in CSR layout (views, do not mutate)."""
        return self._offsets, self._targets

    def subgraph(self, keep: np.ndarray) -> DeviceSharingGraph:
        """The subgraph induced by a node mask; kept nodes keep their order, indices re-densified."""
        sources = np.repeat(np.arange(self.num_nodes), np.diff(self._offsets))
        upper = (sources < self._targets) & keep[sources] & keep[self._targets]
        new_index = np.cumsum(keep) - 1
        kept = [self.nodes[old] for old in np.flatnonzero(keep).tolist()]
        nodes = [NodeRef(new, nd.kind, nd.external_id) for new, nd in enumerate(kept)]
        edges = zip(new_index[sources[upper]].tolist(), new_index[self._targets[upper]].tolist())
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


def build_graph(
    claims: Sequence[ClaimEvent],
    logins: Sequence[LoginEvent],
    window: WindowConfig,
) -> DeviceSharingGraph:
    """Build the device-sharing graph from claim and login event logs.

    Accounts are those with at least one claim inside the claim window;
    devices are UMIDs those accounts logged into inside the device window.
    One undirected edge per distinct (account, device) pair. Node indexing
    is deterministic: accounts first, ordered by first in-window claim time
    then external id; devices next, by first in-window login time then UMID.
    """
    first_claim: dict[str, int] = {}
    for claim in claims:
        if window.claim_start <= claim.timestamp < window.reference_time:
            prev = first_claim.get(claim.account_external_id)
            if prev is None or claim.timestamp < prev:
                first_claim[claim.account_external_id] = claim.timestamp

    accounts = sorted(first_claim, key=lambda a: (first_claim[a], a))
    account_index = {a: i for i, a in enumerate(accounts)}

    first_login: dict[str, int] = {}
    pairs: set[tuple[str, str]] = set()
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

    nodes = [NodeRef(i, NodeKind.ACCOUNT, a) for i, a in enumerate(accounts)]
    nodes += [NodeRef(device_index[d], NodeKind.DEVICE, d) for d in devices]
    edges = [(account_index[a], device_index[d]) for a, d in pairs]
    return DeviceSharingGraph(nodes, edges)


def component_labels(g: DeviceSharingGraph) -> np.ndarray:
    """Label every node with the smallest node index in its connected component.

    Hook and shortcut (Shiloach & Vishkin, 1982), repeated until nothing
    changes: along every edge (u, v) the node labels[u] takes labels[v] if
    that is smaller, then labels = labels[labels]. Labels only decrease and
    never leave the component, so the fixed point is the component minimum.
    """
    offsets, targets = g.csr()
    sources = np.repeat(np.arange(g.num_nodes), np.diff(offsets))
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


def _read_events(path: str, id_names: Sequence[str]) -> Iterator[tuple[list[str], int]]:
    """Rows of an event TSV as (ids, timestamp); an empty id or a bad row fails with path:line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(id_names) + 1:
                raise GraphFormatError(f"{path}:{lineno}: expected {len(id_names) + 1} fields, got {len(parts)}")
            if "" in parts[:-1]:
                raise GraphFormatError(f"{path}:{lineno}: empty {id_names[parts.index('')]}")
            try:
                ts = int(parts[-1])
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: timestamp {parts[-1]!r} is not an integer") from None
            yield parts[:-1], ts


def load_claim_events(path: str) -> list[ClaimEvent]:
    return [ClaimEvent(*ids, ts) for ids, ts in _read_events(path, ["account id"])]


def save_login_events(events: Sequence[LoginEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            _check_tsv_id(ev.account_external_id, "account id")
            _check_tsv_id(ev.device_umid, "device umid")
            fh.write(f"{ev.account_external_id}\t{ev.device_umid}\t{ev.timestamp}\n")


def load_login_events(path: str) -> list[LoginEvent]:
    return [LoginEvent(*ids, ts) for ids, ts in _read_events(path, ["account id", "device umid"])]
