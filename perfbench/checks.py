"""Output checks against computations made apart from the program, or properties the method must have.

Every check raises CheckFailed with a message naming the file and the fault.
"""

from __future__ import annotations

import math

import numpy as np

# Report and PR-curve files carry 9 significant digits; distinct F1 values at
# these Test sizes differ by more than 1e-7.
TOL = 1e-8


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split("\t") for line in fh.read().splitlines()[1:] if line]


def expected_graph(accounts, logins) -> tuple[set[tuple[str, str]], set[str]]:
    """Designed (account, device) edges in components with two or more accounts, and their nodes.

    accounts are the graph's account ids and logins the clean (account, device)
    pairs; components come from a union-find over those pairs.
    """
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    accounts = set(accounts)
    edges = {(a, d) for a, d in logins if a in accounts}
    for a, d in edges:
        for node in (("A", a), ("D", d)):
            parent.setdefault(node, node)
        ra, rd = find(("A", a)), find(("D", d))
        if ra != rd:
            parent[ra] = rd
    n_accounts: dict = {}
    for a in {a for a, _ in edges}:
        root = find(("A", a))
        n_accounts[root] = n_accounts.get(root, 0) + 1
    kept = {(a, d) for a, d in edges if n_accounts[find(("A", a))] >= 2}
    return kept, {a for a, _ in kept} | {d for _, d in kept}


def read_graph(path: str) -> tuple[list[str], list[str], list[tuple[int, int]]]:
    """Node ids, node kinds and edges of a graph TSV."""
    with open(path, encoding="utf-8") as fh:
        nodes_part, edges_part = fh.read().split("\n\n#edges\n")
    ids, kinds = [], []
    for line in nodes_part.splitlines()[1:]:
        _, kind, ext = line.split("\t")
        kinds.append(kind)
        ids.append(ext)
    edges = [tuple(int(v) for v in line.split("\t")) for line in edges_part.splitlines() if line]
    return ids, kinds, edges


def check_graph(path: str, expected_edges: set[tuple[str, str]], expected_nodes: set[str]) -> None:
    ids, kinds, edges = read_graph(path)
    _require(set(ids) == expected_nodes and len(ids) == len(expected_nodes),
             f"{path}: {len(ids)} nodes, expected {len(expected_nodes)}")
    got = set()
    for u, v in edges:
        a, d = (u, v) if kinds[u] == "A" else (v, u)
        _require(kinds[a] == "A" and kinds[d] == "D", f"{path}: edge ({u}, {v}) is not account-device")
        got.add((ids[a], ids[d]))
    missing, extra = expected_edges - got, got - expected_edges
    _require(not missing and not extra and len(edges) == len(got),
             f"{path}: {len(missing)} designed edges missing, {len(extra)} extra "
             f"(e.g. {sorted(missing)[:2]} {sorted(extra)[:2]})")


def expected_negatives(features_path: str, test_fraction: float, rate: float) -> int:
    """round(rate x untagged Train accounts), with the stratified split's floor(n x fraction) Test share."""
    untagged = sum(1 for row in _rows(features_path) if row[1] == "NO_OBSERVABLE_RISK")
    return int(round(rate * (untagged - math.floor(untagged * test_fraction))))


def check_gnn(report_path: str, negatives: int) -> None:
    rows = _rows(report_path)
    _require(len(rows) > 0, f"{report_path}: no epochs")
    losses = [float(r[1]) for r in rows]
    _require(all(math.isfinite(v) for v in losses), f"{report_path}: non-finite loss")
    _require(losses[-1] < losses[0], f"{report_path}: loss {losses[0]} -> {losses[-1]} did not fall")
    counts = {int(r[2]) for r in rows}
    _require(counts == {negatives}, f"{report_path}: negative counts {sorted(counts)}, expected {negatives}")


def check_gbdt(stdout: str, model_path: str, n_trees: int) -> None:
    line = [ln for ln in stdout.splitlines() if ln.startswith("training loss: ")]
    _require(len(line) == 1, "train stdout has no 'training loss' line")
    first, last = (float(v) for v in line[0][len("training loss: "):].split(" -> "))
    _require(last < first, f"training loss {first} -> {last} did not fall")
    with open(model_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    trees = sum(1 for ln in lines if ln.startswith("tree "))
    _require(f"n_trees {n_trees}" in lines and trees == n_trees,
             f"{model_path}: {trees} trees, configured {n_trees}")


def check_embeddings(path: str, nodes: set[str], width: int) -> None:
    seen = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            values = np.array([float(v) for v in parts[1:]])
            _require(len(values) == width, f"{path}:{lineno}: width {len(values)}, configured {width}")
            _require(bool(np.isfinite(values).all()), f"{path}:{lineno}: non-finite value")
            seen.append(parts[0])
    _require(len(seen) == len(set(seen)) and set(seen) == nodes,
             f"{path}: {len(seen)} vectors for a graph of {len(nodes)} nodes")


def check_walks(walks: np.ndarray, ids: list[str], edges: set[tuple[str, str]]) -> None:
    """Every step of every walk (rows padded with -1) joins the ends of a designed edge."""
    _require(walks.size > 0, "no walks recorded")
    a, b = walks[:, :-1].ravel(), walks[:, 1:].ravel()
    ok = b >= 0
    for u, v in zip(a[ok].tolist(), b[ok].tolist()):
        _require((ids[u], ids[v]) in edges or (ids[v], ids[u]) in edges,
                 f"walk step {ids[u]} -> {ids[v]} follows no edge")


def check_report(report_path: str, curves_path: str) -> tuple[dict[str, float], list[str]]:
    """Check every report row against its PR curve; returns F1 by model and tie-rule breaches.

    The program picks the best threshold by comparing F1 values in floating
    point, so among points of exactly equal F1 it can pick a lower threshold
    when rounding favours it. Whether that happens depends on the seed, so a
    breach of the tie rule is returned as a note rather than failing the stage.
    """
    curves: dict[str, list[tuple[float, float, float]]] = {}
    for model, *values in _rows(curves_path):
        curves.setdefault(model, []).append(tuple(float(v) for v in values))
    f1s, notes = {}, []
    for model, *values in _rows(report_path):
        t, p, r, f1, de = (float(v) for v in values)
        where = f"{report_path}: {model}"
        _require(p > 0 and r > 0, f"{where}: precision {p}, recall {r}")
        _require(math.isclose(f1, 2 * p * r / (p + r), rel_tol=TOL), f"{where}: f1 {f1} != 2PR/(P+R)")
        _require(math.isclose(de, r / p + 1 - r, rel_tol=TOL), f"{where}: de {de} != R/P + 1 - R")
        curve = curves.get(model, [])
        _require(any(math.isclose(t, ct, rel_tol=TOL) and math.isclose(p, cp, rel_tol=TOL)
                     and math.isclose(r, cr, rel_tol=TOL) for ct, cp, cr in curve),
                 f"{where}: ({t}, {p}, {r}) is not a point of its PR curve")
        curve_f1 = [(2 * cp * cr / (cp + cr) if cp + cr else 0.0, ct) for ct, cp, cr in curve]
        best = max(f for f, _ in curve_f1)
        _require(best <= f1 * (1 + TOL), f"{where}: f1 {f1} below the curve's best {best}")
        top = max(ct for f, ct in curve_f1 if f >= best * (1 - TOL))
        if not math.isclose(t, top, rel_tol=TOL):
            notes.append(f"{where}: threshold {t}, but the best-F1 tie goes to the higher {top}")
        prevalence = min(curve)[1]
        floor = 2 * prevalence / (1 + prevalence)
        _require(f1 > floor, f"{where}: f1 {f1} not above the all-positive classifier's {floor}")
        f1s[model] = f1
    _require(sorted(f1s) == sorted(curves), f"{report_path}: models {sorted(f1s)}, curves {sorted(curves)}")
    return f1s, notes
