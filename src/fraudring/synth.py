"""Synthetic dataset generator: colluder rings sharing devices among regular accounts.

Fraud rings are bipartite hubs (every ring account logs into every ring
device); regular accounts use private devices, occasionally sharing one with
another regular account. Tags flip fraud -> NoObservableRisk at tag_miss_rate,
never the other direction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .features import (
    CLAIMS_FILE,
    FEATURES_FILE,
    GRAPH_FILE,
    GROUND_TRUTH_FILE,
    LOGINS_FILE,
    LabeledDataset,
    check_dataset,
    save_features,
    save_ground_truth,
)
from .graph import (
    ClaimEvent,
    ClaimLog,
    LoginEvent,
    LoginLog,
    WindowConfig,
    _kept_nodes,
    build_graph,
    component_labels,
    save_claim_events,
    save_graph,
    save_login_events,
)

MANIFEST_FILE = "synth_manifest.json"

# Fixed anchor so generated event logs and graphs are stable across runs.
REFERENCE_TIME = 1_700_000_000

RING_OFFSET_STD = 0.5


@dataclass
class SynthConfig:
    n_regular_accounts: int = 2000
    n_rings: int = 20
    ring_size_range: tuple[int, int] = (8, 8)
    devices_per_ring_range: tuple[int, int] = (4, 6)
    regular_devices_per_account_range: tuple[int, int] = (1, 3)
    family_share_prob: float = 0.1
    tag_miss_rate: float = 0.3
    feature_dim: int = 12
    fraud_feature_shift: float = 1.3
    seed: int = 0

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("ring_size_range", self.ring_size_range),
            ("devices_per_ring_range", self.devices_per_ring_range),
            ("regular_devices_per_account_range", self.regular_devices_per_account_range),
        ):
            if lo > hi:
                raise ValueError(f"{name} is empty: ({lo}, {hi})")
        if self.ring_size_range[0] < 2:
            raise ValueError("ring_size_range minimum must be >= 2 (a ring needs two accounts)")
        if self.devices_per_ring_range[0] < 1:
            raise ValueError("devices_per_ring_range minimum must be >= 1")
        if self.regular_devices_per_account_range[0] < 1:
            raise ValueError("regular_devices_per_account_range minimum must be >= 1")
        if not (0.0 <= self.family_share_prob <= 1.0):
            raise ValueError("family_share_prob must lie in [0, 1]")
        if not (0.0 <= self.tag_miss_rate < 1.0):
            raise ValueError("tag_miss_rate must lie in [0, 1)")
        if self.n_rings < 0 or self.n_regular_accounts < 0:
            raise ValueError("account counts must be nonnegative")
        if self.n_rings == 0 and self.n_regular_accounts == 0:
            raise ValueError("config yields zero accounts")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")


@dataclass
class SyntheticDataset:
    """A generated dataset plus the event logs that reproduce its graph."""

    dataset: LabeledDataset
    claims: list[ClaimEvent]
    logins: list[LoginEvent]
    window: WindowConfig
    prunable_account_ids: list[str]
    config: SynthConfig

    @property
    def n_prunable_accounts(self) -> int:
        return len(self.prunable_account_ids)


def _account_id(i: int) -> str:
    return f"A{i:05d}"


def _device_id(i: int) -> str:
    return f"D{i:05d}"


def generate(config: SynthConfig) -> SyntheticDataset:
    """Generate a labeled dataset with colluder rings; deterministic per seed.

    Events are laid out so build_graph reproduces the designed topology with
    account node index == creation order (rings first, then regular) and
    device node index == n_accounts + device creation order.
    """
    rng = np.random.default_rng(config.seed)
    ring_sizes = rng.integers(
        config.ring_size_range[0], config.ring_size_range[1] + 1, size=config.n_rings
    )
    ring_device_counts = rng.integers(
        config.devices_per_ring_range[0], config.devices_per_ring_range[1] + 1, size=config.n_rings
    )
    n_regular = config.n_regular_accounts
    regular_device_counts = rng.integers(
        config.regular_devices_per_account_range[0],
        config.regular_devices_per_account_range[1] + 1,
        size=n_regular,
    )
    share_coin = rng.random(n_regular) < config.family_share_prob
    partner_draw = rng.integers(0, max(1, n_regular - 1), size=n_regular)

    n_fraud = int(ring_sizes.sum())
    n_accounts = n_fraud + n_regular

    n_shift = -(-config.feature_dim // 3)
    base = rng.standard_normal((n_accounts, config.feature_dim))
    ring_offsets = rng.normal(0.0, RING_OFFSET_STD, size=(config.n_rings, n_shift))
    flip_coin = rng.random(n_fraud) < config.tag_miss_rate

    # Account creation order: ring members first (ring by ring), then regular.
    ring_of = np.full(n_accounts, -1, dtype=np.int64)
    pos = 0
    for r, k in enumerate(ring_sizes):
        ring_of[pos : pos + int(k)] = r
        pos += int(k)

    window = WindowConfig(reference_time=REFERENCE_TIME)
    claims = [
        ClaimEvent(_account_id(i), window.claim_start + i) for i in range(n_accounts)
    ]

    # Device creation order: ring devices (ring by ring), then private devices
    # per regular account. Each device's first login pins its node order; all
    # later logins land strictly after every first login.
    device_owner_logins: list[tuple[int, int]] = []  # (device, account) first login
    extra_logins: list[tuple[int, int]] = []
    dev = 0
    pos = 0
    for r in range(config.n_rings):
        members = list(range(pos, pos + int(ring_sizes[r])))
        pos += int(ring_sizes[r])
        for _ in range(int(ring_device_counts[r])):
            device_owner_logins.append((dev, members[0]))
            extra_logins.extend((dev, a) for a in members[1:])
            dev += 1

    first_private_device = np.full(n_regular, -1, dtype=np.int64)
    for j in range(n_regular):
        account = n_fraud + j
        first_private_device[j] = dev
        for _ in range(int(regular_device_counts[j])):
            device_owner_logins.append((dev, account))
            dev += 1

    if n_regular >= 2:
        for j in range(n_regular):
            if not share_coin[j]:
                continue
            partner = int(partner_draw[j])
            if partner >= j:
                partner += 1
            extra_logins.append((int(first_private_device[j]), n_fraud + partner))

    n_devices = dev
    logins = [
        LoginEvent(_account_id(a), _device_id(d), window.device_start + d)
        for d, a in device_owner_logins
    ]
    logins += [
        LoginEvent(_account_id(a), _device_id(d), window.device_start + n_devices + s)
        for s, (d, a) in enumerate(extra_logins)
    ]

    graph = build_graph(ClaimLog.from_events(claims), LoginLog.from_events(logins), window)
    if graph.num_nodes != n_accounts + n_devices:
        raise AssertionError("generated events did not reproduce the designed node set")

    features = base
    for i in range(n_fraud):
        features[i, :n_shift] += config.fraud_feature_shift + ring_offsets[int(ring_of[i])]

    # Accounts are nodes 0..n_accounts-1, so dataset rows are account indices.
    truth = np.arange(n_accounts) < n_fraud
    high_risk = truth.copy()
    high_risk[:n_fraud] = ~flip_coin
    dataset = LabeledDataset(graph, features, high_risk, np.zeros(n_accounts, dtype=bool), truth)
    check_dataset(dataset)

    accounts = graph.account_indices()
    dropped = accounts[~_kept_nodes(graph, component_labels(graph))[accounts]]
    prunable = sorted(graph.nodes[i].external_id for i in dropped.tolist())

    return SyntheticDataset(dataset, claims, logins, window, prunable, config)


def emit(sds: SyntheticDataset, out_dir: str) -> None:
    """Write graph, features, ground truth, event logs, and a window manifest."""
    os.makedirs(out_dir, exist_ok=True)
    save_graph(sds.dataset.graph, os.path.join(out_dir, GRAPH_FILE))
    save_features(sds.dataset, os.path.join(out_dir, FEATURES_FILE))
    save_ground_truth(sds.dataset, os.path.join(out_dir, GROUND_TRUTH_FILE))
    save_claim_events(sds.claims, os.path.join(out_dir, CLAIMS_FILE))
    save_login_events(sds.logins, os.path.join(out_dir, LOGINS_FILE))
    manifest = {
        "reference_time": sds.window.reference_time,
        "claim_window_days": sds.window.claim_window_days,
        "device_window_days": sds.window.device_window_days,
        "seed": sds.config.seed,
        "n_prunable_accounts": sds.n_prunable_accounts,
    }
    with open(os.path.join(out_dir, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
