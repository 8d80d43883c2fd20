"""Synthetic dataset generator: colluder rings sharing devices among regular accounts.

Fraud rings are bipartite hubs (every ring account logs into every ring
device); regular accounts use private devices, occasionally sharing one with
another regular account. Tags flip fraud -> NoObservableRisk at tag_miss_rate,
never the other direction.
"""

from __future__ import annotations

import json
import math
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
    ClaimEvent, ClaimLog, IdColumn, LoginEvent, LoginLog, WindowConfig, build_graph, component_labels,
    kept_nodes, save_claim_events, save_graph, save_login_events,
)
from .textio import open_new

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
        if not math.isfinite(self.fraud_feature_shift):
            raise ValueError("fraud_feature_shift must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    ring_starts = np.cumsum(ring_sizes) - ring_sizes
    # Device creation order: ring devices (ring by ring), then private devices
    # per regular account. Device d's first login, by its owner, is login d and
    # pins its node order; all later logins land strictly after every first login.
    owner = np.concatenate([
        np.repeat(ring_starts, ring_device_counts),
        np.repeat(np.arange(n_fraud, n_accounts), regular_device_counts),
    ])
    n_devices = len(owner)
    extra_device: list[int] = []
    extra_account: list[int] = []
    dev = 0
    for start, size, count in zip(ring_starts.tolist(), ring_sizes.tolist(), ring_device_counts.tolist()):
        for d in range(dev, dev + count):
            extra_device += [d] * (size - 1)
            extra_account += range(start + 1, start + size)
        dev += count
    if n_regular >= 2:
        sharers = np.flatnonzero(share_coin)
        partners = partner_draw[sharers]
        partners += partners >= sharers
        first_private_device = dev + np.cumsum(regular_device_counts) - regular_device_counts
        extra_device += first_private_device[sharers].tolist()
        extra_account += (n_fraud + partners).tolist()

    login_account = np.concatenate([owner, np.array(extra_account, dtype=np.int64)])
    login_device = np.concatenate([np.arange(n_devices), np.array(extra_device, dtype=np.int64)])
    window = WindowConfig(reference_time=REFERENCE_TIME)
    claim_times = window.claim_start + np.arange(n_accounts)
    login_times = window.device_start + np.arange(len(login_account))

    # Each id is formatted once; the events and the logs share the strings.
    account_ids = [f"A{i:05d}" for i in range(n_accounts)]
    device_ids = [f"D{i:05d}" for i in range(n_devices)]
    claims = list(map(ClaimEvent, account_ids, claim_times.tolist()))
    logins = list(map(
        LoginEvent,
        map(account_ids.__getitem__, login_account.tolist()),
        map(device_ids.__getitem__, login_device.tolist()),
        login_times.tolist(),
    ))

    graph = build_graph(
        ClaimLog(IdColumn(account_ids, np.arange(n_accounts)), claim_times),
        LoginLog(IdColumn(account_ids, login_account), IdColumn(device_ids, login_device), login_times),
        window,
    )
    if graph.num_nodes != n_accounts + n_devices:
        raise AssertionError("generated events did not reproduce the designed node set")

    ring_of = np.repeat(np.arange(config.n_rings), ring_sizes)
    features = base
    features[:n_fraud, :n_shift] += config.fraud_feature_shift + ring_offsets[ring_of]

    # Accounts are nodes 0..n_accounts-1, so dataset rows are account indices.
    truth = np.arange(n_accounts) < n_fraud
    high_risk = truth.copy()
    high_risk[:n_fraud] = ~flip_coin
    dataset = LabeledDataset(graph, features, high_risk, np.zeros(n_accounts, dtype=bool), truth)
    check_dataset(dataset)

    accounts = graph.account_indices()
    dropped = accounts[~kept_nodes(graph, component_labels(graph))[accounts]]
    prunable = sorted(graph.ids[i] for i in dropped.tolist())

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
    with open_new(os.path.join(out_dir, MANIFEST_FILE)) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
