"""Seeded event-log noise that must leave the built graph unchanged.

Starting from synth's clean logs, `write_noisy_logs` rewrites claims.tsv and
logins.tsv with, shuffled in among the clean events:

- repeat logins of designed (account, device) pairs, all later than every
  clean login, so no device's first in-window login moves;
- logins of graph accounts to graph devices, in any pairing, older than the
  device window or at or after the reference time (the window is half-open,
  so both boundary seconds are included);
- claims of graph accounts outside the claim window;
- ghost accounts, whose claims all fall outside the claim window or who never
  claim, logging in inside the device window to graph devices and to ghost
  devices;
- ghost devices, seen only in those ghost logins and in out-of-window logins
  of graph accounts.

About ten login events per designed edge result.
"""

from __future__ import annotations

import numpy as np

DAY = 86_400
REPEATS_PER_EDGE = 8


def _write_shuffled(path: str, lines: list[str], rng: np.random.Generator) -> None:
    order = rng.permutation(len(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[i] for i in order) + "\n")


def _outside(rng: np.random.Generator, n: int, start: int, end: int) -> np.ndarray:
    """n >= 2 timestamps before [start, end) or at or after end, the first two on the boundary seconds."""
    before = start - 1 - rng.integers(0, 30 * DAY, n)
    after = end + rng.integers(0, 30 * DAY, n)
    ts = np.where(rng.random(n) < 0.5, before, after)
    ts[:2] = (start - 1, end)
    return ts


def write_noisy_logs(sds, claims_path: str, logins_path: str, seed: int) -> None:
    rng = np.random.default_rng([seed, 7])
    window = sds.window
    ref = window.reference_time
    accounts = [ev.account_external_id for ev in sds.claims]
    pair_acc = [ev.account_external_id for ev in sds.logins]
    pair_dev = [ev.device_umid for ev in sds.logins]
    devices = sorted(set(pair_dev))
    n_edges = len(pair_acc)
    last_clean = max(ev.timestamp for ev in sds.logins)

    logins = [f"{ev.account_external_id}\t{ev.device_umid}\t{ev.timestamp}" for ev in sds.logins]
    claims = [f"{ev.account_external_id}\t{ev.timestamp}" for ev in sds.claims]

    n = REPEATS_PER_EDGE * n_edges
    picks = rng.integers(0, n_edges, n)
    times = rng.integers(last_clean + 1, ref, n)
    logins += [f"{pair_acc[p]}\t{pair_dev[p]}\t{t}" for p, t in zip(picks.tolist(), times.tolist())]

    n = n_edges // 2
    acc = rng.integers(0, len(accounts), n)
    dev = rng.integers(0, len(devices), n)
    times = _outside(rng, n, window.device_start, ref)
    logins += [f"{accounts[a]}\t{devices[d]}\t{t}" for a, d, t in zip(acc.tolist(), dev.tolist(), times.tolist())]

    n = len(accounts) // 2
    acc = rng.integers(0, len(accounts), n)
    times = _outside(rng, n, window.claim_start, ref)
    claims += [f"{accounts[a]}\t{t}" for a, t in zip(acc.tolist(), times.tolist())]

    n_ghosts = max(4, len(accounts) // 4)
    ghosts = [f"AG{i:06d}" for i in range(n_ghosts)]
    ghost_devices = [f"DG{i:06d}" for i in range(max(2, len(devices) // 10))]
    times = _outside(rng, n_ghosts // 2, window.claim_start, ref)
    claims += [f"{g}\t{t}" for g, t in zip(ghosts, times.tolist())]

    n = n_edges // 2
    who = rng.integers(0, n_ghosts, n)
    to_ghost_device = rng.random(n) < 0.5
    dev = rng.integers(0, len(devices), n)
    gdev = rng.integers(0, len(ghost_devices), n)
    times = rng.integers(window.device_start, ref, n)
    logins += [
        f"{ghosts[g]}\t{ghost_devices[gd] if to_g else devices[d]}\t{t}"
        for g, to_g, d, gd, t in zip(
            who.tolist(), to_ghost_device.tolist(), dev.tolist(), gdev.tolist(), times.tolist()
        )
    ]

    n = n_edges // 4
    acc = rng.integers(0, len(accounts), n)
    gdev = rng.integers(0, len(ghost_devices), n)
    times = _outside(rng, n, window.device_start, ref)
    logins += [
        f"{accounts[a]}\t{ghost_devices[gd]}\t{t}" for a, gd, t in zip(acc.tolist(), gdev.tolist(), times.tolist())
    ]

    _write_shuffled(claims_path, claims, rng)
    _write_shuffled(logins_path, logins, rng)
