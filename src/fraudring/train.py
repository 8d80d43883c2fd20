"""Label-uncertainty training loop: all tagged-high-risk accounts as positives,
a fresh downsample of the untagged pool as negatives each epoch."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .features import LabeledDataset
from .graph import _open_new
from .geniepath import GeniePathParams, _bce_dprobs, _clamped_bce, backward, forward


# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NumericalError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


class Optimizer(Enum):
    SGD = "sgd"
    ADAM = "adam"


@dataclass
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 0.01
    negative_sample_rate: float = 0.25
    optimizer: Optimizer = Optimizer.ADAM
    resample_each_epoch: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not (0.0 < self.negative_sample_rate <= 1.0):
            raise ValueError("negative_sample_rate must lie in (0, 1]")


@dataclass
class TrainReport:
    loss_history: list[float]
    sampled_negative_counts: list[int]


def adam_step(w: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, step: int, lr: float) -> None:
    """One Adam update of w in place; m and v are its running moments, step counts from 1."""
    # w -= lr * m_hat / (sqrt(v_hat) + eps) in two buffers, each operation as written there
    buf = (1.0 - ADAM_BETA1) * grad
    m *= ADAM_BETA1
    m += buf
    np.square(grad, out=buf)
    buf *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += buf
    denom = np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**step, out=buf), out=buf)
    denom += ADAM_EPS
    update = np.divide(m, 1.0 - ADAM_BETA1**step)
    update *= lr
    update /= denom
    w -= update


def sample_negatives(pool: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Fixed-size uniform sample, without replacement, of the ascending pool rows.

    Sample size is round(rate * len(pool)); the sample comes back ascending.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError("rate must lie in (0, 1]")
    if not len(pool):
        raise ValueError("no untagged accounts to sample negatives from")
    n = int(round(rate * len(pool)))
    return np.sort(pool[rng.choice(len(pool), size=n, replace=False)])


def training_rows(
    ds: LabeledDataset, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Label-uncertainty training rows: (positives, negatives), each ascending.

    Positives are every tagged high-risk Train account; negatives a fresh
    sample_negatives draw from the untagged Train accounts.
    """
    train = ~ds.is_test
    positives = np.flatnonzero(train & ds.high_risk)
    if not len(positives):
        raise ValueError("Train split has no tagged high-risk accounts")
    return positives, sample_negatives(np.flatnonzero(train & ~ds.high_risk), rate, rng)


def gbdt_training_rows(ds: LabeledDataset, rate: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The GBDT baselines' (rows, labels): training_rows drawn from seed, positives (1.0) then negatives (0.0)."""
    positives, negatives = training_rows(ds, rate, np.random.default_rng(seed))
    return np.concatenate([positives, negatives]), np.repeat([1.0, 0.0], [len(positives), len(negatives)])


def train(
    ds: LabeledDataset,
    params: GeniePathParams,
    config: TrainConfig,
) -> tuple[GeniePathParams, TrainReport]:
    """Optimize the network on the Train split; deterministic for a fixed seed."""
    rng = np.random.default_rng(config.seed)
    params = params.copy()
    adam_m = np.zeros_like(params.vector)
    adam_v = np.zeros_like(params.vector)

    neg_rows: np.ndarray | None = None
    loss_history: list[float] = []
    neg_counts: list[int] = []
    for epoch in range(config.epochs):
        if neg_rows is None or config.resample_each_epoch:
            pos_rows, neg_rows = training_rows(ds, config.negative_sample_rate, rng)

        # Only the loss rows' probabilities reach the loss. The positives and
        # negatives are disjoint, so sorting joins them (np.union1d's
        # np.unique would import numpy.ma, about 1 MB more resident).
        rows = np.sort(np.concatenate([pos_rows, neg_rows]))
        pos, neg = np.searchsorted(rows, pos_rows), np.searchsorted(rows, neg_rows)
        probs, cache = forward(params, ds.graph, ds.features, rows)
        epoch_loss = _clamped_bce(probs, pos, neg)
        grads = backward(params, cache, _bce_dprobs(probs, pos, neg))
        if not np.isfinite(epoch_loss) or not np.all(np.isfinite(grads.vector)):
            raise NumericalError(f"non-finite loss or gradient at epoch {epoch}")

        if config.optimizer is Optimizer.SGD:
            params.vector -= config.learning_rate * grads.vector
        else:
            adam_step(params.vector, grads.vector, adam_m, adam_v, epoch + 1, config.learning_rate)

        loss_history.append(epoch_loss)
        neg_counts.append(int(len(neg_rows)))

    return params, TrainReport(loss_history, neg_counts)


def score_accounts(ds: LabeledDataset, params: GeniePathParams) -> np.ndarray:
    """Forward-pass probability of every account, aligned to the dataset rows."""
    probs, _ = forward(params, ds.graph, ds.features)
    return probs


def save_train_report(report: TrainReport, path: str) -> None:
    with _open_new(path) as fh:
        fh.write("epoch\tloss\tn_sampled_neg\n")
        for epoch, (ls, n) in enumerate(zip(report.loss_history, report.sampled_negative_counts)):
            fh.write(f"{epoch}\t{ls:.17g}\t{n}\n")
