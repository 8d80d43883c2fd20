"""Fraud-ring detection toolkit: device-sharing graphs, an attention/LSTM
graph network with handwritten gradients, boosted-tree and walk-embedding
baselines, label-uncertainty training, and evaluation reports."""

__version__ = "0.1.0"

from .features import LabeledDataset, Tag
from .graph import (
    ClaimEvent,
    ClaimLog,
    DeviceSharingGraph,
    LoginEvent,
    LoginLog,
    WindowConfig,
    build_graph,
    prune_singletons,
)
from .synth import SynthConfig, generate

__all__ = [
    "__version__",
    "ClaimEvent",
    "ClaimLog",
    "DeviceSharingGraph",
    "LabeledDataset",
    "LoginEvent",
    "LoginLog",
    "SynthConfig",
    "Tag",
    "WindowConfig",
    "build_graph",
    "generate",
    "prune_singletons",
]
